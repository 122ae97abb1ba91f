#include "net/network.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

#include "fault/fault_injector.h"
#include "obs/observer.h"

namespace harbor {

Network::Network(const SimConfig& config, runtime::Scheduler* scheduler)
    : config_(config), sim_(config) {
  if (scheduler == nullptr) {
    owned_sched_ = std::make_unique<runtime::Scheduler>();
    sched_ = owned_sched_.get();
  } else {
    sched_ = scheduler;
  }
}

Network::~Network() {
  std::vector<SiteId> sites;
  {
    std::lock_guard<std::shared_mutex> lock(mu_);
    for (auto& [site, ep] : endpoints_) sites.push_back(site);
    crash_subscribers_.clear();  // no callbacks during teardown
  }
  for (SiteId site : sites) CrashSite(site);
  // Releasing every crashed site's strand discarded its queued dispatch
  // tasks, so nothing on a shared scheduler can outlive this network.
}

std::shared_ptr<Network::Endpoint> Network::Find(SiteId site) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = endpoints_.find(site);
  return it == endpoints_.end() ? nullptr : it->second;
}

Status Network::RegisterSite(SiteId site, Handler handler, int num_threads) {
  auto ep = std::make_shared<Endpoint>();
  ep->handler = std::move(handler);
  ep->alive = true;
  {
    std::lock_guard<std::shared_mutex> lock(mu_);
    auto it = endpoints_.find(site);
    if (it != endpoints_.end() && it->second->alive) {
      return Status::AlreadyExists("site " + std::to_string(site) +
                                   " already registered and alive");
    }
    endpoints_[site] = ep;
  }
  // Under ep->mu so a concurrent CrashSite either sees the strand (and
  // releases it) or none (and the registration fails cleanly below).
  std::lock_guard<std::mutex> lock(ep->mu);
  if (ep->stopping) {
    return Status::Unavailable("site " + std::to_string(site) +
                               " crashed during registration");
  }
  ep->width = std::max(1, num_threads);
  ep->strand = sched_->CreateStrand(ep->width);
  if (ep->strand == 0) {
    ep->alive = false;
    return Status::Unavailable("runtime is shut down");
  }
  return Status::OK();
}

void Network::DispatchOne(SiteId site, std::shared_ptr<Endpoint> ep) {
  PendingCall call;
  {
    std::lock_guard<std::mutex> lock(ep->mu);
    if (ep->stopping || ep->inbox.empty()) return;
    if (ep->in_flight >= ep->width) {
      // Inline handlers hold every slot: the first to finish re-posts.
      ep->parked++;
      return;
    }
    call = std::move(ep->inbox.front());
    ep->inbox.pop_front();
    ep->in_flight++;
  }
  if (call.delay_ms > 0) {  // fault-injected link delay
    runtime::ScopedBlocking block;
    std::this_thread::sleep_for(std::chrono::milliseconds(call.delay_ms));
  }
  Serve(site, ep, call.from, call.request, call.replies.get(), call.slot);
}

void Network::Serve(SiteId site, const std::shared_ptr<Endpoint>& ep,
                    SiteId from, const Message& request, Replies* replies,
                    size_t slot) {
  // Request delivery cost (sender = caller) is paid by the serving thread,
  // so a posting caller is not blocked by it.
  sim_.ChargeMessage(from, request.WireBytes());
  Result<Message> reply = ep->handler(from, request);
  // Reply flight back to the caller, charged against this site's NIC.
  if (reply.ok()) sim_.ChargeMessage(site, reply->WireBytes());
  if (replies != nullptr) replies->Fill(slot, std::move(reply));
  bool drained;
  {
    std::lock_guard<std::mutex> lock(ep->mu);
    ep->in_flight--;
    drained = ep->stopping && ep->in_flight == 0;
    if (ep->parked > 0 && !ep->stopping) {
      ep->parked--;
      sched_->Post(ep->strand, [this, site, ep] { DispatchOne(site, ep); });
    }
  }
  if (drained) ep->cv.notify_all();
}

void Network::CrashSite(SiteId site) {
  std::shared_ptr<Endpoint> ep = Find(site);
  if (ep == nullptr) return;
  runtime::StrandId to_release = 0;
  {
    std::unique_lock<std::mutex> lock(ep->mu);
    if (ep->drained) return;  // already fully crashed
    if (!ep->alive) {
      // Another thread is mid-crash; wait for it so this call, like every
      // CrashSite call, returns only once no handler is in flight.
      runtime::ScopedBlocking block;
      ep->cv.wait(lock, [&] { return ep->drained; });
      return;
    }
    ep->alive = false;
    ep->stopping = true;
    // Fail whatever is still queued (the abruptly-closed-socket signal).
    for (PendingCall& call : ep->inbox) {
      if (call.replies) {
        call.replies->Fill(call.slot, Status::Unavailable("site crashed"));
      }
    }
    ep->inbox.clear();
    {
      // In-flight handlers drain; their blocking waits were unblocked by
      // the caller (e.g. LockManager::Shutdown) per the crash protocol.
      runtime::ScopedBlocking block;
      ep->cv.wait(lock, [&] { return ep->in_flight == 0; });
    }
    ep->drained = true;
    to_release = ep->strand;
    ep->strand = 0;
  }
  ep->cv.notify_all();
  // Discards queued dispatch turns (their calls were failed above). Not
  // under ep->mu: the strand's last running turns may need it to observe
  // `stopping`.
  if (to_release != 0) sched_->ReleaseStrand(to_release);
  obs::Trace(site, "net.crash");

  // Only the transitioning crasher reaches this point, so subscribers fire
  // exactly once per crash, after the drain.
  std::vector<std::function<void(SiteId)>> subs;
  {
    std::lock_guard<std::shared_mutex> lock(mu_);
    subs = crash_subscribers_;
  }
  for (const auto& cb : subs) cb(site);
}

bool Network::IsAlive(SiteId site) {
  std::shared_ptr<Endpoint> ep = Find(site);
  if (ep == nullptr) return false;
  std::lock_guard<std::mutex> lock(ep->mu);
  return ep->alive;
}

std::shared_ptr<Network::Replies> Network::Send(
    SiteId from, const std::vector<SiteId>& targets, const Message& request,
    bool may_inline) {
  auto replies = std::make_shared<Replies>(targets.size());
  fault::FaultInjector* fi = fault::FaultInjector::Current();
  // Link decisions are drawn in target order. Targets that may run inline
  // go last, so the posted handlers overlap theirs.
  std::vector<std::pair<size_t, std::shared_ptr<Endpoint>>> inline_later;
  for (size_t i = 0; i < targets.size(); ++i) {
    std::shared_ptr<Endpoint> ep = Find(targets[i]);
    fault::LinkDecision link;
    if (ep != nullptr && fi != nullptr) {
      link = fi->OnMessage(from, targets[i], request.type);
    }
    if (may_inline && !config_.enable_latency && ep != nullptr &&
        runtime::InlineTask::Allowed(sched_) && !link.drop &&
        !link.duplicate && link.delay_ms == 0) {
      inline_later.emplace_back(i, std::move(ep));
    } else {
      Deliver(from, targets[i], ep, link, request, replies, i, false);
    }
  }
  for (auto& [i, ep] : inline_later) {
    Deliver(from, targets[i], ep, {}, request, replies, i, true);
  }
  return replies;
}

void Network::Deliver(SiteId from, SiteId to,
                      const std::shared_ptr<Endpoint>& ep,
                      const fault::LinkDecision& link, const Message& request,
                      const std::shared_ptr<Replies>& replies, size_t slot,
                      bool try_inline) {
  auto fail = [&](const char* what, const char* why) {
    replies->Fill(slot, Status::Unavailable(what + std::to_string(to) + why));
  };
  if (ep == nullptr) return fail("no site ", "");
  // Link faults: a dropped message surfaces as kUnavailable at the caller
  // (under fail-stop RPC there are no silent losses — a broken connection is
  // the failure signal); a duplicate exercises handler idempotency.
  if (link.drop) return fail("fault-injected drop of message to site ", "");
  {
    std::lock_guard<std::mutex> lock(ep->mu);
    if (!ep->alive) return fail("site ", " is down (connection refused)");
    // Only an endpoint with nothing queued and a free handler slot serves
    // the call here, so it overtakes nothing and the width holds.
    try_inline = try_inline && ep->inbox.empty() && ep->in_flight < ep->width;
    if (try_inline) {
      ep->in_flight++;
    } else {
      auto dispatch = [this, to, ep] { DispatchOne(to, ep); };
      if (link.duplicate) {
        ep->inbox.push_back({from, request, nullptr, 0, link.delay_ms});
        sched_->Post(ep->strand, dispatch);
      }
      ep->inbox.push_back({from, request, replies, slot, link.delay_ms});
      if (!sched_->Post(ep->strand, dispatch)) {
        // Runtime shut down under us: fail the call like a crashed site.
        ep->inbox.pop_back();
        return fail("site ", " is down (runtime shut down)");
      }
    }
  }
  if (!try_inline) return;
  runtime::InlineTask task(sched_);
  Serve(to, ep, from, request, replies.get(), slot);
}

Result<Message> Network::Call(SiteId from, SiteId to, Message request) {
  return std::move(CallAll(from, {to}, request)[0]);
}

std::vector<Result<Message>> Network::CallAll(
    SiteId from, const std::vector<SiteId>& targets, const Message& request) {
  return Send(from, targets, request, /*may_inline=*/true)->Wait();
}

std::shared_ptr<Network::Replies> Network::CallAsync(SiteId from, SiteId to,
                                                     Message request) {
  return Send(from, {to}, request, /*may_inline=*/false);
}

void Network::SubscribeCrash(std::function<void(SiteId)> callback) {
  std::lock_guard<std::shared_mutex> lock(mu_);
  crash_subscribers_.push_back(std::move(callback));
}

}  // namespace harbor
