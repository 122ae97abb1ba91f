#include "fault/fault_injector.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <sstream>

#include "runtime/scheduler.h"

namespace harbor::fault {

namespace internal {
std::atomic<FaultInjector*> g_current{nullptr};
}  // namespace internal

const char* FaultActionName(FaultAction a) {
  switch (a) {
    case FaultAction::kCrash: return "crash";
    case FaultAction::kError: return "error";
    case FaultAction::kDelay: return "delay";
    case FaultAction::kDrop: return "drop";
    case FaultAction::kDuplicate: return "dup";
  }
  return "?";
}

// ---------------------------------------------------------- serialization

namespace {

std::string SiteToken(SiteId s) {
  return s == kAnySite ? "*" : std::to_string(s);
}

Result<SiteId> ParseSiteToken(const std::string& tok) {
  if (tok == "*") return kAnySite;
  if (tok.empty() || tok.find_first_not_of("0123456789") != std::string::npos) {
    return Status::InvalidArgument("bad site token '" + tok + "'");
  }
  return static_cast<SiteId>(std::strtoul(tok.c_str(), nullptr, 10));
}

Result<FaultAction> ParseAction(const std::string& tok) {
  if (tok == "crash") return FaultAction::kCrash;
  if (tok == "error") return FaultAction::kError;
  if (tok == "delay") return FaultAction::kDelay;
  if (tok == "drop") return FaultAction::kDrop;
  if (tok == "dup") return FaultAction::kDuplicate;
  return Status::InvalidArgument("unknown fault action '" + tok + "'");
}

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(cur);
  return out;
}

/// Splits "key=value"; value empty when there is no '='.
std::pair<std::string, std::string> KeyValue(const std::string& field) {
  size_t eq = field.find('=');
  if (eq == std::string::npos) return {field, ""};
  return {field.substr(0, eq), field.substr(eq + 1)};
}

}  // namespace

std::string ChaosSchedule::ToString() const {
  std::ostringstream out;
  out << "seed=" << seed;
  for (const PointFault& p : points) {
    out << ";point=" << p.point;
    if (p.site != kAnySite) out << ",site=" << p.site;
    if (p.hit != 1) out << ",hit=" << p.hit;
    out << ",action=" << FaultActionName(p.action);
    if (p.delay_ms != 0) out << ",ms=" << p.delay_ms;
  }
  for (const LinkFault& l : links) {
    out << ";link=" << SiteToken(l.from) << "->" << SiteToken(l.to);
    if (l.msg_type != 0) out << ",type=" << l.msg_type;
    out << ",action=" << FaultActionName(l.action);
    if (l.probability < 1.0) out << ",p=" << l.probability;
    if (l.max_fires != std::numeric_limits<uint64_t>::max()) {
      out << ",max=" << l.max_fires;
    }
    if (l.delay_ms != 0) out << ",ms=" << l.delay_ms;
  }
  return out.str();
}

Result<ChaosSchedule> ChaosSchedule::Parse(const std::string& text) {
  ChaosSchedule schedule;
  for (const std::string& entry : Split(text, ';')) {
    if (entry.empty()) continue;
    std::vector<std::string> fields = Split(entry, ',');
    auto [head_key, head_value] = KeyValue(fields[0]);
    if (head_key == "seed") {
      schedule.seed = std::strtoull(head_value.c_str(), nullptr, 10);
    } else if (head_key == "point") {
      PointFault p;
      p.point = head_value;
      if (p.point.empty()) {
        return Status::InvalidArgument("point entry with empty name");
      }
      for (size_t i = 1; i < fields.size(); ++i) {
        auto [key, value] = KeyValue(fields[i]);
        if (key == "site") {
          HARBOR_ASSIGN_OR_RETURN(p.site, ParseSiteToken(value));
        } else if (key == "hit") {
          p.hit = std::strtoull(value.c_str(), nullptr, 10);
        } else if (key == "action") {
          HARBOR_ASSIGN_OR_RETURN(p.action, ParseAction(value));
        } else if (key == "ms") {
          p.delay_ms = std::strtoll(value.c_str(), nullptr, 10);
        } else {
          return Status::InvalidArgument("unknown point field '" + key + "'");
        }
      }
      if (p.action != FaultAction::kCrash && p.action != FaultAction::kError &&
          p.action != FaultAction::kDelay) {
        return Status::InvalidArgument("action '" +
                                       std::string(FaultActionName(p.action)) +
                                       "' is link-only");
      }
      schedule.points.push_back(std::move(p));
    } else if (head_key == "link") {
      size_t arrow = head_value.find("->");
      if (arrow == std::string::npos) {
        return Status::InvalidArgument("link entry without '->': " + entry);
      }
      LinkFault l;
      HARBOR_ASSIGN_OR_RETURN(l.from,
                              ParseSiteToken(head_value.substr(0, arrow)));
      HARBOR_ASSIGN_OR_RETURN(l.to,
                              ParseSiteToken(head_value.substr(arrow + 2)));
      for (size_t i = 1; i < fields.size(); ++i) {
        auto [key, value] = KeyValue(fields[i]);
        if (key == "type") {
          l.msg_type =
              static_cast<uint16_t>(std::strtoul(value.c_str(), nullptr, 10));
        } else if (key == "action") {
          HARBOR_ASSIGN_OR_RETURN(l.action, ParseAction(value));
        } else if (key == "p") {
          l.probability = std::strtod(value.c_str(), nullptr);
        } else if (key == "max") {
          l.max_fires = std::strtoull(value.c_str(), nullptr, 10);
        } else if (key == "ms") {
          l.delay_ms = std::strtoll(value.c_str(), nullptr, 10);
        } else {
          return Status::InvalidArgument("unknown link field '" + key + "'");
        }
      }
      if (l.action != FaultAction::kDrop &&
          l.action != FaultAction::kDuplicate &&
          l.action != FaultAction::kDelay) {
        return Status::InvalidArgument("action '" +
                                       std::string(FaultActionName(l.action)) +
                                       "' is point-only");
      }
      schedule.links.push_back(l);
    } else {
      return Status::InvalidArgument("unknown schedule entry '" + entry + "'");
    }
  }
  return schedule;
}

// -------------------------------------------------------------- injector

FaultInjector::FaultInjector(ChaosSchedule schedule, obs::Observer* observer)
    : schedule_(std::move(schedule)),
      observer_(observer),
      point_state_(schedule_.points.size()),
      link_state_(schedule_.links.size()),
      rng_(schedule_.seed) {}

FaultInjector::~FaultInjector() { Uninstall(); }

void FaultInjector::RegisterCrashHandler(SiteId site,
                                         std::function<void()> handler) {
  std::lock_guard<std::mutex> lock(mu_);
  crash_handlers_[site] = std::move(handler);
}

void FaultInjector::Install() {
  internal::g_current.store(this, std::memory_order_release);
}

void FaultInjector::Uninstall() {
  FaultInjector* expected = this;
  internal::g_current.compare_exchange_strong(expected, nullptr,
                                              std::memory_order_acq_rel);
  WaitForCrashes();
}

void FaultInjector::WaitForCrashes() {
  std::vector<CrashThread> threads;
  {
    // The wait is a blocking section: a pool task calling this must not
    // starve the pool that is running the crash handlers it waits for.
    runtime::ScopedBlocking block;
    std::unique_lock<std::mutex> lock(mu_);
    crash_cv_.wait(lock, [this] { return crash_inflight_ == 0; });
    threads.swap(crash_threads_);
  }
  for (CrashThread& t : threads) {
    if (t.thread.joinable()) t.thread.join();
  }
}

void FaultInjector::ReapLocked() {
  for (size_t i = 0; i < crash_threads_.size();) {
    if (crash_threads_[i].finished->load(std::memory_order_acquire)) {
      // Finished flips after the handler returned, so this join cannot
      // block on live crash work.
      crash_threads_[i].thread.join();
      crash_threads_[i] = std::move(crash_threads_.back());
      crash_threads_.pop_back();
    } else {
      ++i;
    }
  }
}

std::vector<std::string> FaultInjector::fired() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fired_;
}

void FaultInjector::RunCrash(SiteId target, CrashMode mode) {
  std::function<void()> handler;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = crash_handlers_.find(target);
    if (it != crash_handlers_.end()) handler = it->second;
  }
  if (!handler) return;
  if (mode == CrashMode::kSync) {
    handler();
    return;
  }
  // Async: run the handler as a task on the tripping task's own scheduler
  // (the crash handler's drain waits are blocking sections, so the pool
  // stays live). The inflight count — not thread handles — is what
  // WaitForCrashes() waits on.
  auto run = [this, handler = std::move(handler)] {
    handler();
    std::lock_guard<std::mutex> lock(mu_);
    if (--crash_inflight_ == 0) crash_cv_.notify_all();
  };
  {
    std::lock_guard<std::mutex> lock(mu_);
    crash_inflight_++;
  }
  runtime::Scheduler* sched = runtime::CurrentScheduler();
  if (sched != nullptr && sched->Post(run)) return;
  // Off-pool tripping thread (or runtime shutting down): fall back to a
  // dedicated thread, reaping previously finished ones so the list stays
  // bounded instead of leaking joinable handles for the whole run.
  std::lock_guard<std::mutex> lock(mu_);
  ReapLocked();
  CrashThread ct;
  ct.finished = std::make_shared<std::atomic<bool>>(false);
  ct.thread = std::thread([run, finished = ct.finished] {
    run();
    finished->store(true, std::memory_order_release);
  });
  crash_threads_.push_back(std::move(ct));
}

Status FaultInjector::OnPoint(const char* point, SiteId site, CrashMode mode) {
  PointFault spec;
  bool fire = false;
  std::string description;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < schedule_.points.size(); ++i) {
      const PointFault& candidate = schedule_.points[i];
      PointState& state = point_state_[i];
      if (state.fired) continue;
      if (candidate.point != point) continue;
      if (candidate.site != kAnySite && candidate.site != site) continue;
      state.hits++;
      if (state.hits < candidate.hit) continue;
      state.fired = true;
      fire = true;
      spec = candidate;
      description = std::string(point) + "@site" + std::to_string(site) +
                    " action=" + FaultActionName(candidate.action);
      fired_.push_back(description);
      break;
    }
  }
  if (!fire) return Status::OK();
  // The fired fault lands in the event trace so a failing chaos replay shows
  // exactly where in the protocol timeline the fault hit.
  if (observer_ != nullptr) {
    observer_->Trace(site, "fault.point", 0, 0, 0, std::move(description));
  }
  switch (spec.action) {
    case FaultAction::kDelay: {
      // A delayed pool task must not hold its worker: the scheduler spawns a
      // spare while the delay sleeps.
      runtime::ScopedBlocking block;
      std::this_thread::sleep_for(std::chrono::milliseconds(spec.delay_ms));
      return Status::OK();
    }
    case FaultAction::kError:
      return Status::Internal("fault-injected error at " + std::string(point));
    case FaultAction::kCrash: {
      const SiteId target = spec.site != kAnySite ? spec.site : site;
      RunCrash(target, mode);
      return Status::Unavailable("fault-injected crash of site " +
                                 std::to_string(target) + " at " + point);
    }
    default:
      return Status::InvalidArgument("link-only action at fault point " +
                                     std::string(point));
  }
}

LinkDecision FaultInjector::OnMessage(SiteId from, SiteId to,
                                      uint16_t msg_type) {
  LinkDecision decision;
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < schedule_.links.size(); ++i) {
    const LinkFault& spec = schedule_.links[i];
    LinkState& state = link_state_[i];
    if (state.fires >= spec.max_fires) continue;
    if (spec.from != kAnySite && spec.from != from) continue;
    if (spec.to != kAnySite && spec.to != to) continue;
    if (spec.msg_type != 0 && spec.msg_type != msg_type) continue;
    if (spec.probability < 1.0 && rng_.NextDouble() >= spec.probability) {
      continue;
    }
    state.fires++;
    switch (spec.action) {
      case FaultAction::kDrop:
        decision.drop = true;
        break;
      case FaultAction::kDuplicate:
        decision.duplicate = true;
        break;
      case FaultAction::kDelay:
        decision.delay_ms = std::max(decision.delay_ms, spec.delay_ms);
        break;
      default:
        break;
    }
    std::string description = "link " + SiteToken(from) + "->" +
                              SiteToken(to) + " type=" +
                              std::to_string(msg_type) +
                              " action=" + FaultActionName(spec.action);
    fired_.push_back(description);
    // Attributed to the sender: the receiver never sees a dropped message.
    if (observer_ != nullptr) {
      observer_->Trace(from, "fault.link", 0, static_cast<int64_t>(to),
                       msg_type, std::move(description));
    }
  }
  return decision;
}

}  // namespace harbor::fault
