#ifndef HARBOR_NET_NETWORK_H_
#define HARBOR_NET_NETWORK_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "fault/fault_injector.h"
#include "runtime/scheduler.h"
#include "sim/sim_config.h"
#include "sim/sim_network.h"

namespace harbor {

/// \brief A network message: a type tag (defined by the protocol layer in
/// src/core) and an opaque serialized payload.
struct Message {
  uint16_t type = 0;
  std::vector<uint8_t> payload;

  /// Approximate on-wire size for the bandwidth model.
  int64_t WireBytes() const {
    return static_cast<int64_t>(payload.size()) + 32;  // + header/framing
  }
};

/// \brief The in-process cluster transport: the simulated stand-in for the
/// paper's TCP mesh (§6.1.6).
///
/// Each registered site is an endpoint with a strand on the shared runtime
/// scheduler: at most `num_threads` of its handlers run at once, started in
/// FIFO order — the thesis's "each worker runs a multi-threaded server"
/// without an OS thread per site. Call and CallAll run a handler on the
/// calling thread (a runtime::InlineTask) when the link has no modeled cost,
/// the fault injector neither delays nor duplicates the message, and the
/// endpoint has nothing queued and a free handler slot; otherwise, and
/// always for CallAsync, the request is queued in the site's inbox and a
/// dispatch turn is posted to its strand. Either way the fault injector is
/// asked once per message, the SimNetwork model charges the request and the
/// reply, and the handler counts against the endpoint's width and as in
/// flight for CrashSite's drain. The inline path takes only the endpoint's
/// own mutex, so concurrent callers meet on no scheduler-wide lock.
///
/// Failure semantics follow the paper's fail-stop model: CrashSite
/// atomically marks the endpoint dead, fails queued and future calls with
/// kUnavailable (the "abruptly closed TCP socket" failure signal of §5.5.1),
/// waits for in-flight handlers to drain, and fires crash subscriptions so
/// e.g. a recovery buddy can release a dead recovering site's locks.
class Network {
 public:
  /// With a null `scheduler` the network owns a private runtime; pass a
  /// shared one (e.g. the cluster's) to host every subsystem on one pool.
  explicit Network(const SimConfig& config,
                   runtime::Scheduler* scheduler = nullptr);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  using Handler = std::function<Result<Message>(SiteId from, const Message&)>;

  /// The replies owed to one caller: a CallAsync's, or a CallAll round's.
  /// Each slot is filled once; Wait() parks once (a blocking section) for
  /// the last fill and may be called once.
  class Replies {
   public:
    explicit Replies(size_t n) : slots_(n, Message()), owed_(n) {}
    void Fill(size_t slot, Result<Message> reply) {
      std::lock_guard<std::mutex> lock(mu_);
      slots_[slot] = std::move(reply);
      if (--owed_ == 0) cv_.notify_all();
    }
    std::vector<Result<Message>> Wait() {
      std::unique_lock<std::mutex> lock(mu_);
      if (owed_ != 0) {
        runtime::ScopedBlocking block;
        cv_.wait(lock, [this] { return owed_ == 0; });
      }
      return std::move(slots_);
    }
    Result<Message> get() { return std::move(Wait()[0]); }

   private:
    std::mutex mu_;
    std::condition_variable cv_;
    std::vector<Result<Message>> slots_;
    size_t owed_;
  };

  /// Registers (or re-registers after a restart) a site endpoint serving up
  /// to `num_threads` concurrent handlers.
  Status RegisterSite(SiteId site, Handler handler, int num_threads);

  /// Fail-stop crash: new and queued calls fail immediately; in-flight
  /// handlers are drained (their blocking waits must be unblocked by the
  /// caller first, e.g. LockManager::Shutdown); crash subscribers fire.
  /// Must not be called from one of the site's own in-flight handlers.
  ///
  /// Concurrent calls for the same site are safe: exactly one caller
  /// performs the drain and fires the subscribers, and every call returns
  /// only after the drain is complete (no handler still in flight).
  void CrashSite(SiteId site);

  bool IsAlive(SiteId site);

  /// Synchronous RPC. Returns kUnavailable if the target is down.
  Result<Message> Call(SiteId from, SiteId to, Message request);

  /// One fan-out round (e.g. PREPARE to all workers): replies in target
  /// order. Posted requests go out first, then idle targets run inline,
  /// then the caller waits once.
  std::vector<Result<Message>> CallAll(SiteId from,
                                       const std::vector<SiteId>& targets,
                                       const Message& request);

  /// Asynchronous RPC: always posted, so the caller runs on while the
  /// handler does (recovery's chunk prefetch depends on it).
  std::shared_ptr<Replies> CallAsync(SiteId from, SiteId to, Message request);

  /// Registers a callback fired (on the crashing thread) whenever any site
  /// crashes.
  void SubscribeCrash(std::function<void(SiteId)> callback);

  /// The runtime hosting this network's dispatch (shared or owned) — the
  /// cluster-wide executor for timers, recovery fan-out, and sessions.
  runtime::Scheduler* scheduler() { return sched_; }

  /// Messages delivered so far (Table 4.2 accounting).
  int64_t num_messages() const { return sim_.num_messages(); }

 private:
  struct PendingCall {
    SiteId from;
    Message request;
    std::shared_ptr<Replies> replies;  // null for an injected duplicate
    size_t slot = 0;
    int64_t delay_ms = 0;  // fault-injected in-flight delay
  };
  struct Endpoint {
    Handler handler;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<PendingCall> inbox;
    runtime::StrandId strand = 0;
    bool alive = false;
    bool stopping = false;
    bool drained = false;  // crash finished: inbox failed, handlers drained
    int width = 1;         // handlers allowed to run at once
    int in_flight = 0;     // handlers running, inline or posted
    int parked = 0;        // dispatch turns that found every slot taken
  };

  /// Sends `request` to every target, running it inline where `may_inline`
  /// and the link allow; each reply lands in the returned slots.
  std::shared_ptr<Replies> Send(SiteId from, const std::vector<SiteId>& targets,
                                const Message& request, bool may_inline);
  /// Delivers one message: with `try_inline`, serves it on this thread if
  /// the endpoint has nothing queued and a free handler slot; posts it
  /// otherwise.
  void Deliver(SiteId from, SiteId to, const std::shared_ptr<Endpoint>& ep,
               const fault::LinkDecision& link, const Message& request,
               const std::shared_ptr<Replies>& replies, size_t slot,
               bool try_inline);
  /// One dispatch turn on the endpoint's strand: pops and serves at most
  /// one inbox entry. No-op once the endpoint is stopping. A turn that finds
  /// every handler slot held by inline calls parks, and Serve re-posts it.
  void DispatchOne(SiteId site, std::shared_ptr<Endpoint> ep);
  /// Runs the handler on one request, charging the request and the reply,
  /// then frees the handler slot the call held (re-posting a parked turn).
  void Serve(SiteId site, const std::shared_ptr<Endpoint>& ep, SiteId from,
             const Message& request, Replies* replies, size_t slot);
  std::shared_ptr<Endpoint> Find(SiteId site);

  const SimConfig config_;
  SimNetwork sim_;
  std::unique_ptr<runtime::Scheduler> owned_sched_;
  runtime::Scheduler* sched_;
  std::shared_mutex mu_;  // endpoints_ (shared for lookups), subscribers
  std::unordered_map<SiteId, std::shared_ptr<Endpoint>> endpoints_;
  std::vector<std::function<void(SiteId)>> crash_subscribers_;
};

}  // namespace harbor

#endif  // HARBOR_NET_NETWORK_H_
