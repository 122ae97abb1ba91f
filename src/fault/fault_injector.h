#ifndef HARBOR_FAULT_FAULT_INJECTOR_H_
#define HARBOR_FAULT_FAULT_INJECTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/types.h"
#include "obs/observer.h"

namespace harbor::fault {

/// Wildcard site for fault specs: matches every site.
inline constexpr SiteId kAnySite = kInvalidSiteId;

/// What a fault does when it fires. kCrash/kError/kDelay apply to fault
/// points; kDrop/kDuplicate/kDelay apply to network links.
enum class FaultAction : uint8_t {
  kCrash = 0,      // run the site's registered crash handler (fail-stop)
  kError = 1,      // return an injected kInternal error from the point
  kDelay = 2,      // sleep delay_ms, then continue normally
  kDrop = 3,       // drop the message (caller sees kUnavailable)
  kDuplicate = 4,  // deliver the message twice (exercises idempotency)
};

const char* FaultActionName(FaultAction a);

/// A one-shot fault at a named trip-wire threaded through the commit and
/// recovery state machines (e.g. "coordinator.after_prepare"). Fires on the
/// `hit`-th matching execution of the point, then disarms.
struct PointFault {
  std::string point;
  SiteId site = kAnySite;  // restrict to one site; kAnySite = any hitter
  uint64_t hit = 1;        // 1-based: fire on the Nth matching hit
  FaultAction action = FaultAction::kCrash;
  int64_t delay_ms = 0;    // only for kDelay
};

/// A probabilistic per-link message fault consulted on every Network call.
struct LinkFault {
  SiteId from = kAnySite;
  SiteId to = kAnySite;
  uint16_t msg_type = 0;  // MsgType value; 0 = any
  FaultAction action = FaultAction::kDrop;
  double probability = 1.0;  // per-matching-message fire probability
  uint64_t max_fires = std::numeric_limits<uint64_t>::max();
  int64_t delay_ms = 0;  // only for kDelay
};

/// \brief A serializable fault schedule: everything needed to reproduce a
/// chaos run exactly — the RNG seed for probabilistic link faults plus the
/// full list of point and link fault specs.
///
/// Text grammar (';'-separated entries, ','-separated fields):
///   seed=<N>
///   point=<name>[,site=<N>][,hit=<N>],action=<crash|error|delay>[,ms=<N>]
///   link=<from|*>-><to|*>[,type=<N>],action=<drop|dup|delay>
///        [,p=<F>][,max=<N>][,ms=<N>]
struct ChaosSchedule {
  uint64_t seed = 42;
  std::vector<PointFault> points;
  std::vector<LinkFault> links;

  std::string ToString() const;
  static Result<ChaosSchedule> Parse(const std::string& text);
};

/// How a crash action runs relative to the tripping context. Message
/// handlers must use kAsync: the crash handler (e.g. Worker::Crash) drains
/// the site's in-flight handlers, so running it inline from one would
/// deadlock. Async crashes run as a task on the tripping task's own
/// scheduler (runtime::CurrentScheduler()), falling back to a short-lived
/// injector-owned thread off the pool. Client / recovery / consensus
/// contexts use kSync so the crash completes before the injected error
/// propagates (no torn runtime behind the error).
enum class CrashMode : uint8_t { kSync = 0, kAsync = 1 };

/// Verdict for one message, combined across all matching link faults.
struct LinkDecision {
  bool drop = false;
  bool duplicate = false;
  int64_t delay_ms = 0;
};

class FaultInjector;

namespace internal {
/// The installed injector; null almost always. Fault points reduce to one
/// acquire load and an unlikely branch when nothing is installed.
extern std::atomic<FaultInjector*> g_current;
}  // namespace internal

/// \brief Deterministic fault injector: evaluates a ChaosSchedule against
/// named fault points and network links. At most one injector is installed
/// at a time (tests install in SetUp scope and uninstall before teardown —
/// declare the injector after the cluster so it is destroyed first).
class FaultInjector {
 public:
  /// Fired faults are traced as fault.* events in `observer` (a
  /// cluster's) when one is given, so a failing chaos replay shows them in
  /// protocol order.
  explicit FaultInjector(ChaosSchedule schedule,
                         obs::Observer* observer = nullptr);
  ~FaultInjector();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// The crash action for `site` invokes `handler` (e.g. worker->Crash()).
  /// A crash for a site with no handler is a no-op.
  void RegisterCrashHandler(SiteId site, std::function<void()> handler);

  void Install();
  /// Removes the injector and joins any async crash threads it spawned.
  void Uninstall();

  static FaultInjector* Current() {
    return internal::g_current.load(std::memory_order_acquire);
  }

  /// Called by the HARBOR_FAULT_POINT* macros. Returns non-OK when a fault
  /// fires with kError (kInternal) or kCrash (kUnavailable, after running
  /// the crash handler per `mode`).
  Status OnPoint(const char* point, SiteId site, CrashMode mode);

  /// Called by Network once for every message it sends.
  LinkDecision OnMessage(SiteId from, SiteId to, uint16_t msg_type);

  /// Waits until every async crash handler has finished (also done by
  /// Uninstall / the destructor) and reaps any fallback crash threads.
  void WaitForCrashes();

  /// Human-readable log of every fault that fired, in firing order.
  std::vector<std::string> fired() const;

  /// Test introspection: fallback crash-thread handles currently retained.
  /// Stays bounded by the number of *concurrently running* fallback crashes
  /// (finished handles are reaped on every spawn).
  int pending_crash_threads() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int>(crash_threads_.size());
  }

  const ChaosSchedule& schedule() const { return schedule_; }

 private:
  struct PointState {
    uint64_t hits = 0;
    bool fired = false;
  };
  struct LinkState {
    uint64_t fires = 0;
  };
  /// A fallback crash thread (used when the tripping thread is not a pool
  /// task). `finished` flips after the handler returns, making the handle
  /// safe to join without blocking on live work — ReapLocked() joins
  /// finished entries on every spawn, so the list stays bounded by the
  /// number of *concurrently running* crashes instead of growing for the
  /// whole chaos run (crashes used to accumulate un-joined until
  /// Uninstall).
  struct CrashThread {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> finished;
  };

  void RunCrash(SiteId target, CrashMode mode);
  void ReapLocked();

  const ChaosSchedule schedule_;
  obs::Observer* const observer_;
  mutable std::mutex mu_;
  std::condition_variable crash_cv_;  // crash_inflight_ reached zero
  std::vector<PointState> point_state_;
  std::vector<LinkState> link_state_;
  Random rng_;  // seeded from schedule_.seed; guarded by mu_
  std::unordered_map<SiteId, std::function<void()>> crash_handlers_;
  /// Async crash handlers still running (scheduler tasks + fallback
  /// threads). WaitForCrashes waits for zero.
  int crash_inflight_ = 0;
  std::vector<CrashThread> crash_threads_;
  std::vector<std::string> fired_;
};

}  // namespace harbor::fault

/// Fault point for Status- or Result<T>-returning code running OUTSIDE the
/// site's own message-handler threads (client commit path, recovery,
/// consensus). A crash action completes inline before the error returns.
#define HARBOR_FAULT_POINT(point_name, site_id)                            \
  do {                                                                     \
    ::harbor::fault::FaultInjector* _harbor_fi =                           \
        ::harbor::fault::FaultInjector::Current();                         \
    if (__builtin_expect(_harbor_fi != nullptr, 0)) {                      \
      ::harbor::Status _harbor_fst = _harbor_fi->OnPoint(                  \
          (point_name), (site_id), ::harbor::fault::CrashMode::kSync);     \
      if (!_harbor_fst.ok()) return _harbor_fst;                           \
    }                                                                      \
  } while (0)

/// Fault point for message handlers: a crash action runs asynchronously
/// (on the handler's scheduler, or an injector-owned fallback thread) while
/// the handler returns kUnavailable (the paper's abruptly-closed-socket
/// failure signal, §5.5.1).
#define HARBOR_FAULT_POINT_ASYNC(point_name, site_id)                      \
  do {                                                                     \
    ::harbor::fault::FaultInjector* _harbor_fi =                           \
        ::harbor::fault::FaultInjector::Current();                         \
    if (__builtin_expect(_harbor_fi != nullptr, 0)) {                      \
      ::harbor::Status _harbor_fst = _harbor_fi->OnPoint(                  \
          (point_name), (site_id), ::harbor::fault::CrashMode::kAsync);    \
      if (!_harbor_fst.ok()) return _harbor_fst;                           \
    }                                                                      \
  } while (0)

/// Fault point for void contexts (background threads): delays and async
/// crashes fire; an injected error has nowhere to go and is dropped.
#define HARBOR_FAULT_HIT(point_name, site_id)                              \
  do {                                                                     \
    ::harbor::fault::FaultInjector* _harbor_fi =                           \
        ::harbor::fault::FaultInjector::Current();                         \
    if (__builtin_expect(_harbor_fi != nullptr, 0)) {                      \
      (void)_harbor_fi->OnPoint(                                          \
          (point_name), (site_id), ::harbor::fault::CrashMode::kAsync);    \
    }                                                                      \
  } while (0)

#endif  // HARBOR_FAULT_FAULT_INJECTOR_H_
