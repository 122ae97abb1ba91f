#ifndef HARBOR_RUNTIME_SCHEDULER_H_
#define HARBOR_RUNTIME_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"

namespace harbor::runtime {

using Task = std::function<void()>;

/// A dispatch group. Tasks posted to one strand run in FIFO pickup order
/// with at most `width` running concurrently — a width-N strand reproduces
/// the semantics of N dedicated threads draining one FIFO inbox, without
/// owning any threads. Strand 0 is invalid; Scheduler::kPool is the
/// built-in unordered group.
using StrandId = uint64_t;

using TimerId = uint64_t;

/// \brief The shared task-scheduler/executor: a fixed worker pool that hosts
/// every simulated site's RPC dispatch, background timers (epoch ticker,
/// checkpointers), recovery fan-out, consensus rounds, and workload session
/// issuing — so hundreds of logical sites fit in one process instead of
/// burning OS threads per site/stream/session (ROADMAP item 2).
///
/// Ordering: per-strand FIFO pickup with a concurrency width. Completion
/// order is not constrained (as with real threads).
///
/// Blocking: pool tasks that block (RPC replies, lock waits, crash drains,
/// simulated device sleeps) must mark the wait with ScopedBlocking. The
/// scheduler keeps the pool live by spawning bounded *spare* workers while
/// tasks are blocked; spares retire once the pool is over-provisioned
/// again. An unannotated dependency wait can starve the pool — annotate.
///
/// Shutdown: graceful drain. Already-queued tasks run to completion; new
/// Post()s are rejected (return false); armed timers are cancelled without
/// firing.
class Scheduler {
 public:
  struct Options {
    /// Core worker count; 0 = max(8, hardware_concurrency).
    int workers = 0;
    /// Nonzero: workers pick among ready strands with a seeded xorshift
    /// instead of strict FIFO — a deterministic dispatch-order shuffle for
    /// chaos interleaving exploration. Per-strand FIFO is preserved either
    /// way.
    uint64_t seed = 0;
  };

  /// The built-in unordered dispatch group (effectively unlimited width).
  static constexpr StrandId kPool = 1;

  Scheduler() : Scheduler(Options()) {}
  explicit Scheduler(Options options);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Creates a FIFO dispatch group allowing `width` concurrent tasks.
  StrandId CreateStrand(int width = 1);

  /// Marks the strand dead: queued-but-unstarted tasks are discarded,
  /// running tasks finish, further Post()s to it are rejected. Returns
  /// immediately (the strand's bookkeeping is reclaimed once its running
  /// tasks drain).
  void ReleaseStrand(StrandId strand);

  /// Enqueues a task. Returns false (task not run, destroyed) after
  /// Shutdown() or onto a released strand.
  bool Post(Task task) { return Post(kPool, std::move(task)); }
  bool Post(StrandId strand, Task task);

  /// One-shot timer: runs `task` on the pool after `delay_ns`. Returns 0 if
  /// rejected (shutdown).
  TimerId ScheduleAfter(int64_t delay_ns, Task task);

  /// Repeating timer with fixed delay between the end of one firing and the
  /// start of the next. Returns 0 if rejected (shutdown).
  TimerId ScheduleEvery(int64_t period_ns, Task task);

  /// Cancels a timer and waits for an in-flight firing to finish, so after
  /// return the callback is guaranteed to never run (again) — safe to tear
  /// down state the callback touches. Returns false if the timer was
  /// already done/unknown. Calling it from inside the timer's own callback
  /// marks the timer cancelled without self-deadlocking.
  bool CancelTimer(TimerId id);

  /// Graceful drain: rejects new work, runs everything already queued,
  /// cancels armed timers unfired, joins all workers. Idempotent. Must not
  /// be called from a pool task.
  void Shutdown();

  /// Blocking-section entry/exit — prefer ScopedBlocking.
  void EnterBlocking();
  void ExitBlocking();

  // --- introspection (tests, benches) ---
  int workers() const { return core_workers_; }
  int64_t tasks_run() const;
  int64_t spares_spawned() const;
  int threads_alive() const;
  bool shut_down() const;

 private:
  struct Strand {
    std::deque<Task> q;
    int width = 1;
    int running = 0;
    /// Entries for this strand currently in ready_. Invariants:
    /// tickets <= q.size() and tickets + running <= width.
    int tickets = 0;
    bool closed = false;
  };
  struct TimerState {
    std::shared_ptr<const Task> fn;
    int64_t period_ns = 0;  // 0 = one-shot
    enum Phase { kArmed, kQueued, kRunning } phase = kArmed;
    bool cancelled = false;
  };
  struct HeapEntry {
    int64_t deadline_ns;  // steady_clock epoch
    TimerId id;
    bool operator>(const HeapEntry& o) const {
      return deadline_ns > o.deadline_ns;
    }
  };

  void WorkerLoop(bool spare, uint64_t spare_key = 0);
  void TimerLoop();
  void RunTimerCallback(TimerId id);
  bool PostLocked(StrandId strand, Task task);
  void TicketLocked(StrandId sid, Strand& s);
  void MaybeEraseStrandLocked(StrandId sid);
  void EnsureCapacityLocked();
  void SpawnSpareLocked();
  TimerId ArmTimerLocked(int64_t delay_ns, int64_t period_ns, Task task);

  const int core_workers_;
  const uint64_t seed_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;    // workers: ready_ non-empty or stop
  std::condition_variable idle_cv_;    // Shutdown: pool fully drained
  std::condition_variable timer_cv_;   // timer thread: heap changed or stop
  std::condition_variable cancel_cv_;  // CancelTimer: firing finished

  std::unordered_map<StrandId, Strand> strands_;
  std::deque<StrandId> ready_;  // dispatch tickets, FIFO across strands
  StrandId next_strand_ = kPool + 1;
  uint64_t rng_state_;

  std::map<TimerId, TimerState> timers_;
  std::vector<HeapEntry> timer_heap_;  // min-heap on deadline
  TimerId next_timer_ = 1;

  bool stopping_ = false;
  bool joined_ = false;
  int running_total_ = 0;
  int blocked_ = 0;
  int threads_alive_ = 0;
  int idle_workers_ = 0;
  int spares_alive_ = 0;
  int64_t tasks_run_ = 0;
  int64_t spares_spawned_ = 0;

  std::vector<std::thread> core_threads_;
  std::thread timer_thread_;
  /// Spare threads park their handles here when they retire; reaped under
  /// mu_ by the next spawn and by Shutdown.
  std::vector<std::thread> retired_spares_;
  std::unordered_map<uint64_t, std::thread> spare_threads_;
  uint64_t next_spare_ = 1;
};

/// RAII blocking-section mark. No-op on non-pool threads and when already
/// inside a blocking section, so it is always safe to wrap a wait:
///
///   runtime::ScopedBlocking block;
///   cv.wait(lock, ...);  // or sleep_for(...), ...
class ScopedBlocking {
 public:
  ScopedBlocking();
  ~ScopedBlocking();
  ScopedBlocking(const ScopedBlocking&) = delete;
  ScopedBlocking& operator=(const ScopedBlocking&) = delete;

 private:
  Scheduler* entered_ = nullptr;
};

/// \brief Runs the rest of a scope as a task of `sched` on the calling
/// thread, so a caller can do work itself instead of posting it and waiting
/// for a worker. It touches no scheduler state: the code that runs inline
/// keeps its own width and order (Network's endpoints do). While it lives,
/// CurrentScheduler() is `sched`. A thread that is not one of `sched`'s
/// workers runs as a guest: it is not pool capacity, so its blocking
/// sections are no-ops. A worker of a different scheduler must not run
/// `sched`'s work inline (Allowed() is false) and posts it instead. Inline
/// runs do not count in tasks_run().
///
///   if (InlineTask::Allowed(sched)) {
///     InlineTask task(sched);
///     RunTheWork();
///   }
class InlineTask {
 public:
  static bool Allowed(const Scheduler* sched);

  explicit InlineTask(Scheduler* sched);
  ~InlineTask();
  InlineTask(const InlineTask&) = delete;
  InlineTask& operator=(const InlineTask&) = delete;

 private:
  bool guest_ = false;
};

/// The scheduler whose pool (or InlineTask) is executing the current
/// thread's task, or null on other threads. Lets deep callees (e.g. the
/// fault injector firing an async crash) run follow-on work on the same
/// runtime without plumbing.
Scheduler* CurrentScheduler();

/// Runs `fns` in parallel on `sched` and returns their statuses in order:
/// fns[0] runs inline on the caller, the rest are posted to the pool, and
/// the caller's wait is a blocking section. Falls back to fully-inline,
/// sequential execution when `sched` is null or shutting down, so callers
/// never lose work. Safe to nest (tasks may themselves call RunParallel).
std::vector<Status> RunParallel(Scheduler* sched,
                                std::vector<std::function<Status()>> fns);

}  // namespace harbor::runtime

#endif  // HARBOR_RUNTIME_SCHEDULER_H_
