#include "runtime/scheduler.h"

#include <algorithm>
#include <chrono>
#include <climits>

namespace harbor::runtime {

namespace {

/// The scheduler owning the current pool thread (workers and spares), the
/// nesting guard for blocking sections, and the timer a wrapper is firing
/// (for self-cancel detection).
thread_local Scheduler* t_scheduler = nullptr;
thread_local bool t_blocking = false;
thread_local TimerId t_firing_timer = 0;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::chrono::steady_clock::time_point TimePointOf(int64_t ns) {
  return std::chrono::steady_clock::time_point(std::chrono::nanoseconds(ns));
}

}  // namespace

Scheduler::Scheduler(Options options)
    : core_workers_(options.workers > 0
                        ? options.workers
                        : static_cast<int>(std::max(
                              8u, std::thread::hardware_concurrency()))),
      max_spares_(std::max(1, options.max_spares)),
      seed_(options.seed),
      rng_state_(options.seed != 0 ? options.seed : 1) {
  Strand pool;
  pool.width = INT_MAX;
  strands_.emplace(kPool, std::move(pool));
  threads_alive_ = core_workers_;
  core_threads_.reserve(core_workers_);
  for (int i = 0; i < core_workers_; ++i) {
    core_threads_.emplace_back([this] { WorkerLoop(/*spare=*/false); });
  }
  timer_thread_ = std::thread([this] { TimerLoop(); });
}

Scheduler::~Scheduler() { Shutdown(); }

StrandId Scheduler::CreateStrand(int width) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) return 0;
  StrandId sid = next_strand_++;
  Strand s;
  s.width = std::max(1, width);
  strands_.emplace(sid, std::move(s));
  return sid;
}

void Scheduler::ReleaseStrand(StrandId strand) {
  if (strand == kPool) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = strands_.find(strand);
  if (it == strands_.end()) return;
  it->second.closed = true;
  it->second.q.clear();  // queued-but-unstarted tasks are discarded
  MaybeEraseStrandLocked(strand);
}

bool Scheduler::Post(StrandId strand, Task task) {
  std::lock_guard<std::mutex> lock(mu_);
  return PostLocked(strand, std::move(task));
}

bool Scheduler::PostLocked(StrandId strand, Task task) {
  if (stopping_) return false;
  auto it = strands_.find(strand);
  if (it == strands_.end() || it->second.closed) return false;
  Strand& s = it->second;
  s.q.push_back(std::move(task));
  TicketLocked(strand, s);
  EnsureCapacityLocked();
  return true;
}

void Scheduler::TicketLocked(StrandId sid, Strand& s) {
  if (s.closed) return;
  if (s.tickets + s.running >= s.width) return;
  if (s.tickets >= static_cast<int>(s.q.size())) return;
  s.tickets++;
  ready_.push_back(sid);
  work_cv_.notify_one();
}

void Scheduler::MaybeEraseStrandLocked(StrandId sid) {
  auto it = strands_.find(sid);
  if (it == strands_.end()) return;
  const Strand& s = it->second;
  if (s.closed && s.running == 0 && s.tickets == 0) strands_.erase(it);
}

void Scheduler::EnsureCapacityLocked() {
  if (ready_.empty()) return;
  const int unblocked = threads_alive_ - blocked_;
  if (unblocked >= core_workers_) return;
  // The cap is soft at the floor: when every thread is blocked, queued work
  // could include the very task a blocked one waits on, so a spare is
  // always granted (dependency waits must not deadlock).
  if (spares_alive_ >= max_spares_ && unblocked > 0) return;
  SpawnSpareLocked();
}

void Scheduler::SpawnSpareLocked() {
  // Reap handles of already-retired spares so blocking storms don't
  // accumulate dead threads. The owners are past their unlock; join is
  // effectively immediate.
  for (std::thread& t : retired_spares_) {
    if (t.joinable()) t.join();
  }
  retired_spares_.clear();
  const uint64_t key = next_spare_++;
  spares_alive_++;
  threads_alive_++;
  spares_spawned_++;
  spare_threads_[key] =
      std::thread([this, key] { WorkerLoop(/*spare=*/true, key); });
}

void Scheduler::WorkerLoop(bool spare, uint64_t spare_key) {
  t_scheduler = this;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    bool exiting = false;
    while (ready_.empty()) {
      if (stopping_ && running_total_ == 0) {
        exiting = true;
        break;
      }
      if (spare && !stopping_ && threads_alive_ - blocked_ > core_workers_) {
        exiting = true;  // over-provisioned again: retire
        break;
      }
      idle_workers_++;
      if (spare) {
        work_cv_.wait_for(lock, std::chrono::milliseconds(20));
      } else {
        work_cv_.wait(lock);
      }
      idle_workers_--;
    }
    if (exiting) break;

    size_t idx = 0;
    if (seed_ != 0 && ready_.size() > 1) {
      rng_state_ ^= rng_state_ << 13;
      rng_state_ ^= rng_state_ >> 7;
      rng_state_ ^= rng_state_ << 17;
      idx = static_cast<size_t>(rng_state_ % ready_.size());
    }
    const StrandId sid = ready_[idx];
    ready_.erase(ready_.begin() + static_cast<long>(idx));
    auto it = strands_.find(sid);
    if (it == strands_.end()) continue;  // released with tickets outstanding
    Strand& s = it->second;
    s.tickets--;
    if (s.q.empty()) {  // released: queue cleared under our ticket
      MaybeEraseStrandLocked(sid);
      continue;
    }
    Task task = std::move(s.q.front());
    s.q.pop_front();
    s.running++;
    running_total_++;
    lock.unlock();

    task();
    task = nullptr;  // drop closure state before re-locking

    lock.lock();
    tasks_run_++;
    running_total_--;
    auto it2 = strands_.find(sid);
    if (it2 != strands_.end()) {
      it2->second.running--;
      TicketLocked(sid, it2->second);
      MaybeEraseStrandLocked(sid);
    }
    if (stopping_ && running_total_ == 0 && ready_.empty()) {
      work_cv_.notify_all();
      idle_cv_.notify_all();
    }
  }
  threads_alive_--;
  if (spare) {
    spares_alive_--;
    auto it = spare_threads_.find(spare_key);
    if (it != spare_threads_.end()) {
      retired_spares_.push_back(std::move(it->second));
      spare_threads_.erase(it);
    }
    idle_cv_.notify_all();
  }
  t_scheduler = nullptr;
}

// ------------------------------------------------------------------ timers

TimerId Scheduler::ScheduleAfter(int64_t delay_ns, Task task) {
  std::lock_guard<std::mutex> lock(mu_);
  return ArmTimerLocked(delay_ns, /*period_ns=*/0, std::move(task));
}

TimerId Scheduler::ScheduleEvery(int64_t period_ns, Task task) {
  std::lock_guard<std::mutex> lock(mu_);
  period_ns = std::max<int64_t>(1, period_ns);
  return ArmTimerLocked(period_ns, period_ns, std::move(task));
}

TimerId Scheduler::ArmTimerLocked(int64_t delay_ns, int64_t period_ns,
                                  Task task) {
  if (stopping_) return 0;
  const TimerId id = next_timer_++;
  TimerState st;
  st.fn = std::make_shared<const Task>(std::move(task));
  st.period_ns = period_ns;
  timers_.emplace(id, std::move(st));
  timer_heap_.push_back({NowNs() + std::max<int64_t>(0, delay_ns), id});
  std::push_heap(timer_heap_.begin(), timer_heap_.end(), std::greater<>());
  timer_cv_.notify_all();
  return id;
}

bool Scheduler::CancelTimer(TimerId id) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = timers_.find(id);
  if (it == timers_.end()) return false;
  it->second.cancelled = true;
  if (it->second.phase == TimerState::kArmed) {
    timers_.erase(it);  // heap entry turns stale; the timer loop skips it
    timer_cv_.notify_all();
    cancel_cv_.notify_all();
    return true;
  }
  if (t_firing_timer == id) return true;  // self-cancel from the callback
  // Queued or running: wait out the firing so the callback can never touch
  // caller state after we return. The wrapper may be queued behind us on a
  // saturated pool, hence the blocking section.
  lock.unlock();
  {
    ScopedBlocking block;
    lock.lock();
    cancel_cv_.wait(lock, [&] { return timers_.find(id) == timers_.end(); });
    lock.unlock();
  }
  return true;
}

void Scheduler::TimerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    while (!timer_heap_.empty() &&
           timers_.find(timer_heap_.front().id) == timers_.end()) {
      std::pop_heap(timer_heap_.begin(), timer_heap_.end(), std::greater<>());
      timer_heap_.pop_back();  // stale: cancelled while armed
    }
    if (stopping_) return;
    if (timer_heap_.empty()) {
      timer_cv_.wait(lock);
      continue;
    }
    const int64_t deadline = timer_heap_.front().deadline_ns;
    if (deadline > NowNs()) {
      timer_cv_.wait_until(lock, TimePointOf(deadline));
      continue;
    }
    const TimerId id = timer_heap_.front().id;
    std::pop_heap(timer_heap_.begin(), timer_heap_.end(), std::greater<>());
    timer_heap_.pop_back();
    auto it = timers_.find(id);
    if (it == timers_.end()) continue;
    it->second.phase = TimerState::kQueued;
    PostLocked(kPool, [this, id] { RunTimerCallback(id); });
  }
}

void Scheduler::RunTimerCallback(TimerId id) {
  std::shared_ptr<const Task> fn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = timers_.find(id);
    if (it == timers_.end()) return;
    if (it->second.cancelled) {
      timers_.erase(it);
      cancel_cv_.notify_all();
      return;
    }
    it->second.phase = TimerState::kRunning;
    fn = it->second.fn;
  }
  t_firing_timer = id;
  (*fn)();
  t_firing_timer = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = timers_.find(id);
    if (it != timers_.end()) {
      TimerState& st = it->second;
      if (st.period_ns > 0 && !st.cancelled && !stopping_) {
        st.phase = TimerState::kArmed;  // fixed delay between firings
        timer_heap_.push_back({NowNs() + st.period_ns, id});
        std::push_heap(timer_heap_.begin(), timer_heap_.end(),
                       std::greater<>());
        timer_cv_.notify_all();
      } else {
        timers_.erase(it);
      }
    }
    cancel_cv_.notify_all();
  }
}

// ---------------------------------------------------------------- lifecycle

void Scheduler::Shutdown() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (stopping_) {
      // A concurrent or repeated Shutdown: wait for the first caller.
      idle_cv_.wait(lock, [&] { return joined_; });
      return;
    }
    stopping_ = true;
    // Armed timers are cancelled unfired; queued/running firings clean
    // themselves up in the wrapper.
    for (auto it = timers_.begin(); it != timers_.end();) {
      it = it->second.phase == TimerState::kArmed ? timers_.erase(it)
                                                  : std::next(it);
    }
  }
  work_cv_.notify_all();
  timer_cv_.notify_all();
  cancel_cv_.notify_all();
  if (timer_thread_.joinable()) timer_thread_.join();
  for (std::thread& t : core_threads_) {
    if (t.joinable()) t.join();
  }
  std::vector<std::thread> spares;
  {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [&] { return spares_alive_ == 0; });
    spares.swap(retired_spares_);
    joined_ = true;
    idle_cv_.notify_all();
  }
  for (std::thread& t : spares) {
    if (t.joinable()) t.join();
  }
}

void Scheduler::EnterBlocking() {
  std::lock_guard<std::mutex> lock(mu_);
  blocked_++;
  EnsureCapacityLocked();
}

void Scheduler::ExitBlocking() {
  std::lock_guard<std::mutex> lock(mu_);
  blocked_--;
}

int64_t Scheduler::tasks_run() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tasks_run_;
}

int64_t Scheduler::spares_spawned() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spares_spawned_;
}

int Scheduler::threads_alive() const {
  std::lock_guard<std::mutex> lock(mu_);
  return threads_alive_;
}

bool Scheduler::shut_down() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stopping_;
}

// ------------------------------------------------------- blocking sections

ScopedBlocking::ScopedBlocking() {
  if (t_scheduler == nullptr || t_blocking) return;
  t_blocking = true;
  entered_ = t_scheduler;
  entered_->EnterBlocking();
}

ScopedBlocking::~ScopedBlocking() {
  if (entered_ == nullptr) return;
  entered_->ExitBlocking();
  t_blocking = false;
}

Scheduler* CurrentScheduler() { return t_scheduler; }

// ------------------------------------------------------------- InlineTask

bool InlineTask::Allowed(const Scheduler* sched) {
  return t_scheduler == nullptr || t_scheduler == sched;
}

InlineTask::InlineTask(Scheduler* sched) {
  if (t_scheduler != nullptr) return;  // already one of sched's workers
  // A guest is no pool capacity: marking it as already blocking turns its
  // ScopedBlocking sections into no-ops.
  guest_ = true;
  t_scheduler = sched;
  t_blocking = true;
}

InlineTask::~InlineTask() {
  if (!guest_) return;
  t_scheduler = nullptr;
  t_blocking = false;
}

// ------------------------------------------------------------- RunParallel

std::vector<Status> RunParallel(Scheduler* sched,
                                std::vector<std::function<Status()>> fns) {
  std::vector<Status> results(fns.size(), Status::OK());
  if (fns.empty()) return results;
  struct Sync {
    std::mutex mu;
    std::condition_variable cv;
    size_t remaining = 0;
  };
  auto sync = std::make_shared<Sync>();
  sync->remaining = fns.size() - 1;
  for (size_t i = 1; i < fns.size(); ++i) {
    auto run_one = [&results, i, fn = std::move(fns[i]), sync] {
      results[i] = fn();
      std::lock_guard<std::mutex> lock(sync->mu);
      if (--sync->remaining == 0) sync->cv.notify_all();
    };
    if (sched == nullptr || !sched->Post(run_one)) {
      run_one();  // rejected (shutdown): run it here — never lose work
    }
  }
  results[0] = fns[0]();
  if (fns.size() > 1) {  // a lone fn posted nothing to wait for
    ScopedBlocking block;
    std::unique_lock<std::mutex> lock(sync->mu);
    sync->cv.wait(lock, [&] { return sync->remaining == 0; });
  }
  return results;
}

}  // namespace harbor::runtime
