#include "sim/sim_device.h"

#include <chrono>
#include <thread>

#include "common/clock.h"
#include "runtime/scheduler.h"

namespace harbor {
namespace {

// Sleeps until `deadline_ns` on the NowNanos() clock.
void WaitUntilNanos(int64_t deadline_ns) {
  // Sleep, never spin: on small hosts a spinning waiter starves the threads
  // doing real work, distorting every concurrency experiment. The scheduler
  // may overshoot short sleeps by tens of microseconds; that error is far
  // below the millisecond-scale simulated costs and applies to every
  // protocol equally.
  //
  // A simulated device hold is a blocking section: a pool task sleeping out
  // a charge must not starve the shared executor.
  runtime::ScopedBlocking block;
  int64_t now = NowNanos();
  while (now < deadline_ns) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
    now = NowNanos();
  }
}

}  // namespace

void SimSleepNanos(int64_t ns) {
  if (ns > 0) WaitUntilNanos(NowNanos() + ns);
}

int64_t SimDevice::Charge(int64_t cost_ns) {
  Account(cost_ns);
  if (!enable_latency_ || cost_ns <= 0) return 0;

  const int64_t now = NowNanos();
  int64_t end;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const int64_t start = next_free_ns_ > now ? next_free_ns_ : now;
    end = start + cost_ns;
    next_free_ns_ = end;
  }
  WaitUntilNanos(end);
  return end - now;
}

}  // namespace harbor
