#ifndef HARBOR_SIM_SIM_DEVICE_H_
#define HARBOR_SIM_SIM_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

namespace harbor {

/// \brief A single-server queueing model of a serial hardware resource (a
/// disk head, a NIC).
///
/// Each operation reserves a [start, end) interval on the device's virtual
/// timeline (anchored to the real monotonic clock) and then sleeps until its
/// end time. Because intervals never overlap, concurrent callers queue up
/// exactly as requests would queue at a real device: under contention the
/// device becomes the bottleneck and per-caller latency grows — this is what
/// makes the "disk-bound" plateaus of Figure 6-2 emerge naturally, and what
/// lets group commit win by folding many commits into a single reservation.
class SimDevice {
 public:
  explicit SimDevice(std::string name, bool enable_latency = true)
      : name_(std::move(name)), enable_latency_(enable_latency) {}

  SimDevice(const SimDevice&) = delete;
  SimDevice& operator=(const SimDevice&) = delete;

  /// Reserves `cost_ns` of device time and blocks the caller until the
  /// reserved interval has elapsed. Returns the caller-observed latency in
  /// nanoseconds (queueing delay + service time).
  int64_t Charge(int64_t cost_ns);

  /// Accounts an operation without sleeping (used when enable_latency is
  /// false, and for statistics-only costs).
  void Account(int64_t cost_ns) {
    total_cost_ns_.fetch_add(cost_ns, std::memory_order_relaxed);
  }

  /// Total device time consumed so far (ns), regardless of latency mode.
  int64_t total_cost_ns() const {
    return total_cost_ns_.load(std::memory_order_relaxed);
  }

  const std::string& name() const { return name_; }
  bool latency_enabled() const { return enable_latency_; }

 private:
  const std::string name_;
  const bool enable_latency_;
  std::mutex mu_;
  int64_t next_free_ns_ = 0;  // guarded by mu_; virtual timeline anchor
  std::atomic<int64_t> total_cost_ns_{0};
};

/// Sleeps the calling thread for `ns` nanoseconds inside a blocking section
/// (it never spins, so short sleeps may overshoot by the OS scheduler's
/// granularity). Used for costs that do not serialize on any device, e.g.
/// network propagation latency.
void SimSleepNanos(int64_t ns);

}  // namespace harbor

#endif  // HARBOR_SIM_SIM_DEVICE_H_
