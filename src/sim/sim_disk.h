#ifndef HARBOR_SIM_SIM_DISK_H_
#define HARBOR_SIM_SIM_DISK_H_

#include <cstdint>
#include <string>

#include "common/types.h"
#include "obs/metrics.h"
#include "sim/sim_config.h"
#include "sim/sim_device.h"

namespace harbor {

/// \brief Cost model for one physical disk.
///
/// The storage engine performs *real* file I/O for durability semantics; this
/// class layers the paper-era performance model on top: sequential transfers
/// are charged at the configured bandwidth, random accesses and forced
/// (synchronous) writes additionally pay a seek/rotational latency, and all
/// charges serialize on the single disk head (see SimDevice).
///
/// A site has two SimDisk instances when logging is enabled — the paper's
/// systems dedicate a separate disk to the log so that sequential log forces
/// do not seek against data-page traffic (§1.2, §6.2).
class SimDisk {
 public:
  /// Every charge is counted in `metrics`, the owning site's registry.
  SimDisk(std::string name, const SimConfig& config, obs::Metrics& metrics)
      : config_(config),
        device_(std::move(name), config.enable_latency),
        metrics_(metrics) {}

  /// Charges a sequential read of `bytes` (e.g. a segment scan).
  void ChargeSequentialRead(int64_t bytes) {
    device_.Charge(TransferCost(bytes));
    metrics_.counter(obs::CounterId::kDiskReads).Add();
  }

  /// Charges a random page read (seek + transfer), e.g. a buffer-pool miss
  /// on a point access.
  void ChargeRandomRead(int64_t bytes) {
    device_.Charge(config_.disk_random_latency_ns + TransferCost(bytes));
    metrics_.counter(obs::CounterId::kDiskReads).Add();
  }

  /// Charges an asynchronous (non-forced) write: transfer cost only, the OS
  /// is assumed to schedule it.
  void ChargeWrite(int64_t bytes) {
    device_.Charge(TransferCost(bytes));
    metrics_.counter(obs::CounterId::kDiskWrites).Add();
  }

  /// Charges a synchronous forced write: full seek + rotational latency plus
  /// the transfer. This is the expensive operation that HARBOR's optimized
  /// commit protocols eliminate. Group commit amortizes it by issuing a
  /// single ChargeForcedWrite for a whole batch of log records.
  void ChargeForcedWrite(int64_t bytes) {
    const int64_t cost = config_.disk_force_latency_ns + TransferCost(bytes);
    device_.Charge(cost);
    metrics_.counter(obs::CounterId::kDiskForcedWrites).Add();
    metrics_.histogram(obs::HistogramId::kDiskForceNs).Record(cost);
  }

  int64_t total_busy_ns() const { return device_.total_cost_ns(); }

  const SimConfig& config() const { return config_; }

 private:
  int64_t TransferCost(int64_t bytes) const {
    return bytes * 1'000'000'000 / config_.disk_bandwidth_bytes_per_sec;
  }

  const SimConfig config_;
  SimDevice device_;
  obs::Metrics& metrics_;
};

}  // namespace harbor

#endif  // HARBOR_SIM_SIM_DISK_H_
