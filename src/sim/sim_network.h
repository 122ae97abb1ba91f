#ifndef HARBOR_SIM_SIM_NETWORK_H_
#define HARBOR_SIM_SIM_NETWORK_H_

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/types.h"
#include "obs/observer.h"
#include "sim/sim_config.h"
#include "sim/sim_device.h"

namespace harbor {

/// \brief Cost model for the cluster LAN.
///
/// Each message pays a fixed one-way propagation latency (not serialized —
/// many messages can be in flight) plus a bandwidth charge serialized on the
/// *sending* site's NIC/stack. The bandwidth term is what makes large
/// recovery transfers (Phase 2 streaming thousands of tuples, §6.4) take
/// time, and the per-sender serialization is what lets *parallel* recovery
/// from two different buddies overlap transfers — "the recovery buddies can
/// overlap the network costs of sending tuples, and the recovering site
/// essentially receives two tuples in the time to send one" (§6.4.1).
class SimNetwork {
 public:
  /// Each message is counted against its sender's site in `observer`.
  SimNetwork(const SimConfig& config, obs::Observer& observer)
      : config_(config), observer_(observer) {}

  /// Charges the delivery of `bytes` from site `from`, blocking the calling
  /// thread for the modelled duration.
  void ChargeMessage(SiteId from, int64_t bytes) {
    obs::Metrics& m = observer_.MetricsFor(from);
    m.counter(obs::CounterId::kNetMessagesSent).Add();
    m.counter(obs::CounterId::kNetBytesSent).Add(bytes);
    if (!config_.enable_latency) return;
    Nic(from).Charge(bytes * 1'000'000'000 /
                     config_.net_bandwidth_bytes_per_sec);
    // Propagation latency is unserialized: sleep outside the NIC queue.
    SimSleepNanos(config_.net_latency_ns);
  }

  const SimConfig& config() const { return config_; }

 private:
  SimDevice& Nic(SiteId site) {
    std::lock_guard<std::mutex> lock(mu_);
    auto& nic = nics_[site];
    if (!nic) {
      nic = std::make_unique<SimDevice>("nic-" + std::to_string(site),
                                        config_.enable_latency);
    }
    return *nic;
  }

  const SimConfig config_;
  obs::Observer& observer_;
  std::mutex mu_;
  std::unordered_map<SiteId, std::unique_ptr<SimDevice>> nics_;
};

}  // namespace harbor

#endif  // HARBOR_SIM_SIM_NETWORK_H_
