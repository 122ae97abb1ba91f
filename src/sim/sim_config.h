#ifndef HARBOR_SIM_SIM_CONFIG_H_
#define HARBOR_SIM_SIM_CONFIG_H_

#include <cstdint>

namespace harbor {

/// \brief Cost-model parameters for the simulated hardware substrate.
///
/// The paper's evaluation ran on 3 GHz Pentium IV nodes with a 60 MB/s data
/// disk (plus a separate log disk), an 85 Mb/s LAN, and ~5-6 ms forced log
/// writes (§6.2). The experiments' *shapes* depend on the ordering
///   disk force-write >> network message >> in-memory operation,
/// not on absolute values, so the defaults below reproduce the paper's cost
/// ratios at 1/2 wall-clock scale (everything 2x faster). The scale is
/// chosen so the simulated costs dominate the host's real per-operation CPU
/// overhead (~0.1 ms/transaction) the way 2006 disks dominated 2006 CPUs,
/// while keeping benchmark runtimes reasonable. Setting every latency to
/// zero (see Zero()) turns the substrate into a pure functional model for
/// unit tests.
struct SimConfig {
  /// Seek + rotational latency charged for each synchronous (forced) disk
  /// write, e.g. a forced log record. Paper: ~5-6 ms; default 1/2 scale.
  int64_t disk_force_latency_ns = 2'750'000;

  /// Latency charged for a random (non-sequential) page read/write.
  int64_t disk_random_latency_ns = 2'000'000;

  /// Sequential disk bandwidth in bytes/second. Paper: 60 MB/s; 2x.
  int64_t disk_bandwidth_bytes_per_sec = 120'000'000;

  /// One-way network message latency (per message, not serialized).
  int64_t net_latency_ns = 75'000;

  /// Network bandwidth in bytes/second, serialized per receiving site.
  /// Paper: 85 Mb/s ~= 10.6 MB/s; 2x.
  int64_t net_bandwidth_bytes_per_sec = 21'000'000;

  /// Wall-clock nanoseconds per simulated CPU cycle (§6.3.2 workloads are
  /// expressed in "millions of cycles"). Paper: 3 GHz => 0.33 ns; 1/2 scale.
  double ns_per_cpu_cycle = 0.167;

  /// If false, Charge* calls account statistics but never sleep; useful for
  /// logic-only tests.
  bool enable_latency = true;

  /// Returns a configuration with all latencies disabled (pure logic mode).
  static SimConfig Zero() {
    SimConfig c;
    c.enable_latency = false;
    return c;
  }

  /// Returns the default scaled-down model of the paper's testbed.
  static SimConfig PaperScaled() { return SimConfig(); }
};

}  // namespace harbor

#endif  // HARBOR_SIM_SIM_CONFIG_H_
