// Unit tests for the simulation substrate: device queueing, disk cost
// accounting, network charging, and the CPU model.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <thread>

#include "common/clock.h"
#include "sim/sim_cpu.h"
#include "sim/sim_device.h"
#include "sim/sim_disk.h"
#include "sim/sim_network.h"
#include "tests/test_util.h"

namespace harbor {
namespace {

TEST(SimDeviceTest, ChargeBlocksForCost) {
  SimDevice dev("d", /*enable_latency=*/true);
  Stopwatch w;
  dev.Charge(3'000'000);  // 3 ms
  EXPECT_GE(w.ElapsedNanos(), 3'000'000);
  EXPECT_EQ(dev.total_cost_ns(), 3'000'000);
}

TEST(SimDeviceTest, DisabledLatencyOnlyAccounts) {
  SimDevice dev("d", /*enable_latency=*/false);
  Stopwatch w;
  dev.Charge(50'000'000);
  EXPECT_LT(w.ElapsedMillis(), 5.0);
  EXPECT_EQ(dev.total_cost_ns(), 50'000'000);
}

TEST(SimDeviceTest, ConcurrentChargesSerialize) {
  // A single-server queue: two concurrent 5 ms charges take ~10 ms total.
  SimDevice dev("d", true);
  Stopwatch w;
  std::thread a([&] { dev.Charge(5'000'000); });
  std::thread b([&] { dev.Charge(5'000'000); });
  a.join();
  b.join();
  EXPECT_GE(w.ElapsedNanos(), 9'000'000);
}

TEST(SimDiskTest, CostModelShapes) {
  SimConfig cfg;
  cfg.enable_latency = false;
  obs::Metrics m;
  SimDisk disk("d", cfg, m);
  disk.ChargeSequentialRead(4096);
  disk.ChargeRandomRead(4096);
  disk.ChargeWrite(4096);
  disk.ChargeForcedWrite(100);
  EXPECT_EQ(m.counter(obs::CounterId::kDiskReads).value(), 2);
  EXPECT_EQ(m.counter(obs::CounterId::kDiskWrites).value(), 1);
  EXPECT_EQ(m.counter(obs::CounterId::kDiskForcedWrites).value(), 1);
  EXPECT_EQ(m.histogram(obs::HistogramId::kDiskForceNs).count(), 1);
  // Forced write dominates: it includes the seek+rotation latency.
  EXPECT_GT(disk.total_busy_ns(), cfg.disk_force_latency_ns);
}

TEST(SimDiskTest, ForcedWriteCostsMoreThanSequential) {
  SimConfig cfg;  // latencies on
  obs::Metrics m;
  SimDisk disk("d", cfg, m);
  // Minimum over a few trials: a deschedule between starting the stopwatch
  // and finishing the charge inflates one wall-clock sample arbitrarily
  // when the test box is loaded (ctest -j), but cannot deflate it below
  // the modeled sleep.
  int64_t seq = std::numeric_limits<int64_t>::max();
  int64_t forced = std::numeric_limits<int64_t>::max();
  for (int i = 0; i < 3; ++i) {
    Stopwatch w1;
    disk.ChargeSequentialRead(4096);
    seq = std::min(seq, w1.ElapsedNanos());
    Stopwatch w2;
    disk.ChargeForcedWrite(4096);
    forced = std::min(forced, w2.ElapsedNanos());
  }
  EXPECT_GT(forced, seq * 5);
}

TEST(SimNetworkTest, CountsMessagesAndBytes) {
  SimConfig cfg = SimConfig::Zero();
  obs::Observer o;
  SimNetwork net(cfg, o);
  net.ChargeMessage(1, 100);
  net.ChargeMessage(2, 400);
  net.ChargeMessage(2, 100);
  // Each message is charged to its sender.
  EXPECT_EQ(o.Total(obs::CounterId::kNetMessagesSent), 3);
  EXPECT_EQ(o.Total(obs::CounterId::kNetBytesSent), 600);
  EXPECT_EQ(o.MetricsFor(2).counter(obs::CounterId::kNetMessagesSent).value(),
            2);
  EXPECT_EQ(o.MetricsFor(1).counter(obs::CounterId::kNetBytesSent).value(),
            100);
}

TEST(SimNetworkTest, SendersSerializeIndependently) {
  // Two senders transfer concurrently on separate NICs: total time is one
  // transfer, not two (the parallel-recovery property, §6.4.1).
  SimConfig cfg;
  cfg.net_latency_ns = 0;
  cfg.net_bandwidth_bytes_per_sec = 1'000'000;  // 1 MB/s: 5 ms per 5 KB
  obs::Observer o;
  SimNetwork net(cfg, o);
  // Overlapped, not 10 ms. The 9 ms bound leaves ~4 ms of scheduler
  // headroom, which a loaded test box (ctest -j) can eat; keep the best of
  // a few attempts, since contention only ever inflates the measurement.
  int64_t best = std::numeric_limits<int64_t>::max();
  for (int attempt = 0; attempt < 3 && best >= 9'000'000; ++attempt) {
    Stopwatch w;
    std::thread a([&] { net.ChargeMessage(1, 5000); });
    std::thread b([&] { net.ChargeMessage(2, 5000); });
    a.join();
    b.join();
    best = std::min(best, w.ElapsedNanos());
  }
  EXPECT_LT(best, 9'000'000);
  // Same sender: serialized.
  Stopwatch w2;
  std::thread c([&] { net.ChargeMessage(1, 5000); });
  std::thread d([&] { net.ChargeMessage(1, 5000); });
  c.join();
  d.join();
  EXPECT_GE(w2.ElapsedNanos(), 9'000'000);
}

TEST(SimCpuTest, WorkSerializesOnOneProcessor) {
  SimConfig cfg;
  cfg.ns_per_cpu_cycle = 1.0;
  SimCpu cpu(cfg);
  Stopwatch w;
  std::thread a([&] { cpu.DoWork(4'000'000); });  // 4 ms each
  std::thread b([&] { cpu.DoWork(4'000'000); });
  a.join();
  b.join();
  // §6.3.2: "a worker site cannot overlap the CPU work of concurrent
  // transactions".
  EXPECT_GE(w.ElapsedNanos(), 7'000'000);
  EXPECT_EQ(cpu.total_cycles(), 8'000'000);
}

TEST(SimCpuTest, ZeroConfigNeverSleeps) {
  SimCpu cpu(SimConfig::Zero());
  Stopwatch w;
  cpu.DoWork(1'000'000'000);
  EXPECT_LT(w.ElapsedMillis(), 5.0);
}

}  // namespace
}  // namespace harbor
