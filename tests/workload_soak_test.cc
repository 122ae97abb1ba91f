// Soak-smoke: the open-loop workload driver end to end, small population /
// short horizon. One run forces a mid-soak site crash + recovery with no
// chaos; four more run distinct seeded chaos schedules on top. Every run
// must settle into a state the serial reference model accepts (no lost or
// duplicated committed rows), with zero statement-level errors and zero
// stalled snapshot reads — lock-free reads must not wait on recovery.

#include <gtest/gtest.h>

#include <string>

#include "tests/test_util.h"
#include "workload/driver.h"

namespace harbor {
namespace {

using workload::OpKind;
using workload::SoakOptions;
using workload::SoakReport;
using workload::WorkloadDriver;

SoakOptions SmokeOptions(uint64_t seed_salt) {
  SoakOptions opt;
  opt.seed = test::MixSeed(9000 + seed_salt);
  opt.mixes = {workload::TrickleUpdateMix(4, 150.0),
               workload::ScanHeavyMix(2, 80.0)};
  opt.duration_ms = 300;
  opt.preload_rows = 128;
  opt.forced_recoveries = 1;
  return opt;
}

void CheckInvariants(const SoakReport& report) {
  EXPECT_TRUE(report.diff_ok) << report.diff_error << "\n" << report.ToJson();
  for (size_t k = 0; k < workload::kOpKindCount; ++k) {
    EXPECT_EQ(report.ops[k].errors, 0)
        << workload::OpKindName(static_cast<OpKind>(k)) << "\n"
        << report.ToJson();
  }
  // The lock-free read SLO: no snapshot scan stalled past
  // max(10 x p99, floor) — recovery ran mid-soak and must not block them.
  const auto& snap = report.ops[static_cast<size_t>(OpKind::kSnapshotScan)];
  EXPECT_GT(snap.attempts, 0);
  EXPECT_EQ(snap.stalled, 0) << report.ToJson();
}

TEST(WorkloadSoakTest, MixedPopulationWithForcedRecovery) {
  WorkloadDriver driver(SmokeOptions(0));
  ASSERT_OK_AND_ASSIGN(SoakReport report, driver.Run());
  CheckInvariants(report);
  // The forced crash+recover cycle completed during the soak.
  EXPECT_EQ(report.recoveries, 1) << report.ToJson();
  EXPECT_GT(report.recovery_max_ns, 0);
  // DML flowed and committed.
  const auto& ins = report.ops[static_cast<size_t>(OpKind::kInsert)];
  EXPECT_GT(ins.committed, 0);
  EXPECT_GT(report.rows_checked, 0);
}

// Four distinct seeded chaos schedules riding on top of the forced
// mid-soak crash+recovery: worker crashes at commit-pipeline points, a
// coordinator crash (3PC: survivors settle by consensus), distribution
// drops, and message delay/duplication storms.
struct ChaosCase {
  const char* name;
  const char* schedule;
};

class WorkloadSoakChaosTest : public ::testing::TestWithParam<ChaosCase> {};

TEST_P(WorkloadSoakChaosTest, DifferentialCheckSurvivesChaosUnderLoad) {
  SoakOptions opt = SmokeOptions(1 + GetParam().schedule[5] % 97);
  opt.chaos = GetParam().schedule;
  SCOPED_TRACE(std::string("schedule=\"") + opt.chaos + "\"");
  WorkloadDriver driver(opt);
  ASSERT_OK_AND_ASSIGN(SoakReport report, driver.Run());
  CheckInvariants(report);
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, WorkloadSoakChaosTest,
    ::testing::Values(
        ChaosCase{"worker_commit_crash",
                  "seed=11;point=worker.commit,site=1,hit=5,action=crash"},
        ChaosCase{"coordinator_crash",
                  "seed=12;point=coordinator.after_prepare,site=0,hit=8,"
                  "action=crash"},
        ChaosCase{"distribution_drops",
                  "seed=13;link=0->*,type=1,action=drop,p=0.2,max=3;"
                  "point=worker.prepare,site=2,hit=6,action=delay,ms=3"},
        ChaosCase{"apply_crash_with_delays",
                  "seed=14;point=worker.commit.after_apply,site=3,hit=10,"
                  "action=crash;link=*->*,action=delay,p=0.15,ms=2,max=6"}),
    [](const ::testing::TestParamInfo<ChaosCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace harbor
