// Soak: the open-loop statement-layer workload driver end to end, with the
// post-run differential check as the pass/fail bar.
//
// A steady-state run is the clean reference; a second run forces one
// mid-soak crash+recovery cycle with no chaos;
// four more runs layer distinct seeded chaos schedules (worker crashes in
// the commit pipeline, a coordinator crash, distribution drops, message
// delay/duplication storms) on top of the same population. Every run must
// settle into a state the serial reference model accepts — no lost or
// duplicated committed rows — and reports open-loop p50/p99/p999 latency
// per operation kind (measured from the scheduled arrival, so queueing
// counts). Results land in BENCH_workload_soak.json.
//
// Env knobs (all optional):
//   HARBOR_SOAK_DURATION_MS  arrival horizon per run (default 3000)
//   HARBOR_SOAK_SEED         base seed (default HARBOR_SEED / 42)
//   HARBOR_SOAK_OUT          output JSON path (default BENCH_workload_soak.json)

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "workload/driver.h"

namespace harbor::bench {
namespace {

using workload::OpKind;
using workload::SoakOptions;
using workload::SoakReport;
using workload::WorkloadDriver;

int64_t EnvInt(const char* name, int64_t fallback) {
  const char* v = std::getenv(name);
  return v ? std::strtoll(v, nullptr, 10) : fallback;
}

struct Case {
  const char* name;
  int recoveries;     // forced mid-soak crash+recovery cycles
  const char* chaos;  // "" = none
};

SoakOptions MakeOptions(uint64_t seed, int64_t duration_ms, int recoveries,
                        const char* chaos) {
  SoakOptions opt;
  opt.seed = seed;
  // Rates chosen to keep the open-loop schedule inside the cluster's
  // service capacity; oversaturating an open-loop harness just measures
  // queue growth. The binding constraint is single-table DML: every
  // insert X-locks the open segment's tail page until commit (strict
  // 2PL), so the 8 trickle sessions convoy on that page and sustain only
  // a few dozen DML/s total. Each session issues from its own strand, so
  // a trickle session stuck in a lock convoy never queues another
  // session's scans behind it.
  opt.mixes = {workload::TrickleUpdateMix(8, 4.0),
               workload::ScanHeavyMix(4, 12.0)};
  opt.duration_ms = duration_ms;
  opt.preload_rows = 256;
  opt.forced_recoveries = recoveries;
  opt.chaos = chaos;
  return opt;
}

void PrintRow(const SoakReport& r) {
  for (size_t k = 0; k < workload::kOpKindCount; ++k) {
    const workload::OpStats& s = r.ops[k];
    if (s.attempts == 0) continue;
    std::printf("  %-16s %7lld ops  p50 %8.3f ms  p99 %8.3f ms  "
                "p999 %8.3f ms  (aborted %lld, unknown %lld, stalled %lld)\n",
                workload::OpKindName(static_cast<OpKind>(k)),
                static_cast<long long>(s.attempts), s.p50_ns / 1e6,
                s.p99_ns / 1e6, s.p999_ns / 1e6,
                static_cast<long long>(s.aborted),
                static_cast<long long>(s.unknown),
                static_cast<long long>(s.stalled));
  }
  std::printf("  recoveries %lld (max %.1f ms), faults fired %lld, "
              "rows checked %lld (+%lld uncertain), diff %s\n",
              static_cast<long long>(r.recoveries), r.recovery_max_ns / 1e6,
              static_cast<long long>(r.faults_fired),
              static_cast<long long>(r.rows_checked),
              static_cast<long long>(r.rows_uncertain),
              r.diff_ok ? "OK" : "FAILED");
}

void Run() {
  const int64_t duration_ms = EnvInt("HARBOR_SOAK_DURATION_MS", 3000);
  const uint64_t seed = static_cast<uint64_t>(
      EnvInt("HARBOR_SOAK_SEED", static_cast<int64_t>(Random::GlobalSeed())));
  const char* out_env = std::getenv("HARBOR_SOAK_OUT");
  const std::string out_path = out_env ? out_env : "BENCH_workload_soak.json";

  // steady_state is the clean reference (no recovery, no chaos);
  // forced_recovery isolates the cost of one mid-soak crash+recovery
  // cycle; the last four are the schedules the soak-smoke test pins.
  const std::vector<Case> cases = {
      {"steady_state", 0, ""},
      {"forced_recovery", 1, ""},
      {"worker_commit_crash", 1,
       "seed=11;point=worker.commit,site=1,hit=5,action=crash"},
      {"coordinator_crash", 1,
       "seed=12;point=coordinator.after_prepare,site=0,hit=8,action=crash"},
      {"distribution_drops", 1,
       "seed=13;link=0->*,type=1,action=drop,p=0.2,max=3;"
       "point=worker.prepare,site=2,hit=6,action=delay,ms=3"},
      {"apply_crash_with_delays", 1,
       "seed=14;point=worker.commit.after_apply,site=3,hit=10,action=crash;"
       "link=*->*,action=delay,p=0.15,ms=2,max=6"},
  };

  std::printf("Workload soak — open-loop mixed population, chaos under "
              "load, differential check\n");
  std::printf("(12 trickle + scan-heavy sessions, %lld ms horizon, "
              "seed %llu)\n\n",
              static_cast<long long>(duration_ms),
              static_cast<unsigned long long>(seed));

  std::string grid;
  for (size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    std::printf("%s%s%s\n", c.name, *c.chaos ? "  " : "", c.chaos);
    WorkloadDriver driver(
        MakeOptions(seed + i, duration_ms, c.recoveries, c.chaos));
    auto report = driver.Run();
    HARBOR_CHECK_OK(report.status());
    PrintRow(*report);
    // The acceptance bar: the surviving state matches the serial reference
    // model under every schedule. Abort the bench on any mismatch.
    HARBOR_CHECK(report->diff_ok);
    if (i > 0) grid.append(",\n    ");
    grid.append("\"").append(c.name).append("\": ").append(report->ToJson());
    std::printf("\n");
  }

  std::string json =
      "{\n"
      "  \"benchmark\": \"bench_workload_soak\",\n"
      "  \"description\": \"Open-loop soak through the statement front-end: "
      "12 sessions (8 trickle-DML at 4 ops/s, 4 scan-heavy at 12 ops/s) "
      "with seeded exponential arrivals over a " +
      std::to_string(duration_ms) +
      " ms horizon, then settle + differential check against each session's "
      "serial reference model. Latencies are open-loop (from the scheduled "
      "arrival, so queueing counts). steady_state is the clean reference; "
      "forced_recovery adds one mid-soak worker crash+recovery cycle, and "
      "the remaining four layer the pinned chaos schedules from "
      "workload_soak_test on top of that cycle. Lock-free snapshot scans "
      "never stall (the SLO bar is max(10 x p99, 100 ms)); DML p99 spikes "
      "to the 100 ms lock timeout only in schedules where a worker crashes "
      "holding page locks, and a commit interrupted by the coordinator "
      "crash schedule surfaces as aborted/unknown, never as silent loss — "
      "every run's differential check must pass or the bench aborts.\",\n"
      "  \"environment\": {\n"
      "    \"seed\": " + std::to_string(seed) + ",\n"
      "    \"duration_ms\": " + std::to_string(duration_ms) + ",\n"
      "    \"build\": \"RelWithDebInfo, 3 workers, kOptimized3PC, "
      "SimConfig::Zero (no modeled disk/net: measures protocol + "
      "scheduling latency, not I/O)\"\n"
      "  },\n"
      "  \"grid\": {\n    " + grid + "\n  }\n}\n";

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  HARBOR_CHECK(f != nullptr);
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("wrote %s (all %zu differential checks passed)\n",
              out_path.c_str(), cases.size());
}

}  // namespace
}  // namespace harbor::bench

int main() {
  harbor::bench::Run();
  return 0;
}
