#ifndef HARBOR_WORKLOAD_DRIVER_H_
#define HARBOR_WORKLOAD_DRIVER_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "core/protocol.h"

namespace harbor::workload {

/// Operation kinds a soak session can issue. Each kind has its own latency
/// histogram (and wl.* HistogramId) so SLOs are checked per path: trickle
/// DML, the three read modes, and forced recoveries.
enum class OpKind : uint8_t {
  kInsert = 0,
  kUpdate,
  kDelete,
  kSnapshotScan,
  kLockingScan,
  kHistoricalScan,
  kCount,
};

inline constexpr size_t kOpKindCount = static_cast<size_t>(OpKind::kCount);

const char* OpKindName(OpKind kind);

/// \brief One class of user sessions in the open-loop population: how many
/// sessions, each session's Poisson arrival rate, and the relative weights
/// of the operations it issues. A session is one client connection (one
/// statement Executor) with its own disjoint key range, so its operation
/// stream has an exact serial reference model even though the population
/// runs concurrently.
struct SessionMix {
  std::string name;
  uint32_t sessions = 1;
  /// Per-session open-loop arrival rate. Arrivals are scheduled up front
  /// from the seed (exponential interarrivals) and do NOT wait for earlier
  /// operations: latency is measured from the scheduled arrival, so queueing
  /// delay counts against the SLO, as in any open-loop harness.
  double ops_per_sec = 200.0;
  /// Relative weights by OpKind (need not sum to 1).
  std::array<double, kOpKindCount> weights{};
};

/// Mostly single-row DML with an occasional snapshot read — the paper's
/// trickle-update front-end.
SessionMix TrickleUpdateMix(uint32_t sessions, double ops_per_sec = 200.0);

/// Heavy read-side sessions: snapshot + historical scans over the sealed
/// (columnar) preload, with a thin locking-read minority.
SessionMix ScanHeavyMix(uint32_t sessions, double ops_per_sec = 60.0);

/// \brief Everything one soak run needs; fully determined by `seed` (the
/// arrival schedule and every operation stream derive from it, HARBOR_SEED
/// style) up to thread interleaving.
struct SoakOptions {
  uint64_t seed = Random::GlobalSeed();
  int num_workers = 3;
  CommitProtocol protocol = CommitProtocol::kOptimized3PC;
  /// Session population; empty = {TrickleUpdateMix(8), ScanHeavyMix(4)}.
  std::vector<SessionMix> mixes;
  /// Horizon of scheduled arrivals (the run then settles and verifies).
  int64_t duration_ms = 1000;
  /// Rows bulk-loaded (ids -1..-preload_rows) into a sealed segment before
  /// the run, so scans cover a real sealed/columnar read path. Preload rows
  /// are outside every session's key range and must survive bit-identical.
  int64_t preload_rows = 256;
  bool columnar = true;
  /// Secondary index column for the soak table ("" = none).
  std::string indexed_column = "id";
  /// Forced mid-soak crash+recovery cycles, spread across the run (workers
  /// round-robin). Each cycle's wall time records into wl.recovery_ns.
  int forced_recoveries = 0;
  /// fault::ChaosSchedule grammar to install for the run ("" = none).
  std::string chaos;
  /// A scan is "stalled" when it exceeds max(10 x p99, stall_floor_ns);
  /// the floor keeps microsecond-p99 runs from flagging scheduler noise.
  int64_t stall_floor_ns = 100'000'000;
  /// Background epoch tick so snapshot reads advance while sessions run.
  int64_t epoch_tick_ms = 5;
};

/// Per-operation outcome + latency summary (latencies from the scheduled
/// open-loop arrival, in nanoseconds).
struct OpStats {
  int64_t attempts = 0;
  int64_t committed = 0;  // certainly applied (reads: succeeded)
  int64_t aborted = 0;    // certainly not applied (reads: failed cleanly)
  int64_t unknown = 0;    // commit outcome indeterminate
  int64_t errors = 0;     // statement-level errors (should be zero)
  int64_t p50_ns = 0;
  int64_t p99_ns = 0;
  int64_t p999_ns = 0;
  int64_t max_ns = 0;
  int64_t stall_threshold_ns = 0;
  int64_t stalled = 0;
};

/// \brief The result of one soak: per-operation SLO stats, recovery stats,
/// and the post-run differential check against the serial reference model.
struct SoakReport {
  std::array<OpStats, kOpKindCount> ops;

  int64_t recoveries = 0;
  int64_t recovery_p50_ns = 0;
  int64_t recovery_max_ns = 0;

  /// Differential check: every certainly-committed row present with its
  /// exact value, every certainly-absent row absent, no id visible twice,
  /// preload rows intact, snapshot and locking reads agreeing.
  bool diff_ok = false;
  std::string diff_error;
  int64_t rows_checked = 0;      // certain rows verified bit-exact
  int64_t rows_uncertain = 0;    // fate-unknown rows (exempt)
  int64_t faults_fired = 0;      // chaos faults that actually fired

  std::string ToJson() const;
};

/// \brief The open-loop workload driver: builds a cluster, creates the soak
/// table through the statement front-end, bulk-loads a sealed preload, runs
/// a seeded session population (optionally under a chaos schedule and
/// forced recoveries), settles — consensus, coordinator restart, worker
/// recovery — and differentially checks the surviving state against each
/// session's serial reference model.
class WorkloadDriver {
 public:
  explicit WorkloadDriver(SoakOptions options);

  /// One full soak. Returns the report; a non-OK Result means the harness
  /// itself failed (cluster build, preload, settle) — a differential
  /// mismatch is reported in-band via SoakReport::diff_ok.
  Result<SoakReport> Run();

  const SoakOptions& options() const { return options_; }

 private:
  SoakOptions options_;
};

}  // namespace harbor::workload

#endif  // HARBOR_WORKLOAD_DRIVER_H_
