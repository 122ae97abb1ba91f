#include "workload/driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "core/cluster.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "runtime/scheduler.h"
#include "workload/executor.h"

namespace harbor::workload {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int64_t kSessionKeySpan = int64_t{1} << 20;

/// Splitmix64 finalizer: decorrelates the per-session / per-purpose seeds
/// derived from the one run seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream * 2654435761ULL + salt);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int64_t ElapsedNs(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}

/// A session's serial reference model — the chaos-harness three-way
/// classification over this session's private key range.
struct SessionModel {
  std::map<int64_t, int64_t> rows;  // id -> qty, certainly present
  std::set<int64_t> any_qty;        // present, value uncertain
  std::set<int64_t> unknown;        // existence uncertain
  int64_t next_local = 0;           // ids [base, base + next_local) allocated
};

struct Session {
  size_t index = 0;
  const SessionMix* mix = nullptr;
  int64_t key_base = 0;
  std::vector<int64_t> arrivals_ns;  // scheduled offsets from run start
  size_t next_arrival = 0;
  Random rng{0};  // op-content stream (kinds, keys, values)
  std::unique_ptr<Executor> executor;
  SessionModel model;
};

struct FateCounts {
  std::atomic<int64_t> attempts{0};
  std::atomic<int64_t> committed{0};
  std::atomic<int64_t> aborted{0};
  std::atomic<int64_t> unknown{0};
  std::atomic<int64_t> errors{0};
};

struct RunState {
  std::array<obs::Histogram, kOpKindCount> latency;
  std::array<FateCounts, kOpKindCount> fates;
  std::atomic<int64_t> torn{0};
  std::mutex mu;
  std::string first_anomaly;
  std::vector<int64_t> recovery_ns;
  std::atomic<int64_t> recoveries{0};

  void Anomaly(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    if (first_anomaly.empty()) first_anomaly = what;
  }
};

OpKind PickKind(Session* s) {
  double total = 0;
  for (double w : s->mix->weights) total += w;
  double x = s->rng.NextDouble() * total;
  for (size_t k = 0; k < kOpKindCount; ++k) {
    x -= s->mix->weights[k];
    if (x < 0) return static_cast<OpKind>(k);
  }
  return OpKind::kInsert;
}

void ApplyJsonEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    if (c == '\n') {
      out->append("\\n");
      continue;
    }
    out->push_back(c);
  }
}

}  // namespace

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kInsert: return "insert";
    case OpKind::kUpdate: return "update";
    case OpKind::kDelete: return "delete";
    case OpKind::kSnapshotScan: return "snapshot_scan";
    case OpKind::kLockingScan: return "locking_scan";
    case OpKind::kHistoricalScan: return "historical_scan";
    case OpKind::kCount: break;
  }
  return "unknown";
}

SessionMix TrickleUpdateMix(uint32_t sessions, double ops_per_sec) {
  SessionMix mix;
  mix.name = "trickle";
  mix.sessions = sessions;
  mix.ops_per_sec = ops_per_sec;
  mix.weights[static_cast<size_t>(OpKind::kInsert)] = 0.45;
  mix.weights[static_cast<size_t>(OpKind::kUpdate)] = 0.25;
  mix.weights[static_cast<size_t>(OpKind::kDelete)] = 0.15;
  mix.weights[static_cast<size_t>(OpKind::kSnapshotScan)] = 0.15;
  return mix;
}

SessionMix ScanHeavyMix(uint32_t sessions, double ops_per_sec) {
  SessionMix mix;
  mix.name = "scan_heavy";
  mix.sessions = sessions;
  mix.ops_per_sec = ops_per_sec;
  mix.weights[static_cast<size_t>(OpKind::kSnapshotScan)] = 0.55;
  mix.weights[static_cast<size_t>(OpKind::kHistoricalScan)] = 0.25;
  mix.weights[static_cast<size_t>(OpKind::kLockingScan)] = 0.10;
  mix.weights[static_cast<size_t>(OpKind::kInsert)] = 0.10;
  return mix;
}

std::string SoakReport::ToJson() const {
  std::string out = "{\"ops\":{";
  char buf[512];
  bool first = true;
  for (size_t k = 0; k < kOpKindCount; ++k) {
    const OpStats& s = ops[k];
    if (s.attempts == 0) continue;
    if (!first) out.push_back(',');
    first = false;
    std::snprintf(
        buf, sizeof(buf),
        "\"%s\":{\"attempts\":%lld,\"committed\":%lld,\"aborted\":%lld,"
        "\"unknown\":%lld,\"errors\":%lld,\"p50_ns\":%lld,\"p99_ns\":%lld,"
        "\"p999_ns\":%lld,\"max_ns\":%lld,\"stall_threshold_ns\":%lld,"
        "\"stalled\":%lld}",
        OpKindName(static_cast<OpKind>(k)),
        static_cast<long long>(s.attempts),
        static_cast<long long>(s.committed),
        static_cast<long long>(s.aborted),
        static_cast<long long>(s.unknown),
        static_cast<long long>(s.errors), static_cast<long long>(s.p50_ns),
        static_cast<long long>(s.p99_ns), static_cast<long long>(s.p999_ns),
        static_cast<long long>(s.max_ns),
        static_cast<long long>(s.stall_threshold_ns),
        static_cast<long long>(s.stalled));
    out.append(buf);
  }
  std::snprintf(
      buf, sizeof(buf),
      "},\"recoveries\":%lld,\"recovery_p50_ns\":%lld,"
      "\"recovery_max_ns\":%lld,\"faults_fired\":%lld,\"diff_ok\":%s,"
      "\"rows_checked\":%lld,\"rows_uncertain\":%lld,\"diff_error\":\"",
      static_cast<long long>(recoveries),
      static_cast<long long>(recovery_p50_ns),
      static_cast<long long>(recovery_max_ns),
      static_cast<long long>(faults_fired), diff_ok ? "true" : "false",
      static_cast<long long>(rows_checked),
      static_cast<long long>(rows_uncertain));
  out.append(buf);
  ApplyJsonEscaped(&out, diff_error);
  out.append("\"}");
  return out;
}

WorkloadDriver::WorkloadDriver(SoakOptions options)
    : options_(std::move(options)) {
  if (options_.mixes.empty()) {
    options_.mixes = {TrickleUpdateMix(8), ScanHeavyMix(4)};
  }
}

namespace {

/// Executes one scheduled operation through the session's statement
/// executor and folds the outcome into the session model + run stats.
void RunOp(Session* s, Timestamp historical_ts, int64_t preload_rows,
           RunState* state, int64_t arrival_latency_base_ns,
           Clock::time_point run_start) {
  OpKind kind = PickKind(s);
  SessionModel& m = s->model;
  // Mutating kinds need a target; fall back to insert on an empty model.
  if ((kind == OpKind::kUpdate || kind == OpKind::kDelete) && m.rows.empty()) {
    kind = OpKind::kInsert;
  }

  std::string sql;
  int64_t id = 0;
  int64_t qty = 0;
  switch (kind) {
    case OpKind::kInsert: {
      id = s->key_base + m.next_local++;
      qty = s->rng.UniformRange(0, 1000);
      sql = "INSERT INTO soak VALUES (" + std::to_string(id) + ", " +
            std::to_string(qty) + ", 's" + std::to_string(s->index) + "')";
      break;
    }
    case OpKind::kUpdate:
    case OpKind::kDelete: {
      auto it = m.rows.begin();
      std::advance(it, static_cast<int64_t>(s->rng.Uniform(m.rows.size())));
      id = it->first;
      if (kind == OpKind::kUpdate) {
        qty = s->rng.UniformRange(0, 1000);
        sql = "UPDATE soak SET qty = " + std::to_string(qty) +
              " WHERE id = " + std::to_string(id);
      } else {
        sql = "DELETE FROM soak WHERE id = " + std::to_string(id);
      }
      break;
    }
    case OpKind::kSnapshotScan:
    case OpKind::kLockingScan:
    case OpKind::kHistoricalScan: {
      // Ranged scan from somewhere inside the sealed preload upward, so
      // every scan crosses the sealed (columnar) segment and the live tail.
      const int64_t lo = s->rng.UniformRange(-preload_rows, 0);
      sql = "SELECT * FROM soak WHERE id >= " + std::to_string(lo);
      if (kind == OpKind::kHistoricalScan) {
        sql += " AS OF " + std::to_string(historical_ts);
      } else if (kind == OpKind::kLockingScan) {
        sql += " WITH LOCKS";
      }
      break;
    }
    case OpKind::kCount: return;
  }

  FateCounts& f = state->fates[static_cast<size_t>(kind)];
  f.attempts.fetch_add(1, std::memory_order_relaxed);

  Result<StatementResult> res = s->executor->Execute(sql);

  // Open-loop latency: completion minus the *scheduled* arrival.
  const int64_t latency_ns =
      ElapsedNs(run_start, Clock::now()) - arrival_latency_base_ns;
  state->latency[static_cast<size_t>(kind)].Record(latency_ns);

  const bool is_scan = kind == OpKind::kSnapshotScan ||
                       kind == OpKind::kLockingScan ||
                       kind == OpKind::kHistoricalScan;
  if (!res.ok()) {
    if (is_scan && !res.status().IsInvalidArgument()) {
      // A scan refused mid-crash is a clean failure, not a harness bug.
      f.aborted.fetch_add(1, std::memory_order_relaxed);
    } else {
      f.errors.fetch_add(1, std::memory_order_relaxed);
      state->Anomaly("statement error: " + res.status().ToString() +
                     " for: " + sql);
    }
    return;
  }

  if (is_scan) {
    f.committed.fetch_add(1, std::memory_order_relaxed);
    // Torn-read check: no logical id visible twice in one result.
    std::set<int64_t> seen;
    for (const Tuple& t : res->rows) {
      const int64_t rid = t.value(0).AsInt64();
      if (!seen.insert(rid).second) {
        state->torn.fetch_add(1, std::memory_order_relaxed);
        state->Anomaly("torn read: id " + std::to_string(rid) +
                       " visible twice in one scan");
      }
    }
    return;
  }

  switch (res->fate) {
    case TxnFate::kCommitted:
      f.committed.fetch_add(1, std::memory_order_relaxed);
      if (kind == OpKind::kInsert || kind == OpKind::kUpdate) {
        m.rows[id] = qty;
      } else {
        m.rows.erase(id);
        m.any_qty.erase(id);
      }
      break;
    case TxnFate::kAborted:
      f.aborted.fetch_add(1, std::memory_order_relaxed);
      break;
    case TxnFate::kUnknown:
      f.unknown.fetch_add(1, std::memory_order_relaxed);
      if (kind == OpKind::kInsert) {
        m.unknown.insert(id);
      } else if (kind == OpKind::kDelete) {
        m.rows.erase(id);
        m.unknown.insert(id);
      } else {
        m.rows.erase(id);
        m.any_qty.insert(id);
      }
      break;
    case TxnFate::kNone:
      // Auto-commit DML never leaves a transaction open.
      f.errors.fetch_add(1, std::memory_order_relaxed);
      state->Anomaly("auto-commit DML returned fate=none for: " + sql);
      break;
  }
}

/// Session issuing on the cluster's shared scheduler: each session owns a
/// width-1 strand (its ops stay FIFO, preserving the serial reference
/// model) and a timer chain — an arrival timer posts the op to the strand,
/// and the op, once done, arms the timer for the next arrival. Open-loop
/// latency accounting is unchanged: arrivals are the precomputed schedule
/// and latency is completion minus *scheduled* arrival, so a slow op still
/// charges the queueing delay to the ops behind it.
struct SessionIssuer {
  runtime::Scheduler* sched = nullptr;
  Timestamp historical_ts = 0;
  int64_t preload_rows = 0;
  RunState* state = nullptr;
  Clock::time_point run_start;

  std::mutex mu;
  std::condition_variable cv;
  int active = 0;

  void FinishOne() {
    std::lock_guard<std::mutex> lock(mu);
    if (--active == 0) cv.notify_all();
  }

  /// Arms the timer for `s`'s next scheduled arrival (or retires the
  /// session). Runs on the session's own strand, except the first call.
  void ScheduleNext(Session* s, runtime::StrandId strand) {
    if (s->next_arrival >= s->arrivals_ns.size()) {
      FinishOne();
      return;
    }
    const int64_t arrival_ns = s->arrivals_ns[s->next_arrival++];
    int64_t delay_ns = arrival_ns - ElapsedNs(run_start, Clock::now());
    if (delay_ns < 0) delay_ns = 0;
    const runtime::TimerId timer = sched->ScheduleAfter(
        delay_ns, [this, s, strand, arrival_ns] {
          const bool posted =
              sched->Post(strand, [this, s, strand, arrival_ns] {
                RunOp(s, historical_ts, preload_rows, state, arrival_ns,
                      run_start);
                ScheduleNext(s, strand);
              });
          if (!posted) FinishOne();  // runtime shutting down mid-run
        });
    if (timer == 0) FinishOne();
  }

  /// Blocks until every session has drained its arrival schedule.
  void Wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return active == 0; });
  }
};

void RecoveryThread(Cluster* cluster, const SoakOptions& opt, RunState* state,
                    Clock::time_point run_start) {
  RecoveryOptions ropt;
  ropt.max_attempts = 5;
  for (int k = 1; k <= opt.forced_recoveries; ++k) {
    const int64_t at_ns = opt.duration_ms * 1'000'000 * k /
                          (opt.forced_recoveries + 1);
    std::this_thread::sleep_until(run_start +
                                  std::chrono::nanoseconds(at_ns));
    const int w = (k - 1) % cluster->num_workers();
    if (!cluster->worker(w)->running()) continue;  // chaos got there first
    cluster->CrashWorker(w);
    // Let a few operations hit the dead site before bringing it back — the
    // interesting window is queries running *during* the recovery.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const auto t0 = Clock::now();
    auto stats = cluster->RecoverWorker(w, ropt);
    if (stats.ok()) {
      const int64_t ns = ElapsedNs(t0, Clock::now());
      {
        std::lock_guard<std::mutex> lock(state->mu);
        state->recovery_ns.push_back(ns);
      }
      state->recoveries.fetch_add(1, std::memory_order_relaxed);
    }
    // On failure the settle phase recovers the worker.
  }
}

}  // namespace

Result<SoakReport> WorkloadDriver::Run() {
  const SoakOptions& opt = options_;

  ClusterOptions copt;
  copt.num_workers = opt.num_workers;
  copt.protocol = opt.protocol;
  copt.sim = SimConfig::Zero();
  copt.epoch_tick_ms = opt.epoch_tick_ms;
  copt.lock_timeout = std::chrono::milliseconds(100);
  HARBOR_ASSIGN_OR_RETURN(auto cluster, Cluster::Create(copt));
  Coordinator* coord = cluster->coordinator();

  // The soak table is created through the statement front-end itself.
  Executor ddl(cluster.get());
  std::string create = "CREATE TABLE soak (id INT64, qty INT64, tag CHAR(8))";
  if (opt.columnar) create += " COLUMNAR";
  if (!opt.indexed_column.empty()) create += " INDEX ON " + opt.indexed_column;
  HARBOR_ASSIGN_OR_RETURN(StatementResult created, ddl.Execute(create));
  const TableId table = created.table;

  // Sealed preload at ids -1..-preload_rows: scan substrate + recovery
  // payload, and a bit-exactness canary no session ever touches.
  std::map<int64_t, int64_t> preload;
  if (opt.preload_rows > 0) {
    Random prng(DeriveSeed(opt.seed, 0, /*salt=*/1));
    std::vector<LoadRow> rows;
    rows.reserve(static_cast<size_t>(opt.preload_rows));
    for (int64_t i = 1; i <= opt.preload_rows; ++i) {
      LoadRow r;
      r.tuple_id = static_cast<TupleId>(i);
      r.insertion_ts = 1;
      const int64_t qty = prng.UniformRange(0, 1000);
      r.values = {Value(-i), Value(qty), Value("preload")};
      rows.push_back(std::move(r));
      preload[-i] = qty;
    }
    HARBOR_RETURN_NOT_OK(
        cluster->BulkLoad(table, rows, /*seal_segment=*/true));
  }
  HARBOR_RETURN_NOT_OK(cluster->CheckpointAll());
  cluster->AdvanceEpoch();
  const Timestamp historical_ts = cluster->authority()->StableTime();

  // Build the session population with seeded arrival schedules.
  std::vector<std::unique_ptr<Session>> sessions;
  size_t session_index = 0;
  for (const SessionMix& mix : opt.mixes) {
    for (uint32_t i = 0; i < mix.sessions; ++i, ++session_index) {
      auto s = std::make_unique<Session>();
      s->index = session_index;
      s->mix = &mix;
      s->key_base = static_cast<int64_t>(session_index) * kSessionKeySpan;
      s->rng = Random(DeriveSeed(opt.seed, session_index, /*salt=*/2));
      s->executor = std::make_unique<Executor>(cluster.get());
      Random arr(DeriveSeed(opt.seed, session_index, /*salt=*/3));
      const double rate = std::max(mix.ops_per_sec, 1e-3);
      const int64_t horizon_ns = opt.duration_ms * 1'000'000;
      int64_t t = 0;
      while (s->arrivals_ns.size() < 200'000) {
        const double u = std::min(arr.NextDouble(), 0.999999999);
        t += static_cast<int64_t>(-std::log(1.0 - u) / rate * 1e9);
        if (t >= horizon_ns) break;
        s->arrivals_ns.push_back(t);
      }
      sessions.push_back(std::move(s));
    }
  }

  // Chaos: parse + install the schedule, crash handlers wired exactly like
  // the chaos harness.
  std::unique_ptr<fault::FaultInjector> injector;
  if (!opt.chaos.empty()) {
    HARBOR_ASSIGN_OR_RETURN(fault::ChaosSchedule sched,
                            fault::ChaosSchedule::Parse(opt.chaos));
    injector = std::make_unique<fault::FaultInjector>(std::move(sched),
                                                      &cluster->observer());
    injector->RegisterCrashHandler(0, [coord] { coord->Crash(); });
    Cluster* raw = cluster.get();
    for (int i = 0; i < cluster->num_workers(); ++i) {
      injector->RegisterCrashHandler(Cluster::WorkerSite(i),
                                     [raw, i] { raw->CrashWorker(i); });
    }
    injector->Install();
  }

  RunState state;
  const auto run_start = Clock::now();

  std::thread recovery_thread;
  if (opt.forced_recoveries > 0) {
    recovery_thread = std::thread(RecoveryThread, cluster.get(), std::cref(opt),
                                  &state, run_start);
  }

  SessionIssuer issuer;
  issuer.sched = cluster->scheduler();
  issuer.historical_ts = historical_ts;
  issuer.preload_rows = opt.preload_rows;
  issuer.state = &state;
  issuer.run_start = run_start;
  issuer.active = static_cast<int>(sessions.size());
  std::vector<runtime::StrandId> strands;
  strands.reserve(sessions.size());
  for (const auto& s : sessions) {
    strands.push_back(issuer.sched->CreateStrand(/*width=*/1));
    issuer.ScheduleNext(s.get(), strands.back());
  }
  issuer.Wait();
  for (runtime::StrandId strand : strands) {
    issuer.sched->ReleaseStrand(strand);
  }
  if (recovery_thread.joinable()) recovery_thread.join();

  SoakReport report;
  if (injector != nullptr) {
    injector->Uninstall();  // joins any in-flight crash threads
    report.faults_fired = static_cast<int64_t>(injector->fired().size());
  }

  // ---- Settle: consensus, coordinator restart, worker recovery ----
  // Under 3PC the surviving workers resolve in-flight transactions among
  // themselves before the coordinator returns; under 2PC prepared workers
  // wait for the restarted coordinator's logged decisions (§4.3.2).
  const bool restart = !coord->running();
  if (restart && !IsThreePhase(opt.protocol)) {
    HARBOR_RETURN_NOT_OK(coord->Restart());
  }
  HARBOR_RETURN_NOT_OK(
      cluster->WaitForTxnDrain(std::chrono::milliseconds(10000)));
  if (restart && IsThreePhase(opt.protocol)) {
    HARBOR_RETURN_NOT_OK(coord->Restart());
  }
  RecoveryOptions ropt;
  ropt.max_attempts = 5;
  for (int i = 0; i < cluster->num_workers(); ++i) {
    if (!cluster->worker(i)->running()) {
      HARBOR_RETURN_NOT_OK(cluster->RecoverWorker(i, ropt).status());
    }
  }
  cluster->AdvanceEpoch();

  // ---- Differential check against the combined serial reference ----
  std::string diff;
  auto fail = [&diff](const std::string& what) {
    if (diff.empty()) diff = what;
  };
  if (state.torn.load() > 0) fail(state.first_anomaly);

  HARBOR_ASSIGN_OR_RETURN(std::vector<Tuple> snap_rows,
                          coord->Query(table, Predicate()));
  std::map<int64_t, int64_t> final_rows;
  for (const Tuple& t : snap_rows) {
    const int64_t id = t.value(0).AsInt64();
    if (!final_rows.emplace(id, t.value(1).AsInt64()).second) {
      fail("id " + std::to_string(id) + " visible twice after settle");
    }
  }
  // Snapshot and locking reads must agree on the settled state.
  HARBOR_ASSIGN_OR_RETURN(
      std::vector<Tuple> lock_rows,
      coord->Query(table, Predicate(), ReadMode::kLocking));
  std::map<int64_t, int64_t> locking;
  for (const Tuple& t : lock_rows) {
    locking[t.value(0).AsInt64()] = t.value(1).AsInt64();
  }
  if (locking != final_rows) {
    fail("snapshot and locking reads disagree on the settled state");
  }

  for (const auto& [id, qty] : preload) {
    auto it = final_rows.find(id);
    if (it == final_rows.end()) {
      fail("preload row " + std::to_string(id) + " lost");
    } else if (it->second != qty) {
      fail("preload row " + std::to_string(id) + " corrupted");
    } else {
      ++report.rows_checked;
    }
  }
  for (const auto& s : sessions) {
    const SessionModel& m = s->model;
    for (const auto& [id, qty] : m.rows) {
      auto it = final_rows.find(id);
      if (it == final_rows.end()) {
        fail("committed row " + std::to_string(id) + " lost");
      } else if (it->second != qty) {
        fail("committed row " + std::to_string(id) + " has a stale value");
      } else {
        ++report.rows_checked;
      }
    }
    for (int64_t id : m.any_qty) {
      if (final_rows.count(id) == 0) {
        fail("row " + std::to_string(id) +
             " (value uncertain, presence certain) lost");
      }
    }
    report.rows_uncertain +=
        static_cast<int64_t>(m.any_qty.size() + m.unknown.size());
    for (int64_t local = 0; local < m.next_local; ++local) {
      const int64_t id = s->key_base + local;
      if (m.rows.count(id) || m.any_qty.count(id) || m.unknown.count(id)) {
        continue;
      }
      if (final_rows.count(id) != 0) {
        fail("aborted/deleted row " + std::to_string(id) + " reappeared");
      }
    }
  }
  report.diff_ok = diff.empty();
  report.diff_error = diff;

  // ---- SLO stats from the driver-owned histograms ----
  for (size_t k = 0; k < kOpKindCount; ++k) {
    OpStats& s = report.ops[k];
    const FateCounts& f = state.fates[k];
    s.attempts = f.attempts.load();
    s.committed = f.committed.load();
    s.aborted = f.aborted.load();
    s.unknown = f.unknown.load();
    s.errors = f.errors.load();
    const obs::Histogram& h = state.latency[k];
    if (h.count() == 0) continue;
    s.p50_ns = h.Percentile(0.5);
    s.p99_ns = h.Percentile(0.99);
    s.p999_ns = h.Percentile(0.999);
    s.max_ns = h.max();
    s.stall_threshold_ns = std::max(10 * s.p99_ns, opt.stall_floor_ns);
    s.stalled = h.CountAbove(s.stall_threshold_ns);
  }
  report.recoveries = state.recoveries.load();
  if (!state.recovery_ns.empty()) {
    std::vector<int64_t> rec = state.recovery_ns;
    std::sort(rec.begin(), rec.end());
    report.recovery_p50_ns = rec[rec.size() / 2];
    report.recovery_max_ns = rec.back();
  }
  if (report.diff_ok && state.first_anomaly.empty()) return report;
  if (report.diff_error.empty()) report.diff_error = state.first_anomaly;
  report.diff_ok = report.diff_error.empty();
  return report;
}

}  // namespace harbor::workload
