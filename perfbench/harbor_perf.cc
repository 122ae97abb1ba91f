// End-to-end benchmark of a 3-worker HARBOR cluster (zero-cost model,
// optimized 3PC). A run is a number of rounds in blocks; each block starts on
// a freshly loaded cluster, and every round executes a slice of three
// stages:
//
//   commit    single-statement DML: an idle phase (1 session, 1 ms pauses),
//             a serial phase (1 session back to back) and a busy phase
//             (2 sessions back to back, one table each);
//   scan      selective snapshot SELECTs alternating between a row-layout and
//             a columnar table while a writer inserts at a fixed pace;
//   recovery  one checkpoint / crash / bulk-load delta / deletes /
//             RecoverWorker cycle, alternating between a row and a columnar
//             table.
//
// Every stage runs a fixed number of operations derived from --seed, so the
// work of a run never depends on how fast the code is. The workload chooses
// the stage sizes (see Sizes below); every workload reports every end-to-end
// metric. With --trace 1 each one-call operation is replaced by timed calls
// into the layers' public functions, and the per-layer metrics are reported
// alongside the (traced) end-to-end ones.
//
// The last stdout line is one JSON object; perfbench/run.py builds this
// binary, runs it and reshapes that object into the benchmark's result.

#include <sys/resource.h>
#include <sys/vfs.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/cluster.h"
#include "core/messages.h"
#include "workload/executor.h"
#include "workload/statement.h"

namespace harbor::perf {
namespace {

using SteadyClock = std::chrono::steady_clock;

double MicrosSince(SteadyClock::time_point t0) {
  return std::chrono::duration<double, std::micro>(SteadyClock::now() - t0)
      .count();
}

/// Process user + system CPU time in microseconds.
double ProcessCpuMicros() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 +
           static_cast<double>(tv.tv_usec);
  };
  return us(ru.ru_utime) + us(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// A deterministic value stream: Next() is a pure function of (seed, stream,
/// position), so every input of a run follows from --seed.
class Rng {
 public:
  Rng(uint64_t seed, uint64_t stream)
      : state_(SplitMix64(seed * 0x100000001b3ULL + stream)) {}
  uint64_t Next() { return state_ = SplitMix64(state_); }
  int64_t Below(int64_t n) {
    return static_cast<int64_t>(Next() % static_cast<uint64_t>(n));
  }

 private:
  uint64_t state_;
};

/// Latency samples of one kind; percentiles use the nearest-rank rule.
class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  void Append(const Samples& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
  }
  size_t size() const { return v_.size(); }
  double Pct(double q) const {
    if (v_.empty()) return 0;
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    const size_t rank =
        static_cast<size_t>(std::ceil(q * static_cast<double>(s.size())));
    return s[std::max<size_t>(rank, 1) - 1];
  }
  double Median() const { return Pct(0.5); }
  /// Mean of the middle half: as robust to a few outliers as the median,
  /// but steadier from run to run.
  double InterquartileMean() const {
    if (v_.empty()) return 0;
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    const size_t cut = s.size() / 4;
    double sum = 0;
    for (size_t i = cut; i < s.size() - cut; ++i) sum += s[i];
    return sum / static_cast<double>(s.size() - 2 * cut);
  }

 private:
  std::vector<double> v_;
};

// ---------------------------------------------------------------------------
// Workload sizes.

/// Operation counts are per round; a run is `rounds` rounds, each running a
/// slice of every stage in turn (commit, scan, recovery). Interleaving the
/// stages and reporting the interquartile mean of per-round values keeps a
/// host slowdown that lasts a few seconds from moving any metric: it spoils
/// a minority of the rounds of every stage instead of most of one stage.
struct Sizes {
  int rounds = 10;
  size_t buffer_pages = 8192;  // ClusterOptions default
  // commit stage
  int64_t session_preload = 2000;
  int idle_stmts = 0;    // paced, one session
  int serial_stmts = 0;  // one session back to back
  int busy_stmts = 0;    // per session, two sessions back to back
  // scan stage
  int64_t facts_rows = 0;
  int query_pairs = 0;   // one row-table and one columnar query per pair
  int writer_stmts = 0;  // paced inserts beside the queries
  // recovery stage: one cycle per round
  int64_t base_rows = 0;
  int64_t delta_rows = 0;
  int deletes_per_cycle = 0;  // paced
  // contention probe (traced runs only), per session
  int probe_stmts = 150;
};

constexpr auto kIdlePause = std::chrono::microseconds(1000);
constexpr auto kWriterPeriod = std::chrono::microseconds(5000);  // ~200 rows/s
// The rounds of a run are split into kBlocks blocks. Each block starts on a
// fresh cluster, built kSetupsPerBlock times (the last build is kept), so
// that setup_s samples the host across the whole run as the per-round
// metrics do.
constexpr int kBlocks = 4;
constexpr int kSetupsPerBlock = 2;
constexpr int64_t kFactGroups = 100;   // queried groups are 0..99
constexpr int64_t kFactVRange = 1000;  // v < 50 keeps 5% of a group
constexpr int kBusySessions = 2;

/// Each workload runs every stage: its own stage at the size the workload
/// exists for, the other two at a small size, so that every end-to-end
/// metric is reported on every workload. A round takes about a second on a
/// 4-vCPU host, so --seconds sets the number of rounds; table sizes never
/// change with it.
Sizes SizesFor(const std::string& workload, int seconds, bool tiny) {
  Sizes s;
  s.rounds = std::max(2, seconds);
  // Small stages, shared by the workloads that do not focus on them.
  s.serial_stmts = 300;
  s.busy_stmts = 300;
  s.facts_rows = 20000;
  s.query_pairs = 20;
  s.base_rows = 20000;
  s.delta_rows = 2000;
  s.deletes_per_cycle = 20;
  if (workload == "trickle_commit") {
    s.idle_stmts = 200;
    s.serial_stmts = 1000;
    s.busy_stmts = 800;
  } else if (workload == "warehouse_scan") {
    s.buffer_pages = 512;  // facts_row is ~4x the pool
    s.facts_rows = 150000;
    s.query_pairs = 30;
    s.writer_stmts = 100;
  } else {  // recovery_catchup
    s.base_rows = 100000;
    s.delta_rows = 10000;
    s.deletes_per_cycle = 100;
  }
  if (tiny) {
    s.rounds = 2;
    s.buffer_pages = std::min<size_t>(s.buffer_pages, 256);
    s.session_preload = 200;
    s.idle_stmts = std::min(s.idle_stmts, 30);
    s.serial_stmts = 30;
    s.busy_stmts = 50;
    s.facts_rows = 6000;
    s.query_pairs = 4;
    s.writer_stmts = std::min(s.writer_stmts, 10);
    s.base_rows = 3000;
    s.delta_rows = 300;
    s.deletes_per_cycle = 5;
    s.probe_stmts = 20;
  }
  return s;
}

// ---------------------------------------------------------------------------
// Data. Every table uses one all-INT64 schema so statement literals bind
// without coercion and the traced path can hand parsed values straight to
// the coordinator.

Schema SessionSchema() {
  return Schema({Column::Int64("id"), Column::Int64("k"), Column::Int64("v")});
}

Schema FactSchema() {
  return Schema({Column::Int64("id"), Column::Int64("grp"), Column::Int64("v"),
                 Column::Int64("amount")});
}

/// Fact row `i` of a table seeded with `salt`. `amount` is always even, so
/// an odd amount inside its range matches no row but defeats zone maps.
std::vector<Value> FactRow(uint64_t seed, uint64_t salt, int64_t id,
                           int64_t grp) {
  const uint64_t h =
      SplitMix64(seed ^ (salt << 40) ^ static_cast<uint64_t>(id));
  return {Value(id), Value(grp), Value(static_cast<int64_t>(h % kFactVRange)),
          Value(static_cast<int64_t>(2 * ((h >> 20) % 1000000)))};
}

int64_t FactGroup(uint64_t seed, uint64_t salt, int64_t id) {
  return static_cast<int64_t>(
      SplitMix64(seed ^ (salt << 48) ^ static_cast<uint64_t>(id)) %
      kFactGroups);
}

constexpr uint64_t kFactSalt = 1;
constexpr uint64_t kBaseSalt = 2;
constexpr int64_t kEmptyAmount = 1000001;  // odd: no row has it
constexpr TupleId kLoadTupleBase = TupleId{1} << 36;

// ---------------------------------------------------------------------------
// Results.

struct Metric {
  double value = 0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::vector<std::string> failures;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layers;
  std::map<std::string, Metric> diag;
};

/// Per-layer spans of DML statements (traced runs only).
struct Spans {
  Samples parse_us, begin_us, dml_us, commit_us;
};

// ---------------------------------------------------------------------------

/// One round's end-to-end values; every metric except setup_s and
/// peak_rss_mb is the interquartile mean over rounds of one of these.
struct Round {
  Samples serial_us;  // serial-phase statements
  Samples paced_us;   // idle-phase statements and recovery deletions
  Samples writer_us;  // scan-writer inserts
  double busy_per_s = 0;
  double busy_p50_us = 0;
  double busy_cpu_us_per_commit = 0;
  Samples row_ms, col_ms;
};

/// Recovery-cycle measurements of one layout (traced runs report them).
struct LayoutStats {
  Samples total_ms, restart_ms, phase1_ms, p2_ins_ms, p2_del_ms, phase3_ms,
      copy_us_per_row, rows, rounds;
};

class Bench {
 public:
  Bench(uint64_t seed, Sizes sizes, bool trace, std::string data_dir)
      : seed_(seed),
        sz_(sizes),
        trace_(trace),
        data_dir_(std::move(data_dir)),
        rounds_(static_cast<size_t>(sizes.rounds)) {}

  ~Bench() { TearDown(); }

  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  Report Run() {
    report_.diag["host.probe_ms"] = {HostProbeMs(), "ms"};
    PrepareReference();
    const size_t blocks = std::min<size_t>(kBlocks, rounds_.size());
    for (size_t b = 0; b < blocks && ok_; ++b) {
      for (int i = 0; i < kSetupsPerBlock && ok_; ++i) {
        Setup(static_cast<int>(b) * kSetupsPerBlock + i);
      }
      const size_t begin = rounds_.size() * b / blocks;
      const size_t end = rounds_.size() * (b + 1) / blocks;
      if (ok_) PrepareBlock(b, begin, end);
      for (size_t r = begin; r < end && ok_; ++r) {
        CommitRound(r);
        if (ok_) ScanRound(r);
        if (ok_) RecoveryCycle(r);
      }
      for (int s = 0; s <= kBusySessions && ok_; ++s) CheckSessionTable(s);
    }
    if (ok_ && trace_) ContentionProbe();
    if (ok_) Finish();
    TearDown();
    report_.correct = ok_;
    report_.attempted = attempted_;
    report_.failed = failed_;
    return report_;
  }

 private:
  // --- set-up ---------------------------------------------------------------

  void TearDown() {
    exec_.reset();
    cluster_.reset();
    if (!cluster_dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(cluster_dir_, ec);
      cluster_dir_.clear();
    }
  }

  /// Replaces the cluster with a new one holding every table, loaded and
  /// checkpointed, and records how long that took. Row generation is
  /// excluded: only the calls into the system are timed.
  void Setup(int rep) {
    TearDown();
    cluster_dir_ = data_dir_ + "/cluster" + std::to_string(rep);
    double timed_us = 0;
    double load_us = 0;
    int64_t loaded = 0;

    ClusterOptions opt;
    opt.num_workers = 3;
    opt.protocol = CommitProtocol::kOptimized3PC;
    opt.sim = SimConfig::Zero();
    opt.base_dir = cluster_dir_;
    opt.buffer_pages = sz_.buffer_pages;
    auto t0 = SteadyClock::now();
    auto cluster = Cluster::Create(opt);
    timed_us += MicrosSince(t0);
    if (!cluster.ok()) {
      Fail("Cluster::Create: " + cluster.status().ToString());
      return;
    }
    cluster_ = std::move(cluster).value();

    auto create = [&](const std::string& name, Schema schema, bool columnar,
                      const std::string& index) -> TableId {
      TableSpec spec;
      spec.name = name;
      spec.schema = std::move(schema);
      spec.columnar = columnar;
      spec.indexed_column = index;
      auto t0 = SteadyClock::now();
      auto id = cluster_->CreateTable(spec);
      timed_us += MicrosSince(t0);
      if (!id.ok()) {
        Fail("CreateTable " + name + ": " + id.status().ToString());
        return 0;
      }
      tables_[name] = *id;
      return *id;
    };
    // Loads rows [0, n) made by `row(i)` at insertion time 1 + i/5000, so
    // segments carry distinct insertion ranges as time-partitioned data
    // does, and seals the last segment.
    auto load = [&](TableId table, int64_t n, auto&& row) {
      constexpr int64_t kBatch = 20000;
      for (int64_t start = 0; start < n && ok_; start += kBatch) {
        std::vector<LoadRow> rows;
        const int64_t end = std::min(n, start + kBatch);
        rows.reserve(static_cast<size_t>(end - start));
        for (int64_t i = start; i < end; ++i) {
          LoadRow r;
          r.tuple_id = kLoadTupleBase + (static_cast<TupleId>(table) << 28) +
                       static_cast<TupleId>(i);
          r.insertion_ts = 1 + static_cast<Timestamp>(i / 5000);
          r.values = row(i);
          rows.push_back(std::move(r));
        }
        auto t0 = SteadyClock::now();
        Status st =
            cluster_->BulkLoad(table, rows, /*seal_segment=*/end == n);
        const double us = MicrosSince(t0);
        timed_us += us;
        load_us += us;
        loaded += end - start;
        if (!st.ok()) Fail("BulkLoad: " + st.ToString());
      }
      while (cluster_->authority()->Now() <=
             1 + static_cast<Timestamp>(n / 5000)) {
        cluster_->AdvanceEpoch();
      }
    };

    const uint64_t seed = seed_;
    auto session_row = [seed](int64_t i) {
      const uint64_t h = SplitMix64(seed + static_cast<uint64_t>(i));
      return std::vector<Value>{
          Value(i), Value(static_cast<int64_t>(h % 1000)), Value(int64_t{0})};
    };
    for (int s = 0; s <= kBusySessions; ++s) {
      TableId t = create(SessionTable(s), SessionSchema(), false, "id");
      load(t, sz_.session_preload, session_row);
    }
    create("shared", SessionSchema(), false, "id");
    auto fact_row = [seed](int64_t i) {
      return FactRow(seed, kFactSalt, i, FactGroup(seed, kFactSalt, i));
    };
    load(create("facts_row", FactSchema(), false, ""), sz_.facts_rows,
         fact_row);
    load(create("facts_col", FactSchema(), true, ""), sz_.facts_rows,
         fact_row);
    auto base_row = [seed](int64_t i) {
      return FactRow(seed, kBaseSalt, i, i % kFactGroups);
    };
    load(create("base_row", FactSchema(), false, "id"), sz_.base_rows,
         base_row);
    load(create("base_col", FactSchema(), true, "id"), sz_.base_rows,
         base_row);
    if (!ok_) return;
    t0 = SteadyClock::now();
    Status st = cluster_->CheckpointAll();
    const double ck_us = MicrosSince(t0);
    timed_us += ck_us;
    if (!st.ok()) Fail("CheckpointAll: " + st.ToString());
    setup_s_.Add(timed_us * 1e-6);
    checkpoint_ms_.Add(ck_us * 1e-3);
    load_rows_per_s_.Add(static_cast<double>(loaded) / (load_us * 1e-6));
  }

  static std::string SessionTable(int s) { return "s" + std::to_string(s); }

  /// The reference model of the loaded data, which every block starts from.
  void PrepareReference() {
    for (int64_t i = 0; i < sz_.facts_rows; ++i) {
      const int64_t g = FactGroup(seed_, kFactSalt, i);
      if (FactRow(seed_, kFactSalt, i, g)[2].AsInt64() < 50) ++fact_hits_[g];
    }
    // Deletions walk a seeded permutation of each group of the preload, one
    // group per cycle and table, so no row is deleted twice and the group's
    // expected count stays known.
    Rng rec_rng(seed_, 30);
    std::vector<int64_t> order(static_cast<size_t>(sz_.base_rows));
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<int64_t>(i);
    }
    for (size_t i = order.size(); i > 1; --i) {
      const int64_t j = rec_rng.Below(static_cast<int64_t>(i));
      std::swap(order[i - 1], order[static_cast<size_t>(j)]);
    }
    delete_order_.assign(kFactGroups, {});
    for (int64_t id : order) {
      delete_order_[static_cast<size_t>(id % kFactGroups)].push_back(id);
    }
    idle_.resize(rounds_.size());
    serial_.resize(rounds_.size());
    busy_.assign(kBusySessions,
                 std::vector<std::vector<std::string>>(rounds_.size()));
    groups_.resize(rounds_.size());
    writes_.resize(rounds_.size());
  }

  /// Generates the inputs of rounds [begin, end) of block `b` from the seed
  /// and resets the reference model to the freshly loaded cluster.
  void PrepareBlock(size_t b, size_t begin, size_t end) {
    exec_ = std::make_unique<workload::Executor>(cluster_.get());
    live_ids_.clear();
    for (int s = 0; s <= kBusySessions; ++s) {
      for (int64_t i = 0; i < sz_.session_preload; ++i) {
        live_ids_[s].push_back(i);
      }
    }
    deleted_.clear();
    for (const char* t : {"base_row", "base_col"}) {
      for (int64_t g = 0; g < kFactGroups; ++g) {
        group_rows_[t][g] =
            static_cast<int64_t>(delete_order_[static_cast<size_t>(g)].size());
      }
    }

    Rng commit_rng(seed_, 10 + 100 * b);
    Rng scan_rng(seed_, 20 + 100 * b);
    int64_t next_fact_id = sz_.facts_rows;
    for (size_t r = begin; r < end; ++r) {
      idle_[r] = SessionStatements(0, sz_.idle_stmts, &commit_rng);
      serial_[r] = SessionStatements(0, sz_.serial_stmts, &commit_rng);
      for (int s = 0; s < kBusySessions; ++s) {
        busy_[static_cast<size_t>(s)][r] =
            SessionStatements(s + 1, sz_.busy_stmts, &commit_rng);
      }
      for (int i = 0; i < sz_.query_pairs; ++i) {
        groups_[r].push_back(scan_rng.Below(kFactGroups));
      }
      // Writer rows use groups >= kFactGroups, which no query asks for, so
      // every answer keeps its reference count.
      for (int i = 0; i < sz_.writer_stmts; ++i) {
        const std::string table = i % 2 == 0 ? "facts_row" : "facts_col";
        writes_[r].push_back(
            "INSERT INTO " + table + " VALUES (" +
            std::to_string(next_fact_id++) + ", " +
            std::to_string(kFactGroups + scan_rng.Below(7)) + ", " +
            std::to_string(scan_rng.Below(kFactVRange)) + ", " +
            std::to_string(2 * scan_rng.Below(1000000)) + ")");
      }
    }
  }

  /// Single-row INSERT/UPDATE/DELETE (80/15/5) against session table `s`,
  /// keeping its reference set of live ids.
  std::vector<std::string> SessionStatements(int s, int n, Rng* rng) {
    std::vector<std::string> out;
    out.reserve(static_cast<size_t>(n));
    std::vector<int64_t>& live = live_ids_[s];
    const std::string table = SessionTable(s);
    for (int i = 0; i < n; ++i) {
      const int64_t r = rng->Below(100);
      if (r < 80 || live.size() < 2) {
        const int64_t id = next_session_id_++;
        live.push_back(id);
        out.push_back("INSERT INTO " + table + " VALUES (" +
                      std::to_string(id) + ", " +
                      std::to_string(rng->Below(1000)) + ", 0)");
        continue;
      }
      const size_t pos =
          static_cast<size_t>(rng->Below(static_cast<int64_t>(live.size())));
      const int64_t id = live[pos];
      if (r < 95) {
        out.push_back("UPDATE " + table + " SET v = " +
                      std::to_string(rng->Below(1000000)) + " WHERE id = " +
                      std::to_string(id));
      } else {
        live[pos] = live.back();
        live.pop_back();
        out.push_back("DELETE FROM " + table + " WHERE id = " +
                      std::to_string(id));
      }
    }
    return out;
  }

  // --- operations -----------------------------------------------------------

  /// Executes one autocommit DML statement. Untraced: one Executor call.
  /// Traced: ParseStatement, Begin, Insert/Update/Delete and Commit timed
  /// one by one, into `spans` unless it is null. Returns the send -> reply
  /// latency in µs, or a negative value when the statement did not commit.
  double RunDml(workload::Executor* exec, const std::string& sql,
                Spans* spans) {
    ++attempted_;
    auto t0 = SteadyClock::now();
    if (!trace_) {
      auto r = exec->Execute(sql);
      const double us = MicrosSince(t0);
      if (r.ok() && r->fate == workload::TxnFate::kCommitted) return us;
      NoteFailure(sql, r.ok() ? r->txn_status : r.status());
      return -1;
    }
    Coordinator* coord = exec->coordinator();
    auto stmt = workload::ParseStatement(sql);
    auto t1 = SteadyClock::now();
    if (!stmt.ok()) {
      NoteFailure(sql, stmt.status());
      return -1;
    }
    const TableId table = tables_.at(stmt->table);
    auto txn = coord->Begin();
    auto t2 = SteadyClock::now();
    if (!txn.ok()) {
      NoteFailure(sql, txn.status());
      return -1;
    }
    Status st;
    switch (stmt->kind) {
      case workload::StatementKind::kInsert:
        st = coord->Insert(*txn, table, stmt->values);
        break;
      case workload::StatementKind::kUpdate:
        st = coord->Update(*txn, table, stmt->predicate, stmt->sets);
        break;
      default:
        st = coord->Delete(*txn, table, stmt->predicate);
        break;
    }
    auto t3 = SteadyClock::now();
    if (!st.ok()) {
      (void)coord->Abort(*txn);
      NoteFailure(sql, st);
      return -1;
    }
    st = coord->Commit(*txn);
    auto t4 = SteadyClock::now();
    if (!st.ok()) {
      NoteFailure(sql, st);
      return -1;
    }
    auto us = [](auto a, auto b) {
      return std::chrono::duration<double, std::micro>(b - a).count();
    };
    if (spans != nullptr) {
      spans->parse_us.Add(us(t0, t1));
      spans->begin_us.Add(us(t1, t2));
      spans->dml_us.Add(us(t2, t3));
      spans->commit_us.Add(us(t3, t4));
    }
    return us(t0, t4);
  }

  /// Coordinator -> worker RPC of a transaction-state probe.
  void RpcProbe(int worker, Samples* out) {
    TxnMsg probe;
    probe.type = MsgType::kTxnStateProbe;
    probe.txn = kInvalidTxnId;
    ++attempted_;
    auto t0 = SteadyClock::now();
    auto reply = cluster_->network()->Call(cluster_->coordinator()->site_id(),
                                           Cluster::WorkerSite(worker),
                                           probe.Encode());
    const double us = MicrosSince(t0);
    if (!reply.ok()) {
      NoteFailure("rpc probe", reply.status());
      return;
    }
    out->Add(us);
  }

  /// Paced statements, each followed by kIdlePause, with nothing else
  /// running. In traced runs every fourth pause is followed by an RPC probe
  /// of `probe_worker` and another pause, so both the statements and the
  /// probes start after >= 1 ms idle.
  void PacedStatements(const std::vector<std::string>& stmts, int probe_worker,
                       Samples* latency_us) {
    const double cpu0 = ProcessCpuMicros();
    int n = 0;
    for (const std::string& sql : stmts) {
      const double us = RunDml(exec_.get(), sql, nullptr);
      if (us >= 0) latency_us->Add(us);
      std::this_thread::sleep_for(kIdlePause);
      if (trace_ && n++ % 4 == 3) {
        RpcProbe(probe_worker, &rpc_idle_us_);
        std::this_thread::sleep_for(kIdlePause);
      }
    }
    quiet_cpu_us_ += ProcessCpuMicros() - cpu0;
    quiet_stmts_ += static_cast<int64_t>(stmts.size());
  }

  /// Runs one selective query on `table` and checks its answer against the
  /// reference count. Untraced: one Executor call. Traced: ParseStatement,
  /// SnapshotTime and Coordinator::Query timed one by one. Returns the
  /// latency in ms, or a negative value on failure.
  double RunQuery(const std::string& table, int64_t grp, bool traced,
                  std::vector<int64_t>* ids) {
    const std::string sql = "SELECT * FROM " + table + " WHERE grp = " +
                            std::to_string(grp) + " AND v < 50";
    ++attempted_;
    auto t0 = SteadyClock::now();
    Result<std::vector<Tuple>> rows = std::vector<Tuple>{};
    if (!traced) {
      auto r = exec_->Execute(sql);
      if (r.ok()) {
        rows = std::move(r->rows);
      } else {
        rows = r.status();
      }
    } else {
      Coordinator* coord = exec_->coordinator();
      auto stmt = workload::ParseStatement(sql);
      auto t1 = SteadyClock::now();
      (void)coord->SnapshotTime();
      auto t2 = SteadyClock::now();
      rows = stmt.ok() ? coord->Query(tables_.at(table), stmt->predicate)
                       : Result<std::vector<Tuple>>(stmt.status());
      snapshot_time_us_.Add(
          std::chrono::duration<double, std::micro>(t2 - t1).count());
      (table == "facts_row" ? query_row_core_ms_ : query_col_core_ms_)
          .Add(MicrosSince(t2) * 1e-3);
    }
    const double ms = MicrosSince(t0) * 1e-3;
    if (!rows.ok()) {
      NoteFailure(sql, rows.status());
      return -1;
    }
    ids->clear();
    bool rows_match = true;
    for (const Tuple& t : *rows) {
      rows_match &= t.value(1).AsInt64() == grp && t.value(2).AsInt64() < 50;
      ids->push_back(t.value(0).AsInt64());
    }
    std::sort(ids->begin(), ids->end());
    Check(rows_match && static_cast<int64_t>(ids->size()) == fact_hits_[grp],
          sql + " returned " + std::to_string(ids->size()) +
              " rows, expected " + std::to_string(fact_hits_[grp]));
    return ms;
  }

  /// A query whose predicate matches no row but that no zone map can prune:
  /// scan plus visibility, without result shipping (traced runs only).
  void EmptyQuery(const std::string& table, int64_t grp, Samples* ms_out) {
    Predicate pred;
    pred.And("grp", CompareOp::kEq, Value(grp))
        .And("amount", CompareOp::kEq, Value(kEmptyAmount));
    ++attempted_;
    auto t0 = SteadyClock::now();
    auto rows = cluster_->coordinator()->Query(tables_.at(table), pred);
    const double ms = MicrosSince(t0) * 1e-3;
    if (!rows.ok()) {
      NoteFailure("empty query on " + table, rows.status());
      return;
    }
    Check(rows->empty(), "empty query on " + table + " returned rows");
    ms_out->Add(ms);
  }

  // --- stages ---------------------------------------------------------------

  void CommitRound(size_t r) {
    Round& round = rounds_[r];
    PacedStatements(idle_[r], /*probe_worker=*/0, &round.paced_us);
    for (const std::string& sql : serial_[r]) {
      const double us = RunDml(exec_.get(), sql, &serial_spans_);
      if (us >= 0) round.serial_us.Add(us);
    }

    std::vector<Samples> lat(kBusySessions);
    std::vector<Spans> spans(kBusySessions);
    std::vector<Samples> rpc(kBusySessions);
    runtime::Scheduler* sched = cluster_->scheduler();
    const int64_t tasks0 = sched->tasks_run();
    const int64_t spares0 = sched->spares_spawned();
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (size_t s = 0; s < kBusySessions; ++s) {
      threads.emplace_back([&, s] {
        workload::Executor session(cluster_.get());
        ready.fetch_add(1);
        while (ready.load() < kBusySessions) std::this_thread::yield();
        int n = 0;
        for (const std::string& sql : busy_[s][r]) {
          const double us = RunDml(&session, sql, &spans[s]);
          if (us >= 0) lat[s].Add(us);
          if (trace_ && ++n % 16 == 0) RpcProbe(static_cast<int>(s), &rpc[s]);
        }
      });
    }
    while (ready.load() < kBusySessions) std::this_thread::yield();
    const double cpu0 = ProcessCpuMicros();
    auto t0 = SteadyClock::now();
    for (auto& t : threads) t.join();
    const double wall_s = MicrosSince(t0) * 1e-6;
    const double cpu_us = ProcessCpuMicros() - cpu0;

    Samples all;
    for (size_t s = 0; s < kBusySessions; ++s) {
      all.Append(lat[s]);
      busy_dml_us_.Append(spans[s].dml_us);
      busy_commit_us_.Append(spans[s].commit_us);
      rpc_busy_us_.Append(rpc[s]);
    }
    const double commits = static_cast<double>(std::max<size_t>(all.size(), 1));
    round.busy_per_s = static_cast<double>(all.size()) / wall_s;
    round.busy_p50_us = all.Median();
    round.busy_cpu_us_per_commit = cpu_us / commits;
    busy_us_.Append(all);
    busy_tasks_ += sched->tasks_run() - tasks0;
    busy_spares_ += sched->spares_spawned() - spares0;
    busy_commits_ += static_cast<int64_t>(all.size());
  }

  /// The session table holds exactly the reference model's live ids.
  void CheckSessionTable(int s) {
    const std::string table = SessionTable(s);
    auto r = exec_->Execute("SELECT * FROM " + table);
    if (!r.ok()) {
      Fail("SELECT " + table + ": " + r.status().ToString());
      return;
    }
    std::vector<int64_t> got;
    for (const Tuple& t : r->rows) got.push_back(t.value(0).AsInt64());
    std::vector<int64_t> want = live_ids_[s];
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    Check(got == want, table + " holds " + std::to_string(got.size()) +
                           " rows, reference model " +
                           std::to_string(want.size()));
  }

  void ScanRound(size_t r) {
    Round& round = rounds_[r];
    // Untimed warm-up: a recovery cycle may have restarted the serving
    // replica, so its buffer pool is cold and its columnar images are gone.
    std::vector<int64_t> row_ids, col_ids;
    RunQuery("facts_row", groups_[r].front(), /*traced=*/false, &row_ids);
    RunQuery("facts_col", groups_[r].front(), /*traced=*/false, &col_ids);

    const double cpu0 = ProcessCpuMicros();
    std::thread writer([&] {
      workload::Executor session(cluster_.get());
      auto due = SteadyClock::now();
      int n = 0;
      for (const std::string& sql : writes_[r]) {
        std::this_thread::sleep_until(due);
        due += kWriterPeriod;
        const double us = RunDml(&session, sql, nullptr);
        if (us >= 0) round.writer_us.Add(us);
        // The probe sits mid-gap: >= 1 ms after the statement returned.
        if (trace_ && n++ % 4 == 3) {
          std::this_thread::sleep_for(kIdlePause);
          RpcProbe(n % 3, &writer_rpc_us_);
        }
      }
    });
    int queries = 0;
    for (size_t i = 0; i < groups_[r].size() && ok_; ++i) {
      const int64_t g = groups_[r][i];
      const double row = RunQuery("facts_row", g, trace_, &row_ids);
      const double col = RunQuery("facts_col", g, trace_, &col_ids);
      queries += 2;
      if (row >= 0) round.row_ms.Add(row);
      if (col >= 0) round.col_ms.Add(col);
      Check(row_ids == col_ids,
            "facts_row and facts_col disagree on group " + std::to_string(g));
      if (trace_ && i % 4 == 0) {
        EmptyQuery("facts_row", g, &row_empty_ms_);
        EmptyQuery("facts_col", g, &col_empty_ms_);
        queries += 2;
      }
    }
    writer.join();
    scan_cpu_us_ += ProcessCpuMicros() - cpu0;
    scan_queries_ += queries;
    rpc_idle_us_.Append(writer_rpc_us_);
    writer_rpc_us_ = Samples();
  }

  /// Checkpoint, crash a worker (round robin), bulk-load a delta into one
  /// table on the live replicas (the §4.2 load path), delete rows by id
  /// through the coordinator, then RecoverWorker. Even cycles use base_row,
  /// odd ones base_col.
  void RecoveryCycle(size_t c) {
    Round& round = rounds_[c];
    const std::string table = c % 2 == 0 ? "base_row" : "base_col";
    const int worker = static_cast<int>(c) % cluster_->num_workers();
    const int64_t del_group = static_cast<int64_t>(c / 2) % kFactGroups;
    const int64_t delta_group = 200 + static_cast<int64_t>(c);

    cluster_->AdvanceEpoch();  // everything so far precedes the checkpoint
    Status st = cluster_->CheckpointAll();
    Check(st.ok(), "CheckpointAll: " + st.ToString());
    auto t0 = SteadyClock::now();
    cluster_->CrashWorker(worker);
    crash_ms_.Add(MicrosSince(t0) * 1e-3);

    std::vector<LoadRow> delta;
    const Timestamp ts = cluster_->authority()->Now();
    for (int64_t j = 0; j < sz_.delta_rows; ++j) {
      const int64_t id =
          sz_.base_rows + static_cast<int64_t>(c) * sz_.delta_rows + j;
      LoadRow row;
      row.tuple_id =
          kLoadTupleBase + (TupleId{1} << 34) + static_cast<TupleId>(id);
      row.insertion_ts = ts;
      row.values = FactRow(seed_, kBaseSalt, id, delta_group);
      delta.push_back(std::move(row));
    }
    ++attempted_;
    st = cluster_->BulkLoad(tables_.at(table), delta);
    if (!st.ok()) NoteFailure("delta bulk load", st);

    size_t& next = deleted_[table][del_group];
    const std::vector<int64_t>& candidates =
        delete_order_[static_cast<size_t>(del_group)];
    std::vector<std::string> deletes;
    for (int d = 0; d < sz_.deletes_per_cycle && next < candidates.size();
         ++d) {
      deletes.push_back("DELETE FROM " + table + " WHERE id = " +
                        std::to_string(candidates[next++]));
    }
    group_rows_[table][del_group] -= static_cast<int64_t>(deletes.size());
    PacedStatements(deletes, (worker + 1) % cluster_->num_workers(),
                    &round.paced_us);
    cluster_->AdvanceEpoch();  // the delta and deletions become stable

    ++attempted_;
    t0 = SteadyClock::now();
    auto stats = cluster_->RecoverWorker(worker);
    const double total_ms = MicrosSince(t0) * 1e-3;
    if (!stats.ok()) {
      NoteFailure("RecoverWorker", stats.status());
      return;
    }
    size_t copied = 0, deletions = 0;
    const ObjectRecoveryStats* changed = nullptr;
    for (const ObjectRecoveryStats& o : stats->objects) {
      const size_t rows = o.phase2_tuples_copied + o.phase3_tuples_copied;
      copied += rows;
      deletions += o.phase2_deletions_copied + o.phase3_deletions_copied;
      if (rows > 0) changed = &o;
    }
    Check(copied == static_cast<size_t>(sz_.delta_rows) &&
              deletions == deletes.size() && changed != nullptr,
          "recovery copied " + std::to_string(copied) + " rows and " +
              std::to_string(deletions) + " deletions, expected " +
              std::to_string(sz_.delta_rows) + " and " +
              std::to_string(deletes.size()));
    CheckGroupCount(table, delta_group, sz_.delta_rows);
    CheckGroupCount(table, del_group, group_rows_[table][del_group]);
    if (changed == nullptr) return;

    LayoutStats& ls = layouts_[table == "base_row" ? "row" : "col"];
    ls.total_ms.Add(total_ms);
    ls.restart_ms.Add((stats->total_seconds - stats->offline_seconds -
                       stats->phase3_seconds) *
                      1e3);
    ls.phase1_ms.Add(stats->phase1_seconds * 1e3);
    ls.p2_ins_ms.Add(changed->phase2_insert_seconds * 1e3);
    ls.p2_del_ms.Add(changed->phase2_delete_seconds * 1e3);
    ls.phase3_ms.Add(stats->phase3_seconds * 1e3);
    ls.copy_us_per_row.Add(changed->phase2_insert_seconds * 1e6 /
                           static_cast<double>(copied));
    ls.rows.Add(static_cast<double>(copied));
    ls.rounds.Add(changed->phase2_rounds);
  }

  void CheckGroupCount(const std::string& table, int64_t grp, int64_t want) {
    const std::string sql =
        "SELECT * FROM " + table + " WHERE grp = " + std::to_string(grp);
    auto r = exec_->Execute(sql);
    if (!r.ok()) {
      Fail(sql + ": " + r.status().ToString());
      return;
    }
    Check(static_cast<int64_t>(r->rows.size()) == want,
          sql + " returned " + std::to_string(r->rows.size()) +
              " rows, expected " + std::to_string(want));
  }

  /// Two sessions insert into one shared table. Lock-wait timeouts there are
  /// a known defect; the probe reports their share and is not a workload
  /// operation, so its failures count neither as failed nor as incorrect.
  void ContentionProbe() {
    std::atomic<int> failures{0};
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int s = 0; s < kBusySessions; ++s) {
      threads.emplace_back([&, s] {
        workload::Executor session(cluster_.get());
        ready.fetch_add(1);
        while (ready.load() < kBusySessions) std::this_thread::yield();
        for (int i = 0; i < sz_.probe_stmts; ++i) {
          const int64_t id = int64_t{s} * 1000000 + i;
          auto r = session.Execute("INSERT INTO shared VALUES (" +
                                   std::to_string(id) + ", " +
                                   std::to_string(s) + ", 0)");
          if (!r.ok() || r->fate != workload::TxnFate::kCommitted) {
            failures.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    report_.layers["lock.shared_table_abort_frac"] = {
        static_cast<double>(failures.load()) /
            static_cast<double>(kBusySessions * sz_.probe_stmts),
        "fraction"};
  }

  // --- summary --------------------------------------------------------------

  void Finish() {
    auto& e = report_.e2e;
    auto& d = report_.diag;
    e["setup_s"] = {setup_s_.Median(), "s"};
    auto over_rounds = [this](double (*value)(const Round&)) {
      Samples s;
      for (const Round& r : rounds_) s.Add(value(r));
      return s.InterquartileMean();
    };
    e["commit_p50_us"] = {
        over_rounds([](const Round& r) { return r.serial_us.Median(); }), "us"};
    e["commit_p90_us"] = {
        over_rounds([](const Round& r) { return r.serial_us.Pct(0.9); }), "us"};
    e["commit_per_s"] = {
        over_rounds([](const Round& r) { return r.busy_per_s; }), "1/s"};
    e["commit_busy_p50_us"] = {
        over_rounds([](const Round& r) { return r.busy_p50_us; }), "us"};
    e["cpu_us_per_commit"] = {
        over_rounds([](const Round& r) { return r.busy_cpu_us_per_commit; }),
        "us"};
    e["query_row_p50_ms"] = {
        over_rounds([](const Round& r) { return r.row_ms.Median(); }), "ms"};
    e["query_row_p90_ms"] = {
        over_rounds([](const Round& r) { return r.row_ms.Pct(0.9); }), "ms"};
    e["query_col_p50_ms"] = {
        over_rounds([](const Round& r) { return r.col_ms.Median(); }), "ms"};
    e["query_col_p90_ms"] = {
        over_rounds([](const Round& r) { return r.col_ms.Pct(0.9); }), "ms"};
    e["recovery_row_ms"] = {layouts_["row"].total_ms.InterquartileMean(), "ms"};
    e["recovery_col_ms"] = {layouts_["col"].total_ms.InterquartileMean(), "ms"};
    e["peak_rss_mb"] = {PeakRssMb(), "MB"};

    // Ungated diagnostics: pooled tails with their sample counts, and the
    // paced statements, whose latency is mostly the host's wake-up latency.
    Samples serial, paced, writer, row, col;
    for (const Round& r : rounds_) {
      serial.Append(r.serial_us);
      paced.Append(r.paced_us);
      writer.Append(r.writer_us);
      row.Append(r.row_ms);
      col.Append(r.col_ms);
    }
    d["commit_p99_us"] = {serial.Pct(0.99), "us"};
    d["commit_samples"] = {static_cast<double>(serial.size()), "count"};
    d["paced_p50_us"] = {paced.Median(), "us"};
    d["paced_p90_us"] = {paced.Pct(0.9), "us"};
    d["paced_samples"] = {static_cast<double>(paced.size()), "count"};
    if (writer.size() > 0) {
      d["writer_p50_us"] = {writer.Median(), "us"};
      d["writer_p90_us"] = {writer.Pct(0.9), "us"};
      d["writer_samples"] = {static_cast<double>(writer.size()), "count"};
    }
    d["commit_busy_p99_us"] = {busy_us_.Pct(0.99), "us"};
    d["commit_busy_samples"] = {static_cast<double>(busy_us_.size()), "count"};
    d["query_row_p99_ms"] = {row.Pct(0.99), "ms"};
    d["query_col_p99_ms"] = {col.Pct(0.99), "ms"};
    d["query_samples_per_layout"] = {static_cast<double>(row.size()), "count"};
    d["recovery_cycles_per_layout"] = {
        static_cast<double>(layouts_["row"].total_ms.size()), "count"};
    if (!trace_) return;

    auto& l = report_.layers;
    const double commits =
        static_cast<double>(std::max<int64_t>(busy_commits_, 1));
    l["workload.parse_us"] = {serial_spans_.parse_us.Median(), "us"};
    l["core.begin_us"] = {serial_spans_.begin_us.Median(), "us"};
    l["core.dml_us"] = {serial_spans_.dml_us.Median(), "us"};
    l["core.commit_us"] = {serial_spans_.commit_us.Median(), "us"};
    l["core.dml_busy_us"] = {busy_dml_us_.Median(), "us"};
    l["core.commit_busy_us"] = {busy_commit_us_.Median(), "us"};
    l["net.rpc_idle_us"] = {rpc_idle_us_.Median(), "us"};
    l["net.rpc_busy_us"] = {rpc_busy_us_.Median(), "us"};
    l["runtime.tasks_per_commit"] = {
        static_cast<double>(busy_tasks_) / commits, "count"};
    l["runtime.spares_spawned"] = {static_cast<double>(busy_spares_), "count"};
    l["proc.cpu_us_per_commit_idle"] = {
        quiet_cpu_us_ /
            static_cast<double>(std::max<int64_t>(quiet_stmts_, 1)),
        "us"};
    const double rows = static_cast<double>(sz_.facts_rows);
    l["core.query_row_ms"] = {query_row_core_ms_.Median(), "ms"};
    l["core.query_col_ms"] = {query_col_core_ms_.Median(), "ms"};
    l["core.query_row_empty_ms"] = {row_empty_ms_.Median(), "ms"};
    l["core.query_col_empty_ms"] = {col_empty_ms_.Median(), "ms"};
    l["scan.row_rows_per_s"] = {rows / (row_empty_ms_.Median() * 1e-3),
                                "rows/s"};
    l["scan.col_rows_per_s"] = {rows / (col_empty_ms_.Median() * 1e-3),
                                "rows/s"};
    l["core.snapshot_time_us"] = {snapshot_time_us_.Median(), "us"};
    l["proc.cpu_ms_per_query"] = {
        scan_cpu_us_ * 1e-3 / std::max(scan_queries_, 1), "ms"};
    l["core.crash_ms"] = {crash_ms_.Median(), "ms"};
    for (auto& [name, ls] : layouts_) {
      const std::string p = "recovery." + name + ".";
      l[p + "restart_ms"] = {ls.restart_ms.Median(), "ms"};
      l[p + "phase1_ms"] = {ls.phase1_ms.Median(), "ms"};
      l[p + "phase2_insert_ms"] = {ls.p2_ins_ms.Median(), "ms"};
      l[p + "phase2_delete_ms"] = {ls.p2_del_ms.Median(), "ms"};
      l[p + "phase3_ms"] = {ls.phase3_ms.Median(), "ms"};
      l[p + "copy_us_per_row"] = {ls.copy_us_per_row.Median(), "us"};
      l[p + "rows_copied"] = {ls.rows.Median(), "count"};
      l[p + "phase2_rounds"] = {ls.rounds.Median(), "count"};
    }
    l["core.bulk_load_rows_per_s"] = {load_rows_per_s_.Median(), "rows/s"};
    l["core.checkpoint_ms"] = {checkpoint_ms_.Median(), "ms"};
    l["host.probe_ms"] = d["host.probe_ms"];
  }

  /// A fixed single-thread integer loop: how fast this host ran this run.
  static double HostProbeMs() {
    auto t0 = SteadyClock::now();
    uint64_t x = 1;
    for (int i = 0; i < 20000000; ++i) x = SplitMix64(x);
    const double ms = MicrosSince(t0) * 1e-3;
    if (x == 0) std::fprintf(stderr, "unreachable\n");  // keeps the loop
    return ms;
  }

  // --- failures -------------------------------------------------------------

  /// A workload operation that did not succeed: the run is incorrect.
  void NoteFailure(const std::string& what, const Status& st) {
    ++failed_;
    Fail(what + " failed: " + st.ToString());
  }

  /// Thread-safe: session threads report failures while the main thread
  /// runs its own checks.
  void Fail(std::string what) {
    ok_ = false;
    std::lock_guard<std::mutex> guard(failures_mu_);
    if (report_.failures.size() < 10) {
      report_.failures.push_back(std::move(what));
    }
  }
  void Check(bool cond, const std::string& what) {
    if (!cond) Fail(what);
  }

  const uint64_t seed_;
  const Sizes sz_;
  const bool trace_;
  const std::string data_dir_;

  std::unique_ptr<Cluster> cluster_;
  std::string cluster_dir_;
  std::map<std::string, TableId> tables_;
  std::unique_ptr<workload::Executor> exec_;  // the main session

  Report report_;
  std::mutex failures_mu_;  // guards report_.failures
  std::atomic<bool> ok_{true};
  std::atomic<int64_t> attempted_{0};
  std::atomic<int64_t> failed_{0};

  // Inputs per round, and the reference model.
  std::vector<std::vector<std::string>> idle_;
  std::vector<std::vector<std::string>> serial_;
  std::vector<std::vector<std::vector<std::string>>> busy_;  // [session][round]
  std::vector<std::vector<int64_t>> groups_;
  std::vector<std::vector<std::string>> writes_;
  std::map<int, std::vector<int64_t>> live_ids_;
  int64_t next_session_id_ = 1000000000;
  std::map<int64_t, int64_t> fact_hits_;
  std::vector<std::vector<int64_t>> delete_order_;  // per group
  std::map<std::string, std::map<int64_t, size_t>> deleted_;
  std::map<std::string, std::map<int64_t, int64_t>> group_rows_;

  // Measurements.
  Samples setup_s_, load_rows_per_s_, checkpoint_ms_;
  std::vector<Round> rounds_;
  Samples busy_us_;
  double quiet_cpu_us_ = 0;  // process CPU while only paced statements ran
  int64_t quiet_stmts_ = 0;
  double scan_cpu_us_ = 0;
  int scan_queries_ = 0;
  std::map<std::string, LayoutStats> layouts_;
  Samples crash_ms_;
  // Scan-writer probes of the current round, written by the writer thread
  // only and folded into rpc_idle_us_ after it joins.
  Samples writer_rpc_us_;
  // Per-layer spans and probes (traced runs).
  Spans serial_spans_;
  Samples busy_dml_us_, busy_commit_us_;
  Samples rpc_idle_us_, rpc_busy_us_;
  int64_t busy_tasks_ = 0;
  int64_t busy_spares_ = 0;
  int64_t busy_commits_ = 0;
  Samples snapshot_time_us_, query_row_core_ms_, query_col_core_ms_;
  Samples row_empty_ms_, col_empty_ms_;
};

// ---------------------------------------------------------------------------

std::string FsType(const std::string& dir) {
  struct statfs fs{};
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<uint64_t>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%llx",
                    static_cast<unsigned long long>(fs.f_type));
      return buf;
    }
  }
}

void PrintMetrics(const char* key, const std::map<std::string, Metric>& m) {
  std::printf("\"%s\": {", key);
  bool first = true;
  for (const auto& [name, metric] : m) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}");
}

int Usage() {
  std::fprintf(stderr,
               "usage: harbor_perf --workload trickle_commit|warehouse_scan|"
               "recovery_catchup --seed N --seconds S --trace 0|1 "
               "--data-dir DIR [--size full|tiny]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  if (argc % 2 == 0) return Usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  const std::string workload = args["workload"];
  if ((workload != "trickle_commit" && workload != "warehouse_scan" &&
       workload != "recovery_catchup") ||
      args["data-dir"].empty() || args["seed"].empty()) {
    return Usage();
  }
  const uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  const int seconds =
      args["seconds"].empty() ? 10 : std::atoi(args["seconds"].c_str());
  const bool trace = args["trace"] == "1";
  const bool tiny = args["size"] == "tiny";
  if (!(seconds > 0 && seconds <= 60)) return Usage();

  std::error_code ec;
  std::filesystem::create_directories(args["data-dir"], ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", args["data-dir"].c_str());
    return 2;
  }
  Bench bench(seed, SizesFor(workload, seconds, tiny), trace, args["data-dir"]);
  const Report r = bench.Run();
  for (const std::string& f : r.failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"data_dir_fs\": \"%s\", ",
              r.correct ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed),
              FsType(args["data-dir"]).c_str());
  PrintMetrics("metrics", r.e2e);
  std::printf(", ");
  PrintMetrics("layers", r.layers);
  std::printf(", ");
  PrintMetrics("diag", r.diag);
  std::printf("}\n");
  return r.correct ? 0 : 1;
}

}  // namespace
}  // namespace harbor::perf

int main(int argc, char** argv) { return harbor::perf::Main(argc, argv); }
