// Property-based tests: randomized workloads checked against an in-memory
// reference model, across replicas, across historical snapshots, and across
// crash/recovery — the invariants HARBOR must preserve no matter the
// interleaving.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/cluster.h"
#include "exec/seq_scan.h"
#include "tests/test_util.h"

namespace harbor {
namespace {

using test::SmallRow;
using test::SmallSchema;

// In-memory reference: key -> (qty, alive) per snapshot.
struct ReferenceRow {
  int64_t id;
  int64_t qty;
};
using Snapshot = std::map<int64_t, ReferenceRow>;  // keyed by id

struct ReferenceModel {
  Snapshot current;
  std::map<Timestamp, Snapshot> history;  // snapshot after each epoch

  void Record(Timestamp stable) { history[stable] = current; }
};

// Visible rows of worker `w`'s replica of the (single) table at `as_of`,
// remapped to logical order and keyed by id.
Snapshot ReplicaSnapshot(Cluster* cluster, int w, Timestamp as_of) {
  Worker* worker = cluster->worker(w);
  TableObject* obj = worker->local_catalog()->objects()[0];
  ScanSpec spec;
  spec.object_id = obj->object_id;
  spec.mode = ScanMode::kVisible;
  spec.as_of = as_of;
  SeqScanOperator scan(worker->store(), obj, spec);
  auto rows = scan.Collect();
  HARBOR_CHECK_OK(rows.status());
  auto mapping = SmallSchema().MappingFrom(obj->schema);
  HARBOR_CHECK_OK(mapping.status());
  Snapshot snap;
  for (const Tuple& t : *rows) {
    Tuple logical = t.RemapColumns(*mapping);
    int64_t id = logical.value(0).AsInt64();
    EXPECT_EQ(snap.count(id), 0u) << "duplicate visible id " << id;
    snap[id] = ReferenceRow{id, logical.value(1).AsInt64()};
  }
  return snap;
}

void ExpectSnapshotsEqual(const Snapshot& expected, const Snapshot& actual,
                          const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (const auto& [id, row] : expected) {
    auto it = actual.find(id);
    ASSERT_NE(it, actual.end()) << label << ": missing id " << id;
    EXPECT_EQ(it->second.qty, row.qty) << label << ": id " << id;
  }
}

// Packed-byte image of every tuple a kVisible scan returns at `as_of`,
// keyed by (tuple_id, insertion_ts) so physical return order does not
// matter. Used to BIT-compare the lock-free snapshot read path against the
// S-locking read path: same bytes, not merely same logical values.
using ScanImage = std::map<std::pair<TupleId, Timestamp>, std::vector<uint8_t>>;

ScanImage ReplicaScanImage(Cluster* cluster, int w, Timestamp as_of,
                           ScanLocking locking, LockOwnerId owner = 0,
                           ScanMode mode = ScanMode::kVisible,
                           const Predicate& predicate = Predicate()) {
  Worker* worker = cluster->worker(w);
  TableObject* obj = worker->local_catalog()->objects()[0];
  ScanSpec spec;
  spec.object_id = obj->object_id;
  spec.mode = mode;
  spec.as_of = as_of;
  spec.predicate = predicate;
  SeqScanOperator scan(worker->store(), obj, spec, owner, locking);
  auto rows = scan.Collect();
  HARBOR_CHECK_OK(rows.status());
  ScanImage image;
  std::vector<uint8_t> buf(obj->schema.tuple_bytes());
  for (const Tuple& t : *rows) {
    t.Pack(obj->schema, buf.data());
    image[{t.tuple_id(), t.insertion_ts()}] = buf;
  }
  return image;
}

// One or two random payload conjuncts over SmallSchema (id, qty, name):
// any operator, with constants of every numeric type near the data, at the
// type extremes, NaN and the infinities.
Predicate RandomPayloadPredicate(Random* rng) {
  constexpr CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe,
                                CompareOp::kLt, CompareOp::kLe,
                                CompareOp::kGt, CompareOp::kGe};
  Predicate p;
  const int n = 1 + static_cast<int>(rng->Uniform(2));
  for (int i = 0; i < n; ++i) {
    const CompareOp op = kOps[rng->Uniform(6)];
    if (rng->OneIn(0.25)) {
      const char* names[] = {"c", "", "b", "ghost", "cc"};
      p.And("name", op, Value(std::string(names[rng->Uniform(5)])));
      continue;
    }
    const int64_t k = rng->UniformRange(-5, 1005);
    Value rhs;
    switch (rng->Uniform(6)) {
      case 0: rhs = Value(static_cast<int32_t>(k)); break;
      case 1: rhs = Value(k); break;
      case 2: rhs = Value(static_cast<double>(k) + 0.5); break;
      case 3: rhs = Value(std::nan("")); break;
      case 4:
        rhs = Value(rng->OneIn(0.5) ? std::numeric_limits<int64_t>::max()
                                    : std::numeric_limits<int64_t>::min());
        break;
      default:
        rhs = Value(rng->OneIn(0.5) ? std::numeric_limits<double>::infinity()
                                    : -std::numeric_limits<double>::infinity());
    }
    p.And(rng->OneIn(0.5) ? "id" : "qty", op, rhs);
  }
  return p;
}

class RandomWorkloadTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomWorkloadTest, ReplicasMatchReferenceAtEverySnapshot) {
  const uint64_t seed = test::MixSeed(GetParam());
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " (reproduce with HARBOR_SEED=" +
               std::to_string(Random::GlobalSeed()) + ")");
  Random rng(seed);
  ClusterOptions opt;
  opt.num_workers = 2;
  opt.sim = SimConfig::Zero();
  ASSERT_OK_AND_ASSIGN(auto cluster, Cluster::Create(opt));
  TableSpec spec;
  spec.name = "t";
  spec.schema = SmallSchema();
  spec.default_segment_page_budget = 2;
  // Second replica permuted: the property must hold across physically
  // different layouts.
  ReplicaSpec r0;
  r0.worker_index = 0;
  r0.segment_page_budget = 2;
  ReplicaSpec r1;
  r1.worker_index = 1;
  r1.segment_page_budget = 5;
  r1.column_order = {1, 2, 0};
  spec.replicas = {r0, r1};
  ASSERT_OK_AND_ASSIGN(TableId table, cluster->CreateTable(spec));

  Coordinator* coord = cluster->coordinator();
  ReferenceModel model;
  int64_t next_id = 0;

  for (int epoch = 0; epoch < 8; ++epoch) {
    const int ops = 1 + static_cast<int>(rng.Uniform(12));
    for (int op = 0; op < ops; ++op) {
      ASSERT_OK_AND_ASSIGN(TxnId txn, coord->Begin());
      const int kind = static_cast<int>(rng.Uniform(4));
      bool mutated = false;
      if (kind <= 1 || model.current.empty()) {  // insert (50%)
        int64_t id = next_id++;
        int64_t qty = rng.UniformRange(0, 1000);
        ASSERT_OK(coord->Insert(txn, table,
                                {Value(id), Value(qty), Value("r")}));
        ASSERT_OK(coord->Commit(txn));
        model.current[id] = ReferenceRow{id, qty};
        mutated = true;
      } else {
        // Pick an existing id.
        auto it = model.current.begin();
        std::advance(it, rng.Uniform(model.current.size()));
        int64_t id = it->first;
        Predicate p;
        p.And("id", CompareOp::kEq, Value(id));
        if (kind == 2) {  // delete
          ASSERT_OK(coord->Delete(txn, table, p));
          ASSERT_OK(coord->Commit(txn));
          model.current.erase(id);
        } else {  // update
          int64_t qty = rng.UniformRange(0, 1000);
          ASSERT_OK(coord->Update(txn, table, p,
                                  {SetClause{"qty", Value(qty)}}));
          ASSERT_OK(coord->Commit(txn));
          model.current[id].qty = qty;
        }
        mutated = true;
      }
      (void)mutated;
    }
    // Occasionally abort a transaction: it must not perturb the model.
    if (rng.OneIn(0.5)) {
      ASSERT_OK_AND_ASSIGN(TxnId txn, coord->Begin());
      ASSERT_OK(coord->Insert(txn, table,
                              {Value(int64_t{888888}), Value(int64_t{1}),
                               Value("ghost")}));
      ASSERT_OK(coord->Abort(txn));
    }
    cluster->AdvanceEpoch();
    model.Record(cluster->authority()->StableTime());
  }

  // Invariant 1: every replica equals the reference at every recorded
  // historical snapshot (time travel correctness on both layouts).
  for (const auto& [ts, snap] : model.history) {
    for (int w = 0; w < 2; ++w) {
      ExpectSnapshotsEqual(snap, ReplicaSnapshot(cluster.get(), w, ts),
                           "worker " + std::to_string(w) + " @" +
                               std::to_string(ts));
    }
  }
}

// The snapshot-correctness property: at every recorded stable timestamp, a
// lock-free snapshot scan is byte-identical to an S-locking scan at the
// same timestamp, and both equal the serial in-memory reference — on both
// replica layouts, after a random mix of inserts, updates, deletes, and
// aborts.
TEST_P(RandomWorkloadTest, SnapshotScanBitEqualsLockingScanAndReference) {
  const uint64_t seed = test::MixSeed(GetParam() * 104729 + 7);
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " (reproduce with HARBOR_SEED=" +
               std::to_string(Random::GlobalSeed()) + ")");
  Random rng(seed);
  ClusterOptions opt;
  opt.num_workers = 2;
  opt.sim = SimConfig::Zero();
  ASSERT_OK_AND_ASSIGN(auto cluster, Cluster::Create(opt));
  TableSpec spec;
  spec.name = "t";
  spec.schema = SmallSchema();
  spec.default_segment_page_budget = 2;
  ReplicaSpec r0;
  r0.worker_index = 0;
  r0.segment_page_budget = 2;
  ReplicaSpec r1;
  r1.worker_index = 1;
  r1.segment_page_budget = 4;
  r1.column_order = {2, 0, 1};
  spec.replicas = {r0, r1};
  ASSERT_OK_AND_ASSIGN(TableId table, cluster->CreateTable(spec));

  Coordinator* coord = cluster->coordinator();
  ReferenceModel model;
  int64_t next_id = 0;

  for (int epoch = 0; epoch < 6; ++epoch) {
    const int ops = 1 + static_cast<int>(rng.Uniform(10));
    for (int op = 0; op < ops; ++op) {
      ASSERT_OK_AND_ASSIGN(TxnId txn, coord->Begin());
      const int kind = static_cast<int>(rng.Uniform(4));
      if (kind <= 1 || model.current.empty()) {
        int64_t id = next_id++;
        int64_t qty = rng.UniformRange(0, 1000);
        ASSERT_OK(
            coord->Insert(txn, table, {Value(id), Value(qty), Value("s")}));
        ASSERT_OK(coord->Commit(txn));
        model.current[id] = ReferenceRow{id, qty};
      } else {
        auto it = model.current.begin();
        std::advance(it, rng.Uniform(model.current.size()));
        int64_t id = it->first;
        Predicate p;
        p.And("id", CompareOp::kEq, Value(id));
        if (kind == 2) {
          ASSERT_OK(coord->Delete(txn, table, p));
          ASSERT_OK(coord->Commit(txn));
          model.current.erase(id);
        } else {
          int64_t qty = rng.UniformRange(0, 1000);
          ASSERT_OK(
              coord->Update(txn, table, p, {SetClause{"qty", Value(qty)}}));
          ASSERT_OK(coord->Commit(txn));
          model.current[id].qty = qty;
        }
      }
    }
    if (rng.OneIn(0.5)) {  // an abort must not perturb any snapshot
      ASSERT_OK_AND_ASSIGN(TxnId txn, coord->Begin());
      ASSERT_OK(coord->Insert(txn, table,
                              {Value(int64_t{777777}), Value(int64_t{1}),
                               Value("ghost")}));
      ASSERT_OK(coord->Abort(txn));
    }
    cluster->AdvanceEpoch();
    model.Record(cluster->authority()->StableTime());
  }

  constexpr LockOwnerId kScanOwner = 0x5CA7;
  for (const auto& [ts, snap] : model.history) {
    for (int w = 0; w < 2; ++w) {
      const std::string label =
          "worker " + std::to_string(w) + " @" + std::to_string(ts);
      ScanImage lock_free =
          ReplicaScanImage(cluster.get(), w, ts, ScanLocking::kSnapshot);
      ScanImage locked = ReplicaScanImage(cluster.get(), w, ts,
                                          ScanLocking::kPageLocks, kScanOwner);
      cluster->worker(w)->locks()->ReleaseAll(kScanOwner);
      EXPECT_EQ(cluster->worker(w)->locks()->NumLockedResources(), 0u);
      // Bit-identical: the snapshot path reads exactly the bytes the
      // locking path reads.
      EXPECT_EQ(lock_free, locked) << label;
      EXPECT_EQ(lock_free.size(), snap.size()) << label;
      // And both agree with the serial reference model.
      ExpectSnapshotsEqual(snap, ReplicaSnapshot(cluster.get(), w, ts),
                           label);
    }
  }
}

TEST_P(RandomWorkloadTest, RecoveryReproducesReferenceAfterRandomCrash) {
  const uint64_t seed = test::MixSeed(GetParam() * 7919 + 13);
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " (reproduce with HARBOR_SEED=" +
               std::to_string(Random::GlobalSeed()) + ")");
  Random rng(seed);
  ClusterOptions opt;
  opt.num_workers = 2;
  opt.sim = SimConfig::Zero();
  ASSERT_OK_AND_ASSIGN(auto cluster, Cluster::Create(opt));
  TableSpec spec;
  spec.name = "t";
  spec.schema = SmallSchema();
  spec.default_segment_page_budget = 2;
  ASSERT_OK_AND_ASSIGN(TableId table, cluster->CreateTable(spec));
  Coordinator* coord = cluster->coordinator();

  Snapshot model;
  int64_t next_id = 0;
  const int crash_after = 5 + static_cast<int>(rng.Uniform(30));
  const int total_ops = crash_after + 5 + static_cast<int>(rng.Uniform(30));
  // A checkpoint lands at a random spot before the crash.
  const int checkpoint_at = static_cast<int>(rng.Uniform(crash_after));

  for (int op = 0; op < total_ops; ++op) {
    if (op == checkpoint_at) {
      cluster->AdvanceEpoch();
      ASSERT_OK(cluster->CheckpointAll());
    }
    if (op == crash_after) {
      cluster->AdvanceEpoch();
      cluster->CrashWorker(1);
    }
    ASSERT_OK_AND_ASSIGN(TxnId txn, coord->Begin());
    const int kind = static_cast<int>(rng.Uniform(4));
    if (kind <= 1 || model.empty()) {
      int64_t id = next_id++;
      int64_t qty = rng.UniformRange(0, 100);
      ASSERT_OK(coord->Insert(txn, table, {Value(id), Value(qty), Value("x")}));
      ASSERT_OK(coord->Commit(txn));
      model[id] = ReferenceRow{id, qty};
    } else {
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      int64_t id = it->first;
      Predicate p;
      p.And("id", CompareOp::kEq, Value(id));
      if (kind == 2) {
        ASSERT_OK(coord->Delete(txn, table, p));
        ASSERT_OK(coord->Commit(txn));
        model.erase(id);
      } else {
        int64_t qty = rng.UniformRange(0, 100);
        ASSERT_OK(coord->Update(txn, table, p, {SetClause{"qty", Value(qty)}}));
        ASSERT_OK(coord->Commit(txn));
        model[id].qty = qty;
      }
    }
  }

  ASSERT_OK(cluster->RecoverWorker(1).status());
  cluster->AdvanceEpoch();
  const Timestamp now = cluster->authority()->StableTime();
  // Invariant: the recovered replica equals both the live replica and the
  // reference model.
  ExpectSnapshotsEqual(model, ReplicaSnapshot(cluster.get(), 0, now), "live");
  ExpectSnapshotsEqual(model, ReplicaSnapshot(cluster.get(), 1, now),
                       "recovered");
}

// The storage-format property: a row-format replica and a columnar replica
// of the same table return BIT-identical scan results — across the
// lock-free snapshot path, the S-locking path, the plain lock-free path,
// and HISTORICAL time travel — and both equal the serial reference model.
// The columnar replica's sealed segments are served from encoded vectors;
// nothing about that encoding may leak into results.
TEST_P(RandomWorkloadTest, ColumnarReplicaBitEqualsRowReplicaAcrossModes) {
  const uint64_t seed = test::MixSeed(GetParam() * 52361 + 31);
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " (reproduce with HARBOR_SEED=" +
               std::to_string(Random::GlobalSeed()) + ")");
  Random rng(seed);
  ClusterOptions opt;
  opt.num_workers = 2;
  opt.sim = SimConfig::Zero();
  ASSERT_OK_AND_ASSIGN(auto cluster, Cluster::Create(opt));
  TableSpec spec;
  spec.name = "t";
  spec.schema = SmallSchema();
  // Identical physical layout on both workers — only the storage format
  // differs — so packed tuple images are directly comparable. Tiny segment
  // budget: the workload keeps sealing segments, so most data is served
  // from columnar images on worker 1.
  ReplicaSpec row_replica;
  row_replica.worker_index = 0;
  row_replica.segment_page_budget = 2;
  row_replica.columnar = 0;
  ReplicaSpec columnar_replica;
  columnar_replica.worker_index = 1;
  columnar_replica.segment_page_budget = 2;
  columnar_replica.columnar = 1;
  spec.replicas = {row_replica, columnar_replica};
  ASSERT_OK_AND_ASSIGN(TableId table, cluster->CreateTable(spec));
  ASSERT_TRUE(cluster->worker(1)->local_catalog()->objects()[0]->columnar);

  Coordinator* coord = cluster->coordinator();
  ReferenceModel model;
  int64_t next_id = 0;

  // Bulk-load enough rows that several 2-page segments seal: sealed
  // segments are exactly what the columnar path serves.
  for (int batch = 0; batch < 4; ++batch) {
    ASSERT_OK_AND_ASSIGN(TxnId txn, coord->Begin());
    for (int i = 0; i < 100; ++i) {
      int64_t id = next_id++;
      int64_t qty = rng.UniformRange(0, 1000);
      ASSERT_OK(
          coord->Insert(txn, table, {Value(id), Value(qty), Value("c")}));
      model.current[id] = ReferenceRow{id, qty};
    }
    ASSERT_OK(coord->Commit(txn));
    cluster->AdvanceEpoch();
    model.Record(cluster->authority()->StableTime());
  }

  for (int epoch = 0; epoch < 6; ++epoch) {
    const int ops = 1 + static_cast<int>(rng.Uniform(10));
    for (int op = 0; op < ops; ++op) {
      ASSERT_OK_AND_ASSIGN(TxnId txn, coord->Begin());
      const int kind = static_cast<int>(rng.Uniform(4));
      if (kind <= 1 || model.current.empty()) {
        int64_t id = next_id++;
        int64_t qty = rng.UniformRange(0, 1000);
        ASSERT_OK(
            coord->Insert(txn, table, {Value(id), Value(qty), Value("c")}));
        ASSERT_OK(coord->Commit(txn));
        model.current[id] = ReferenceRow{id, qty};
      } else {
        auto it = model.current.begin();
        std::advance(it, rng.Uniform(model.current.size()));
        int64_t id = it->first;
        Predicate p;
        p.And("id", CompareOp::kEq, Value(id));
        if (kind == 2) {
          ASSERT_OK(coord->Delete(txn, table, p));
          ASSERT_OK(coord->Commit(txn));
          model.current.erase(id);
        } else {
          int64_t qty = rng.UniformRange(0, 1000);
          ASSERT_OK(
              coord->Update(txn, table, p, {SetClause{"qty", Value(qty)}}));
          ASSERT_OK(coord->Commit(txn));
          model.current[id].qty = qty;
        }
      }
    }
    if (rng.OneIn(0.5)) {  // an abort must not perturb either format
      ASSERT_OK_AND_ASSIGN(TxnId txn, coord->Begin());
      ASSERT_OK(coord->Insert(txn, table,
                              {Value(int64_t{666666}), Value(int64_t{1}),
                               Value("ghost")}));
      ASSERT_OK(coord->Abort(txn));
    }
    cluster->AdvanceEpoch();
    model.Record(cluster->authority()->StableTime());
  }

  constexpr LockOwnerId kScanOwner = 0x5CB8;
  for (const auto& [ts, snap] : model.history) {
    const std::string at = " @" + std::to_string(ts);
    // kVisible across all three locking paths.
    for (ScanLocking locking : {ScanLocking::kNone, ScanLocking::kSnapshot,
                                ScanLocking::kPageLocks}) {
      const LockOwnerId owner =
          locking == ScanLocking::kPageLocks ? kScanOwner : 0;
      ScanImage row_image =
          ReplicaScanImage(cluster.get(), 0, ts, locking, owner);
      ScanImage col_image =
          ReplicaScanImage(cluster.get(), 1, ts, locking, owner);
      for (int w = 0; w < 2; ++w) {
        cluster->worker(w)->locks()->ReleaseAll(kScanOwner);
      }
      EXPECT_EQ(row_image, col_image)
          << "locking " << static_cast<int>(locking) << at;
      EXPECT_EQ(col_image.size(), snap.size()) << at;
    }
    // HISTORICAL (SEE DELETED, deletions after as_of masked) — the
    // recovery read mode — must also agree bit-for-bit.
    ScanImage row_hist =
        ReplicaScanImage(cluster.get(), 0, ts, ScanLocking::kNone, 0,
                         ScanMode::kSeeDeletedHistorical);
    ScanImage col_hist =
        ReplicaScanImage(cluster.get(), 1, ts, ScanLocking::kNone, 0,
                         ScanMode::kSeeDeletedHistorical);
    EXPECT_EQ(row_hist, col_hist) << "historical" << at;
    // Random payload predicates: both formats keep the same versions, and
    // exactly the reference rows the predicate accepts.
    for (int q = 0; q < 4; ++q) {
      const Predicate pred = RandomPayloadPredicate(&rng);
      ScanImage row_q = ReplicaScanImage(cluster.get(), 0, ts,
                                         ScanLocking::kSnapshot, 0,
                                         ScanMode::kVisible, pred);
      ScanImage col_q = ReplicaScanImage(cluster.get(), 1, ts,
                                         ScanLocking::kSnapshot, 0,
                                         ScanMode::kVisible, pred);
      EXPECT_EQ(row_q, col_q) << pred.ToString() << at;
      ASSERT_OK_AND_ASSIGN(auto bound, pred.Bind(SmallSchema()));
      size_t want = 0;
      for (const auto& [id, row] : snap) {
        want += pred.EvalBound(bound, Tuple(SmallRow(id, row.qty, "c")));
      }
      EXPECT_EQ(col_q.size(), want) << pred.ToString() << at;
    }
    // And the columnar replica equals the serial reference.
    ExpectSnapshotsEqual(snap, ReplicaSnapshot(cluster.get(), 1, ts),
                         "columnar" + at);
  }
  // Sealed segments really were served columnarly on worker 1.
  TableObject* col_obj = cluster->worker(1)->local_catalog()->objects()[0];
  EXPECT_GT(col_obj->columnar_cache.builds(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomWorkloadTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 42));

TEST(PropertyTest, SegmentAnnotationsAlwaysCoverContents) {
  // Invariant: for every segment, min_insertion <= every committed
  // insertion ts <= max_insertion and every deletion ts <= max_deletion —
  // the soundness condition for recovery pruning (§4.2).
  Random rng(99);
  ClusterOptions opt;
  opt.num_workers = 1;
  opt.sim = SimConfig::Zero();
  ASSERT_OK_AND_ASSIGN(auto cluster, Cluster::Create(opt));
  TableSpec spec;
  spec.name = "t";
  spec.schema = SmallSchema();
  spec.default_segment_page_budget = 1;  // many segments
  ASSERT_OK_AND_ASSIGN(TableId table, cluster->CreateTable(spec));
  Coordinator* coord = cluster->coordinator();

  for (int i = 0; i < 300; ++i) {
    ASSERT_OK(coord->InsertTxn(table, {Value(int64_t{i}),
                                       Value(int64_t{i}), Value("x")}));
    if (rng.OneIn(0.2)) cluster->AdvanceEpoch();
    if (i % 50 == 49) {
      ASSERT_OK_AND_ASSIGN(TxnId txn, coord->Begin());
      Predicate p;
      p.And("id", CompareOp::kEq, Value(int64_t{rng.UniformRange(0, i)}));
      ASSERT_OK(coord->Delete(txn, table, p));
      ASSERT_OK(coord->Commit(txn));
    }
  }

  Worker* w = cluster->worker(0);
  TableObject* obj = w->local_catalog()->objects()[0];
  ScanSpec all;
  all.object_id = obj->object_id;
  all.mode = ScanMode::kSeeDeleted;
  SeqScanOperator scan(w->store(), obj, all);
  ASSERT_OK_AND_ASSIGN(auto rows, scan.Collect());
  for (const Tuple& t : rows) {
    ASSERT_OK_AND_ASSIGN(size_t seg,
                         obj->file->SegmentOfPage(t.record_id().page.page_no));
    SegmentInfo info = obj->file->segment(seg);
    if (t.insertion_ts() != kUncommittedTimestamp) {
      EXPECT_GE(t.insertion_ts(), info.min_insertion);
      EXPECT_LE(t.insertion_ts(), info.max_insertion);
    }
    if (t.deletion_ts() != kNotDeleted) {
      EXPECT_LE(t.deletion_ts(), info.max_deletion);
    }
  }
}

}  // namespace
}  // namespace harbor
