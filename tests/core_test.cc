// Unit tests for core building blocks: protocol message serialization, the
// global catalog's recovery-cover planning, update requests, checkpoint
// records, and the liveness directory.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>

#include "core/checkpoint_file.h"
#include "core/global_catalog.h"
#include "core/liveness.h"
#include "core/messages.h"
#include "core/protocol.h"
#include "tests/test_util.h"

namespace harbor {
namespace {

using test::MakeTempDir;
using test::SmallSchema;

// ----------------------------------------------------------- protocol.h

TEST(ProtocolTest, LoggingMatrixMatchesTable42) {
  EXPECT_TRUE(WorkerLogs(CommitProtocol::kTraditional2PC));
  EXPECT_FALSE(WorkerLogs(CommitProtocol::kOptimized2PC));
  EXPECT_TRUE(WorkerLogs(CommitProtocol::kCanonical3PC));
  EXPECT_FALSE(WorkerLogs(CommitProtocol::kOptimized3PC));
  EXPECT_TRUE(CoordinatorLogs(CommitProtocol::kTraditional2PC));
  EXPECT_TRUE(CoordinatorLogs(CommitProtocol::kOptimized2PC));
  EXPECT_FALSE(CoordinatorLogs(CommitProtocol::kCanonical3PC));
  EXPECT_FALSE(CoordinatorLogs(CommitProtocol::kOptimized3PC));
  EXPECT_FALSE(IsThreePhase(CommitProtocol::kTraditional2PC));
  EXPECT_TRUE(IsThreePhase(CommitProtocol::kCanonical3PC));
}

// ------------------------------------------------------------- messages

TEST(MessagesTest, ExecUpdateRoundTrip) {
  ExecUpdateMsg m;
  m.txn = 77;
  m.coordinator = 0;
  m.request.kind = UpdateRequest::Kind::kInsert;
  m.request.table_id = 3;
  m.request.values = test::SmallRow(1, 2, "x");
  m.request.tuple_id = 99;
  m.request.cpu_work_cycles = 1234;
  ASSERT_OK_AND_ASSIGN(ExecUpdateMsg back, ExecUpdateMsg::Decode(m.Encode()));
  EXPECT_EQ(back.txn, 77u);
  EXPECT_EQ(back.request.tuple_id, 99u);
  EXPECT_EQ(back.request.values.size(), 3u);
  EXPECT_EQ(back.request.cpu_work_cycles, 1234);
}

TEST(MessagesTest, UpdateRequestVariantsRoundTrip) {
  UpdateRequest del;
  del.kind = UpdateRequest::Kind::kDelete;
  del.table_id = 1;
  del.predicate.And("id", CompareOp::kLt, Value(int64_t{5}));
  ByteBufferWriter w;
  del.Serialize(&w);
  ByteBufferReader r(w.data());
  ASSERT_OK_AND_ASSIGN(UpdateRequest back, UpdateRequest::Deserialize(&r));
  EXPECT_EQ(back.kind, UpdateRequest::Kind::kDelete);
  EXPECT_EQ(back.predicate.ToString(), del.predicate.ToString());

  UpdateRequest upd;
  upd.kind = UpdateRequest::Kind::kUpdate;
  upd.table_id = 2;
  upd.sets.push_back(SetClause{"qty", Value(int64_t{9})});
  ByteBufferWriter w2;
  upd.Serialize(&w2);
  ByteBufferReader r2(w2.data());
  ASSERT_OK_AND_ASSIGN(back, UpdateRequest::Deserialize(&r2));
  ASSERT_EQ(back.sets.size(), 1u);
  EXPECT_EQ(back.sets[0].column, "qty");
}

TEST(MessagesTest, ScanReplyBothModes) {
  ScanReplyMsg full;
  full.schema = SmallSchema();
  Tuple t(test::SmallRow(1, 2, "x"));
  t.set_tuple_id(9);
  t.set_insertion_ts(3);
  full.tuples.push_back(t);
  ASSERT_OK_AND_ASSIGN(ScanReplyMsg back, ScanReplyMsg::Decode(full.Encode()));
  ASSERT_EQ(back.tuples.size(), 1u);
  EXPECT_EQ(back.tuples[0], t);

  ScanReplyMsg minimal;
  minimal.minimal = true;
  minimal.id_deletions = {IdDeletion{4, 7, 2}, IdDeletion{5, 0, 3}};
  ASSERT_OK_AND_ASSIGN(back, ScanReplyMsg::Decode(minimal.Encode()));
  ASSERT_EQ(back.id_deletions.size(), 2u);
  EXPECT_EQ(back.id_deletions[0], (IdDeletion{4, 7, 2}));
}

TEST(MessagesTest, ScanChunkFieldsRoundTrip) {
  // Request side: chunk limit + continuation cursor.
  ScanMsg req;
  req.spec.object_id = 7;
  req.spec.mode = ScanMode::kSeeDeletedHistorical;
  req.spec.as_of = 99;
  req.max_tuples = 512;
  req.has_cursor = true;
  req.cursor_insertion_ts = 41;
  req.cursor_tuple_id = 1234;
  ASSERT_OK_AND_ASSIGN(ScanMsg back, ScanMsg::Decode(req.Encode()));
  EXPECT_EQ(back.max_tuples, 512u);
  EXPECT_TRUE(back.has_cursor);
  EXPECT_EQ(back.cursor_insertion_ts, 41u);
  EXPECT_EQ(back.cursor_tuple_id, 1234u);

  // Reply side: truncation flag + resume key, in both payload modes.
  ScanReplyMsg full;
  full.schema = SmallSchema();
  Tuple t(test::SmallRow(1, 2, "x"));
  t.set_tuple_id(9);
  t.set_insertion_ts(3);
  full.tuples.push_back(t);
  full.truncated = true;
  full.last_insertion_ts = 3;
  full.last_tuple_id = 9;
  ASSERT_OK_AND_ASSIGN(ScanReplyMsg reply, ScanReplyMsg::Decode(full.Encode()));
  EXPECT_TRUE(reply.truncated);
  EXPECT_EQ(reply.last_insertion_ts, 3u);
  EXPECT_EQ(reply.last_tuple_id, 9u);

  ScanReplyMsg minimal;
  minimal.minimal = true;
  minimal.id_deletions = {IdDeletion{4, 7, 2}};
  minimal.truncated = true;
  minimal.last_insertion_ts = 7;
  minimal.last_tuple_id = 4;
  ASSERT_OK_AND_ASSIGN(reply, ScanReplyMsg::Decode(minimal.Encode()));
  EXPECT_TRUE(reply.truncated);
  EXPECT_EQ(reply.last_insertion_ts, 7u);
  EXPECT_EQ(reply.last_tuple_id, 4u);
}

TEST(MessagesTest, ScanDefaultsToMonolithicNoCursor) {
  ScanMsg req;
  req.spec.object_id = 1;
  ASSERT_OK_AND_ASSIGN(ScanMsg back, ScanMsg::Decode(req.Encode()));
  EXPECT_EQ(back.max_tuples, 0u);
  EXPECT_FALSE(back.has_cursor);
}

TEST(MessagesTest, SnapshotFieldsRoundTrip) {
  // The piggybacked stable-time mark on commit-protocol traffic.
  CommitTsMsg commit;
  commit.type = MsgType::kCommit;
  commit.txn = 11;
  commit.commit_ts = 42;
  commit.stable_ts = 40;
  ASSERT_OK_AND_ASSIGN(CommitTsMsg cback, CommitTsMsg::Decode(commit.Encode()));
  EXPECT_EQ(cback.commit_ts, 42u);
  EXPECT_EQ(cback.stable_ts, 40u);

  TxnMsg abort;
  abort.type = MsgType::kAbort;
  abort.txn = 12;
  abort.stable_ts = 39;
  ASSERT_OK_AND_ASSIGN(TxnMsg tback, TxnMsg::Decode(abort.Encode()));
  EXPECT_EQ(tback.stable_ts, 39u);

  // Snapshot-read scans: lock-free flag plus the pinned insertion cap.
  ScanMsg req;
  req.spec.object_id = 7;
  req.spec.mode = ScanMode::kVisible;
  req.spec.as_of = 40;
  req.snapshot_read = true;
  req.cap_insertion_ts = 41;
  ASSERT_OK_AND_ASSIGN(ScanMsg sback, ScanMsg::Decode(req.Encode()));
  EXPECT_TRUE(sback.snapshot_read);
  EXPECT_EQ(sback.cap_insertion_ts, 41u);
  EXPECT_EQ(sback.spec.as_of, 40u);

  ScanReplyMsg reply;
  reply.schema = SmallSchema();
  reply.cap_insertion_ts = 43;
  ASSERT_OK_AND_ASSIGN(ScanReplyMsg rback, ScanReplyMsg::Decode(reply.Encode()));
  EXPECT_EQ(rback.cap_insertion_ts, 43u);

  // Defaults: both new fields decode to "absent" on old-style messages.
  ScanMsg plain;
  plain.spec.object_id = 1;
  ASSERT_OK_AND_ASSIGN(ScanMsg pback, ScanMsg::Decode(plain.Encode()));
  EXPECT_FALSE(pback.snapshot_read);
  EXPECT_EQ(pback.cap_insertion_ts, 0u);
}

TEST(MessagesTest, ComingOnlineRoundTrip) {
  ComingOnlineMsg m;
  m.site = 3;
  m.objects.emplace_back(1, PartitionRange::Full());
  m.objects.emplace_back(2, PartitionRange::On("id", 0, 10));
  ASSERT_OK_AND_ASSIGN(ComingOnlineMsg back,
                       ComingOnlineMsg::Decode(m.Encode()));
  EXPECT_EQ(back.site, 3u);
  ASSERT_EQ(back.objects.size(), 2u);
  EXPECT_EQ(back.objects[1].second, PartitionRange::On("id", 0, 10));
}

// -------------------------------------------------------- global catalog

class GlobalCatalogTest : public ::testing::Test {
 protected:
  GlobalCatalogTest() {
    auto table = catalog_.AddTable("emp", SmallSchema());
    HARBOR_CHECK_OK(table.status());
    table_ = *table;
  }

  std::function<bool(SiteId)> AllAlive() {
    return [](SiteId) { return true; };
  }
  std::function<bool(SiteId)> Except(SiteId dead) {
    return [dead](SiteId s) { return s != dead; };
  }

  GlobalCatalog catalog_;
  TableId table_;
};

TEST_F(GlobalCatalogTest, DuplicateTableNameRejected) {
  EXPECT_TRUE(catalog_.AddTable("emp", SmallSchema()).status()
                  .IsAlreadyExists());
}

TEST_F(GlobalCatalogTest, ReplicaSchemaMustMatchLogically) {
  EXPECT_TRUE(catalog_
                  .AddReplica(table_, 1, PartitionRange::Full(),
                              Schema({Column::Int64("other")}), 8)
                  .status()
                  .IsInvalidArgument());
  EXPECT_OK(catalog_
                .AddReplica(table_, 1, PartitionRange::Full(),
                            SmallSchema().Reordered({2, 1, 0}), 8)
                .status());
}

TEST_F(GlobalCatalogTest, PlanCoverPrefersFullReplica) {
  ASSERT_OK(catalog_.AddReplica(table_, 1, PartitionRange::Full(),
                                SmallSchema(), 8).status());
  ASSERT_OK(catalog_.AddReplica(table_, 2, PartitionRange::Full(),
                                SmallSchema(), 8).status());
  ASSERT_OK_AND_ASSIGN(
      auto plan, catalog_.PlanCover(table_, PartitionRange::Full(), 1,
                                    AllAlive()));
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].site, 2u);  // the recovering site is excluded
}

TEST_F(GlobalCatalogTest, PlanCoverAssemblesPartitions) {
  // The §5.1 example: EMP1 (full) on site 1, EMP2A/EMP2B halves on 2 and 3.
  ASSERT_OK(catalog_.AddReplica(table_, 1, PartitionRange::Full(),
                                SmallSchema(), 8).status());
  ASSERT_OK(catalog_.AddReplica(table_, 2, PartitionRange::On("id", 0, 1000),
                                SmallSchema(), 8).status());
  ASSERT_OK(catalog_.AddReplica(table_, 3,
                                PartitionRange::On("id", 1000, 2000),
                                SmallSchema(), 8).status());
  // Recovering the partition "salary < 5000" analogue: a sub-range.
  ASSERT_OK_AND_ASSIGN(
      auto plan,
      catalog_.PlanCover(table_, PartitionRange::On("id", 500, 1500), 1,
                         Except(1)));
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].site, 2u);
  EXPECT_EQ(plan[0].predicate, PartitionRange::On("id", 500, 1000));
  EXPECT_EQ(plan[1].site, 3u);
  EXPECT_EQ(plan[1].predicate, PartitionRange::On("id", 1000, 1500));
}

TEST_F(GlobalCatalogTest, PlanCoverDetectsKSafetyExceeded) {
  ASSERT_OK(catalog_.AddReplica(table_, 1, PartitionRange::On("id", 0, 100),
                                SmallSchema(), 8).status());
  ASSERT_OK(catalog_.AddReplica(table_, 2, PartitionRange::On("id", 100, 200),
                                SmallSchema(), 8).status());
  // With site 2 dead, [100, 200) is uncoverable.
  auto plan = catalog_.PlanCover(table_, PartitionRange::On("id", 0, 200), 3,
                                 Except(2));
  EXPECT_TRUE(plan.status().IsUnavailable());
}

TEST_F(GlobalCatalogTest, PlanCoverPicksDistinctBuddiesPerObject) {
  ASSERT_OK(catalog_.AddReplica(table_, 1, PartitionRange::Full(),
                                SmallSchema(), 8).status());
  ASSERT_OK(catalog_.AddReplica(table_, 2, PartitionRange::Full(),
                                SmallSchema(), 8).status());
  auto t2 = catalog_.AddTable("emp2", SmallSchema());
  ASSERT_OK(t2.status());
  ASSERT_OK(catalog_.AddReplica(*t2, 1, PartitionRange::Full(),
                                SmallSchema(), 8).status());
  ASSERT_OK(catalog_.AddReplica(*t2, 2, PartitionRange::Full(),
                                SmallSchema(), 8).status());
  // Site 3 recovering both tables: the two plans should use different
  // buddies so parallel recovery overlaps transfers.
  ASSERT_OK_AND_ASSIGN(auto plan1, catalog_.PlanCover(
                                       table_, PartitionRange::Full(), 3,
                                       AllAlive()));
  ASSERT_OK_AND_ASSIGN(auto plan2, catalog_.PlanCover(
                                       *t2, PartitionRange::Full(), 3,
                                       AllAlive()));
  EXPECT_NE(plan1[0].site, plan2[0].site);
}

// ------------------------------------------------- placement catalog

// The rendezvous-placement tests get their own suite so CI's TSan job
// (which filters by suite name) picks them up alongside the recovery
// suites that consume the placement catalog.
using PlacementTest = GlobalCatalogTest;

TEST_F(PlacementTest, PlaceTableIsDeterministicAndKSafe) {
  std::vector<SiteId> sites = {1, 2, 3, 4, 5};
  PlacementSpec spec;
  spec.replication_factor = 3;
  ASSERT_OK_AND_ASSIGN(auto objects, catalog_.PlaceTable(table_, sites, spec));
  EXPECT_EQ(objects.size(), 3u);
  ASSERT_OK_AND_ASSIGN(const TableDef* def, catalog_.GetTable(table_));
  ASSERT_EQ(def->replicas.size(), 3u);
  for (const ReplicaPlacement& r : def->replicas) {
    EXPECT_TRUE(r.partition.IsFull());
  }
  ASSERT_OK_AND_ASSIGN(int k, catalog_.KSafety(table_));
  EXPECT_EQ(k, 2);  // replication_factor - 1 failures survivable

  // Rendezvous placement is a pure function of (table, shard, site): an
  // independent catalog with the same inputs picks the same sites.
  GlobalCatalog other;
  ASSERT_OK_AND_ASSIGN(TableId t2, other.AddTable("emp", SmallSchema()));
  ASSERT_OK(other.PlaceTable(t2, sites, spec).status());
  ASSERT_OK_AND_ASSIGN(const TableDef* def2, other.GetTable(t2));
  ASSERT_EQ(def2->replicas.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(def->replicas[i].site, def2->replicas[i].site);
  }
}

TEST_F(PlacementTest, PlaceTableShardsSplitDomain) {
  PlacementSpec spec;
  spec.replication_factor = 2;
  spec.shards = 2;
  spec.shard_column = "id";
  spec.domain_lo = 0;
  spec.domain_hi = 1000;
  ASSERT_OK_AND_ASSIGN(auto objects,
                       catalog_.PlaceTable(table_, {1, 2, 3}, spec));
  EXPECT_EQ(objects.size(), 4u);  // 2 shards x 2 copies
  ASSERT_OK_AND_ASSIGN(const TableDef* def, catalog_.GetTable(table_));
  size_t lo_half = 0, hi_half = 0;
  for (const ReplicaPlacement& r : def->replicas) {
    if (r.partition == PartitionRange::On("id", 0, 500)) ++lo_half;
    if (r.partition == PartitionRange::On("id", 500, 1000)) ++hi_half;
  }
  EXPECT_EQ(lo_half, 2u);
  EXPECT_EQ(hi_half, 2u);
  ASSERT_OK_AND_ASSIGN(int k, catalog_.KSafety(table_));
  EXPECT_EQ(k, 1);
}

TEST_F(PlacementTest, PlaceTableRejectsInvalidSpecs) {
  PlacementSpec spec;
  spec.replication_factor = 0;
  EXPECT_TRUE(catalog_.PlaceTable(table_, {1, 2}, spec).status()
                  .IsInvalidArgument());
  spec.replication_factor = 3;  // more copies than sites
  EXPECT_TRUE(catalog_.PlaceTable(table_, {1, 2}, spec).status()
                  .IsInvalidArgument());
  spec.replication_factor = 2;
  spec.shards = 2;  // sharding without a shard column/domain
  EXPECT_TRUE(catalog_.PlaceTable(table_, {1, 2, 3}, spec).status()
                  .IsInvalidArgument());
  spec.shards = 1;
  EXPECT_TRUE(catalog_.PlaceTable(999, {1, 2}, spec).status().IsNotFound());
  EXPECT_TRUE(catalog_.KSafety(table_).status().IsNotFound());  // unplaced
}

// Partition keys route and scan as integers, so a partition on a DOUBLE or
// CHAR column is refused where it enters the catalog, before any replica.
TEST_F(PlacementTest, PartitionsOnNonIntegerColumnsAreRejected) {
  ASSERT_OK_AND_ASSIGN(
      TableId t, catalog_.AddTable("prices",
                                   Schema({Column::Int32("id"),
                                           Column::Double("price"),
                                           Column::Char("name", 8)})));
  ASSERT_OK_AND_ASSIGN(const TableDef* def, catalog_.GetTable(t));
  PlacementSpec spec;
  spec.replication_factor = 2;
  spec.shards = 2;
  spec.domain_lo = 0;
  spec.domain_hi = 100;
  for (const char* column : {"price", "name"}) {
    spec.shard_column = column;
    EXPECT_TRUE(catalog_.PlaceTable(t, {1, 2, 3}, spec).status()
                    .IsInvalidArgument())
        << column;
    EXPECT_TRUE(catalog_
                    .AddReplica(t, 1, PartitionRange::On(column, 0, 50),
                                def->logical_schema, 64)
                    .status()
                    .IsInvalidArgument())
        << column;
  }
  EXPECT_TRUE(catalog_
                  .AddReplica(t, 1, PartitionRange::On("missing", 0, 50),
                              def->logical_schema, 64)
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(def->replicas.empty());
  spec.shard_column = "id";  // INT32 partitions are accepted
  ASSERT_OK_AND_ASSIGN(auto objects, catalog_.PlaceTable(t, {1, 2, 3}, spec));
  EXPECT_EQ(objects.size(), 4u);
}

TEST_F(PlacementTest, ReplicasCoveringAgreesWithPlanCoverAndRotates) {
  PlacementSpec spec;
  spec.replication_factor = 3;
  ASSERT_OK(catalog_.PlaceTable(table_, {1, 2, 3, 4, 5}, spec).status());
  ASSERT_OK_AND_ASSIGN(const TableDef* def, catalog_.GetTable(table_));
  const SiteId recovering = def->replicas[0].site;
  ASSERT_OK_AND_ASSIGN(auto pool,
                       catalog_.ReplicasCovering(table_, PartitionRange::Full(),
                                                 recovering, AllAlive()));
  ASSERT_EQ(pool.size(), 2u);  // the other two copies
  // Entry 0 must be exactly the buddy PlanCover would stream from, so a
  // single-stream recovery behaves identically to the legacy path.
  ASSERT_OK_AND_ASSIGN(auto plan,
                       catalog_.PlanCover(table_, PartitionRange::Full(),
                                          recovering, AllAlive()));
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(pool[0].site, plan[0].site);
  EXPECT_EQ(pool[0].object_id, plan[0].object_id);
  for (const RecoveryObject& r : pool) {
    EXPECT_NE(r.site, recovering);
    EXPECT_TRUE(r.predicate.IsFull());
  }
}

TEST_F(PlacementTest, ReplicasCoveringUnavailableWhenNoUsableBuddy) {
  PlacementSpec spec;
  spec.replication_factor = 2;
  ASSERT_OK(catalog_.PlaceTable(table_, {1, 2, 3}, spec).status());
  auto none = [](SiteId) { return false; };
  auto pool = catalog_.ReplicasCovering(table_, PartitionRange::Full(),
                                        kInvalidSiteId, none);
  EXPECT_TRUE(pool.status().IsUnavailable());
}

// ------------------------------------------------------ checkpoint file

TEST(CheckpointFileTest, MissingFileReadsAsZero) {
  std::string dir = MakeTempDir("ckpt");
  ASSERT_OK_AND_ASSIGN(CheckpointRecord rec, ReadCheckpointRecord(dir));
  EXPECT_EQ(rec.global_time, 0u);
  EXPECT_EQ(rec.TimeFor(5), 0u);
}

TEST(CheckpointFileTest, RoundTripWithPerObjectOverrides) {
  std::string dir = MakeTempDir("ckpt2");
  CheckpointRecord rec;
  rec.global_time = 10;
  rec.per_object[3] = 25;
  ASSERT_OK(WriteCheckpointRecord(dir, rec));
  ASSERT_OK_AND_ASSIGN(CheckpointRecord back, ReadCheckpointRecord(dir));
  EXPECT_EQ(back.global_time, 10u);
  EXPECT_EQ(back.TimeFor(3), 25u);  // per-object override
  EXPECT_EQ(back.TimeFor(4), 10u);  // falls back to global
}

TEST(CheckpointFileTest, StreamResumeRoundTrip) {
  std::string dir = MakeTempDir("ckpt3");
  CheckpointRecord rec;
  rec.global_time = 10;
  rec.per_object[3] = 25;
  // Two concurrent streams of one object, each with its own window.
  rec.resume[3].push_back(StreamResume{40, 33, 777, 0, 25, 32});
  rec.resume[3].push_back(StreamResume{40, 36, 12, 1, 32, 40});
  ASSERT_OK(WriteCheckpointRecord(dir, rec));
  ASSERT_OK_AND_ASSIGN(CheckpointRecord back, ReadCheckpointRecord(dir));
  ASSERT_NE(back.ResumeFor(3), nullptr);
  ASSERT_EQ(back.ResumeFor(3)->size(), 2u);
  EXPECT_EQ((*back.ResumeFor(3))[0], (StreamResume{40, 33, 777, 0, 25, 32}));
  EXPECT_EQ((*back.ResumeFor(3))[1], (StreamResume{40, 36, 12, 1, 32, 40}));
  EXPECT_EQ(back.ResumeFor(4), nullptr);

  // An object checkpoint means the interrupted round completed: rewriting
  // without the watermarks durably drops them.
  back.resume.erase(3);
  ASSERT_OK(WriteCheckpointRecord(dir, back));
  ASSERT_OK_AND_ASSIGN(CheckpointRecord clean, ReadCheckpointRecord(dir));
  EXPECT_EQ(clean.ResumeFor(3), nullptr);
  EXPECT_EQ(clean.TimeFor(3), 25u);
}

TEST(CheckpointFileTest, WritesEmptyResumeSection) {
  // One layout for every record: with no watermarks the resume section is
  // just its zero object count.
  std::string dir = MakeTempDir("ckpt4");
  CheckpointRecord rec;
  rec.global_time = 5;
  ASSERT_OK(WriteCheckpointRecord(dir, rec));
  EXPECT_EQ(std::filesystem::file_size(dir + "/checkpoint.meta"),
            4u + 8u + 4u + 4u);  // magic, global time, two zero counts
  ASSERT_OK_AND_ASSIGN(CheckpointRecord back, ReadCheckpointRecord(dir));
  EXPECT_EQ(back.global_time, 5u);
  EXPECT_TRUE(back.resume.empty());
}

TEST(CheckpointFileTest, RejectsLegacyMagicAndTrailingBytes) {
  std::string dir = MakeTempDir("ckpt5");
  const std::string path = dir + "/checkpoint.meta";
  auto write_file = [&](const std::vector<uint8_t>& bytes) {
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  };
  // A record in the old watermark-free "HRKP" layout.
  ByteBufferWriter legacy;
  legacy.WriteU32(0x48524b50);
  legacy.WriteU64(10);
  legacy.WriteU32(0);
  write_file(legacy.data());
  EXPECT_TRUE(ReadCheckpointRecord(dir).status().IsCorruption());

  CheckpointRecord rec;
  rec.global_time = 10;
  rec.resume[3].push_back(StreamResume{40, 33, 777, 0, 25, 32});
  ASSERT_OK(WriteCheckpointRecord(dir, rec));
  std::ifstream in(path, std::ios::binary);
  std::vector<uint8_t> good((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  std::vector<uint8_t> trailing = good;
  trailing.push_back(0);
  write_file(trailing);
  EXPECT_TRUE(ReadCheckpointRecord(dir).status().IsCorruption());
  std::vector<uint8_t> truncated(good.begin(), good.end() - 1);
  write_file(truncated);
  EXPECT_TRUE(ReadCheckpointRecord(dir).status().IsCorruption());
  write_file(good);
  ASSERT_OK_AND_ASSIGN(CheckpointRecord back, ReadCheckpointRecord(dir));
  EXPECT_EQ(*back.ResumeFor(3), *rec.ResumeFor(3));
}

// ------------------------------------------------------------- liveness

TEST(LivenessTest, StateTransitions) {
  LivenessDirectory dir;
  EXPECT_EQ(dir.Get(1), SiteState::kDown);  // unknown = down
  dir.Set(1, SiteState::kOnline);
  dir.Set(2, SiteState::kRecovering);
  EXPECT_TRUE(dir.IsOnline(1));
  EXPECT_FALSE(dir.IsOnline(2));  // recovering sites get no new updates
  EXPECT_EQ(dir.OnlineSites().size(), 1u);
  dir.Set(2, SiteState::kOnline);
  EXPECT_EQ(dir.OnlineSites().size(), 2u);
}

}  // namespace
}  // namespace harbor
