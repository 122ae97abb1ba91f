// Columnar sealed-segment tests: encoded-column construction (dictionary /
// frame-of-reference / plain-double, zone stats), the vectorized scan's
// equivalence with the row path under every visibility mode, write-through
// of post-sealing mutations, the adaptive per-segment equality index, the
// exactness of compiled conjuncts on row pages and encoded segments, and
// the compressed column-block wire codec.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "buffer/buffer_pool.h"
#include "exec/seq_scan.h"
#include "exec/vector_scan.h"
#include "storage/column_block.h"
#include "storage/columnar_segment.h"
#include "storage/heap_page.h"
#include "tests/test_util.h"
#include "txn/version_store.h"

namespace harbor {
namespace {

using test::MakeTempDir;
using test::SmallRow;
using test::SmallSchema;

// ------------------------------------------------- hand-built page images

// Packs `tuples` into fresh page images of the given schema, in order,
// exactly as the heap would store them.
std::vector<std::vector<uint8_t>> PackPages(const Schema& schema,
                                            const std::vector<Tuple>& tuples) {
  const uint32_t tuple_bytes = schema.tuple_bytes();
  const uint16_t cap = HeapPage::CapacityFor(tuple_bytes);
  std::vector<std::vector<uint8_t>> pages;
  std::vector<uint8_t> packed(tuple_bytes);
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (i % cap == 0) {
      pages.emplace_back(kPageSize, 0);
      HeapPage(pages.back().data(), tuple_bytes).Init();
    }
    HeapPage view(pages.back().data(), tuple_bytes);
    tuples[i].Pack(schema, packed.data());
    HARBOR_CHECK_OK(view.InsertTuple(packed.data()).status());
  }
  return pages;
}

Tuple MakeTuple(std::vector<Value> values, TupleId tid, Timestamp ins,
                Timestamp del = kNotDeleted) {
  Tuple t(std::move(values));
  t.set_tuple_id(tid);
  t.set_insertion_ts(ins);
  t.set_deletion_ts(del);
  return t;
}

// --------------------------------------------------- ColumnarSegmentTest

TEST(ColumnarSegmentTest, FittedVectorWidths) {
  EXPECT_EQ(FittedVector::WidthFor(0), 0);
  EXPECT_EQ(FittedVector::WidthFor(1), 1);
  EXPECT_EQ(FittedVector::WidthFor(255), 1);
  EXPECT_EQ(FittedVector::WidthFor(256), 2);
  EXPECT_EQ(FittedVector::WidthFor(65535), 2);
  EXPECT_EQ(FittedVector::WidthFor(65536), 4);
  EXPECT_EQ(FittedVector::WidthFor(0xFFFFFFFFull), 4);
  EXPECT_EQ(FittedVector::WidthFor(0x100000000ull), 8);

  FittedVector v;
  v.Init(2, 5);
  v.Set(0, 0);
  v.Set(4, 65535);
  EXPECT_EQ(v.Get(0), 0u);
  EXPECT_EQ(v.Get(4), 65535u);
  EXPECT_EQ(v.byte_size(), 10u);
}

TEST(ColumnarSegmentTest, BuildChoosesEncodingsAndRoundTripsValues) {
  Schema schema({Column::Int64("id"), Column::Double("price"),
                 Column::Char("tag", 8)});
  std::vector<Tuple> rows;
  for (int i = 0; i < 300; ++i) {
    rows.push_back(MakeTuple({Value(int64_t{1000 + i}), Value(0.5 * i),
                              Value(std::string(i % 2 ? "hot" : "cold"))},
                             static_cast<TupleId>(i), 10 + i));
  }
  auto pages = PackPages(schema, rows);
  ASSERT_OK_AND_ASSIGN(auto seg, ColumnarSegment::Build(schema, 1, 4, pages));
  ASSERT_EQ(seg->num_columns(), 3u);
  // Dense ints -> frame of reference from the minimum, 2-byte deltas.
  EXPECT_EQ(seg->column(0).encoding, EncodedColumn::Encoding::kFrameOfReference);
  EXPECT_EQ(seg->column(0).for_base, 1000);
  EXPECT_EQ(seg->column(0).codes.width(), 2);
  // Doubles stay plain and bit-preserving.
  EXPECT_EQ(seg->column(1).encoding, EncodedColumn::Encoding::kPlainDouble);
  // Two distinct strings -> 1-byte dictionary codes.
  EXPECT_EQ(seg->column(2).encoding, EncodedColumn::Encoding::kDictionary);
  ASSERT_EQ(seg->column(2).dict.size(), 2u);
  EXPECT_EQ(seg->column(2).dict[0].AsString(), "cold");  // sorted
  EXPECT_EQ(seg->column(2).codes.width(), 1);
  // Zone stats cover the column extremes.
  EXPECT_TRUE(seg->column(0).has_zone);
  EXPECT_EQ(seg->column(0).zone_min.AsInt64(), 1000);
  EXPECT_EQ(seg->column(0).zone_max.AsInt64(), 1299);

  // Every materialized row is identical to the packed source (rows were
  // packed densely in order, so tuple i lives at dense row i).
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(seg->occupied(i));
    Tuple got = seg->MaterializeRow(i);
    EXPECT_EQ(got.tuple_id(), rows[i].tuple_id());
    EXPECT_EQ(got.insertion_ts(), rows[i].insertion_ts());
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_TRUE(got.value(c) == rows[i].value(c)) << "row " << i;
    }
  }
  EXPECT_LT(seg->encoded_bytes(), rows.size() * schema.payload_bytes());
}

TEST(ColumnarSegmentTest, EmptySegmentBuilds) {
  Schema schema = SmallSchema();
  ASSERT_OK_AND_ASSIGN(auto seg, ColumnarSegment::Build(schema, 1, 4, {}));
  EXPECT_EQ(seg->num_rows(), 0u);
  std::vector<Tuple> out;
  ScanSpec spec;
  spec.mode = ScanMode::kSeeDeleted;
  ASSERT_OK_AND_ASSIGN(auto conjuncts, CompileConjuncts(spec, schema));
  VectorScanResult r = ScanColumnarImage(seg.get(), spec, conjuncts, &out);
  EXPECT_EQ(r.rows_matched, 0u);
  EXPECT_TRUE(out.empty());
}

TEST(ColumnarSegmentTest, AllIdenticalValuesUseZeroWidthCodes) {
  // A constant column (the all-NULL analogue: every value "") needs no code
  // storage at all — width 0.
  Schema schema({Column::Char("tag", 8), Column::Int64("k")});
  std::vector<Tuple> rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back(MakeTuple({Value(std::string("")), Value(int64_t{7})},
                             static_cast<TupleId>(i), 5));
  }
  auto pages = PackPages(schema, rows);
  ASSERT_OK_AND_ASSIGN(auto seg, ColumnarSegment::Build(schema, 1, 4, pages));
  EXPECT_EQ(seg->column(0).encoding, EncodedColumn::Encoding::kDictionary);
  ASSERT_EQ(seg->column(0).dict.size(), 1u);
  EXPECT_EQ(seg->column(0).codes.width(), 0);
  EXPECT_EQ(seg->column(1).codes.width(), 0);  // constant int: delta 0
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(seg->MaterializeRow(i).value(0).AsString(), "");
    EXPECT_EQ(seg->MaterializeRow(i).value(1).AsInt64(), 7);
  }
}

TEST(ColumnarSegmentTest, Over64kDistinctValuesWidenCodesTo4Bytes) {
  // > 65536 distinct strings force 4-byte dictionary codes; every value
  // still round-trips exactly.
  Schema schema({Column::Char("key", 8)});
  const int n = 65600;
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (int i = 0; i < n; ++i) {
    char buf[9];
    std::snprintf(buf, sizeof(buf), "k%07d", i);
    rows.push_back(
        MakeTuple({Value(std::string(buf))}, static_cast<TupleId>(i), 3));
  }
  auto pages = PackPages(schema, rows);
  ASSERT_OK_AND_ASSIGN(auto seg, ColumnarSegment::Build(schema, 1, 4, pages));
  ASSERT_EQ(seg->column(0).dict.size(), static_cast<size_t>(n));
  EXPECT_EQ(seg->column(0).codes.width(), 4);
  EXPECT_EQ(seg->MaterializeRow(0).value(0).AsString(), "k0000000");
  EXPECT_EQ(seg->MaterializeRow(n - 1).value(0).AsString(), "k0065599");
}

TEST(ColumnarSegmentTest, NaNDropsDoubleZoneStats) {
  Schema schema({Column::Double("x")});
  std::vector<Tuple> rows;
  rows.push_back(MakeTuple({Value(1.5)}, 1, 2));
  rows.push_back(MakeTuple({Value(std::nan(""))}, 2, 2));
  auto pages = PackPages(schema, rows);
  ASSERT_OK_AND_ASSIGN(auto seg, ColumnarSegment::Build(schema, 1, 4, pages));
  EXPECT_FALSE(seg->column(0).has_zone);
  EXPECT_TRUE(std::isnan(seg->MaterializeRow(1).value(0).AsDouble()));
}

// ------------------------------------------------------- VectorScanTest

constexpr CompareOp kAllOps[] = {CompareOp::kEq, CompareOp::kNe,
                                 CompareOp::kLt, CompareOp::kLe,
                                 CompareOp::kGt, CompareOp::kGe};
constexpr int64_t k2p53 = int64_t{1} << 53;

Schema BoundarySchema() {
  return Schema({Column::Int32("a"), Column::Int64("b"), Column::Double("x"),
                 Column::Char("s", 4)});
}

// Numeric constants of every type at the boundaries of the double
// widening: type extremes, +-2^53 +- 1, NaN, the infinities, -0.0,
// fractions, and doubles that round onto the int64 extremes.
std::vector<Value> NumericConstants() {
  constexpr int32_t kI32Min = std::numeric_limits<int32_t>::min();
  constexpr int32_t kI32Max = std::numeric_limits<int32_t>::max();
  const double inf = std::numeric_limits<double>::infinity();
  return {Value(kI32Min),
          Value(kI32Max),
          Value(int32_t{-1}),
          Value(int32_t{7}),
          Value(std::numeric_limits<int64_t>::min()),
          Value(std::numeric_limits<int64_t>::max()),
          Value(std::numeric_limits<int64_t>::max() - 1),
          Value(k2p53 - 1),
          Value(k2p53),
          Value(k2p53 + 1),
          Value(-k2p53 - 1),
          Value(-k2p53),
          Value(int64_t{0}),
          Value(int64_t{kI32Max} + 1),
          Value(int64_t{kI32Min} - 1),
          Value(std::nan("")),
          Value(inf),
          Value(-inf),
          Value(-0.0),
          Value(2.5),
          Value(-2.5),
          Value(9007199254740994.0),
          Value(9223372036854775808.0),
          Value(-9223372036854775808.0),
          Value(2147483647.5),
          Value(-2147483648.5)};
}

// CHAR(4) constants: empty, short, full-width, longer than the width, with
// a trailing or inner NUL, and a high byte.
std::vector<Value> CharConstants() {
  return {Value(std::string("")),        Value(std::string("a")),
          Value(std::string("ab")),      Value(std::string("abcd")),
          Value(std::string("abcde")),   Value(std::string("ab\0", 3)),
          Value(std::string("a\0b", 3)), Value(std::string("\xff")),
          Value(std::string("b"))};
}


// A VersionStore-backed fixture: insert committed rows, seal segments, and
// compare the columnar scan against the row path on the very same object.
class VectorScanTest : public ::testing::Test {
 protected:
  VectorScanTest()
      : fm_(MakeTempDir("vscan"), nullptr),
        catalog_(&fm_),
        pool_(&fm_, 512, metrics_),
        locks_(metrics_, std::chrono::milliseconds(200)),
        store_(&catalog_, &pool_, &locks_, nullptr, &txns_) {
    auto obj = catalog_.CreateObject(1, 1, "t", SmallSchema(),
                                     PartitionRange::Full(), 4,
                                     /*indexed_column=*/"", /*columnar=*/true);
    HARBOR_CHECK_OK(obj.status());
    obj_ = *obj;
  }

  void Load(TupleId tid, int64_t id, Timestamp ins,
            Timestamp del = kNotDeleted, const std::string& name = "n") {
    Tuple t(SmallRow(id, id * 2, name));
    t.set_tuple_id(tid);
    t.set_insertion_ts(ins);
    t.set_deletion_ts(del);
    HARBOR_CHECK_OK(store_.InsertCommittedTuple(obj_, t).status());
  }

  void Seal() { HARBOR_CHECK_OK(obj_->file->StartNewSegment()); }

  // Runs the same spec through the columnar path (obj_->columnar == true)
  // and through a forced row path, and asserts byte-identical results.
  std::vector<Tuple> ScanBothPathsExpectEqual(ScanSpec spec) {
    spec.object_id = 1;
    SeqScanOperator columnar(&store_, obj_, spec);
    auto cols = columnar.Collect();
    HARBOR_CHECK_OK(cols.status());
    obj_->columnar = false;  // force the row path for the reference scan
    SeqScanOperator row_scan(&store_, obj_, spec);
    auto rows = row_scan.Collect();
    obj_->columnar = true;
    HARBOR_CHECK_OK(rows.status());
    EXPECT_EQ(cols->size(), rows->size());
    std::vector<uint8_t> a(obj_->schema.tuple_bytes());
    std::vector<uint8_t> b(obj_->schema.tuple_bytes());
    for (size_t i = 0; i < std::min(cols->size(), rows->size()); ++i) {
      (*cols)[i].Pack(obj_->schema, a.data());
      (*rows)[i].Pack(obj_->schema, b.data());
      EXPECT_EQ(a, b) << "tuple " << i << " differs between paths";
      EXPECT_EQ((*cols)[i].record_id(), (*rows)[i].record_id());
    }
    return std::move(*cols);
  }

  // An object of the boundary schema (INT32 a, INT64 b, DOUBLE x,
  // CHAR(4) s) holding the values where the double widening is tight:
  // dense runs near INT32_MIN/2^53, the type maxima and -2^53 (sealed
  // frame-of-reference segments), a cycle through the extremes (a sealed
  // dictionary segment), and an open tail of the same cycle. Doubles and
  // strings cycle through NaN, infinities, -0.0, 2^53, 2^63, "", full-width,
  // high-byte and inner-NUL strings.
  TableObject* LoadBoundaryObject(ObjectId id, bool columnar) {
    auto obj = catalog_.CreateObject(
        id, id, "boundary" + std::to_string(id), BoundarySchema(),
        PartitionRange::Full(), 64, /*indexed_column=*/"", columnar);
    HARBOR_CHECK_OK(obj.status());
    constexpr int32_t kI32Min = std::numeric_limits<int32_t>::min();
    constexpr int32_t kI32Max = std::numeric_limits<int32_t>::max();
    constexpr int64_t kI64Min = std::numeric_limits<int64_t>::min();
    constexpr int64_t kI64Max = std::numeric_limits<int64_t>::max();
    const std::vector<int32_t> a_cycle = {kI32Min, kI32Min + 1, -1, 0,
                                          7,       kI32Max - 1, kI32Max};
    const std::vector<int64_t> b_cycle = {
        kI64Min,  kI64Min + 1,  -k2p53 - 1, -k2p53,     0,
        k2p53 - 1, k2p53,       k2p53 + 1,  k2p53 + 2, kI64Max - 1,
        kI64Max};
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<double> x_cycle = {
        std::nan(""), inf,  -inf, -0.0, 0.0, 2.5, -2.5, 1e300,
        9007199254740992.0, 9007199254740994.0, 9223372036854775808.0,
        -9223372036854775808.0, 7.0, 2147483647.5};
    // "a\0b" and "ab\0c" store the string up to the NUL ("a", "ab"), as
    // their Unpack reads them, so packed-byte compares stay exact.
    const std::vector<std::string> s_cycle = {
        "",    "a",   "ab",   "abc",  "abcd", "abd", "b", "\xff", "\x01",
        std::string("a\0b", 3), std::string("ab\0c", 4)};
    TupleId tid = 0;
    const auto load = [&](int32_t a, int64_t b) {
      const size_t i = tid;
      Tuple t({Value(a), Value(b), Value(x_cycle[i % x_cycle.size()]),
               Value(s_cycle[i % s_cycle.size()])});
      t.set_tuple_id(tid++);
      t.set_insertion_ts(3);
      HARBOR_CHECK_OK(store_.InsertCommittedTuple(*obj, t).status());
    };
    for (int i = 0; i < 120; ++i) load(kI32Min + i, k2p53 - 60 + i);
    HARBOR_CHECK_OK((*obj)->file->StartNewSegment());
    for (int i = 0; i < 120; ++i) load(kI32Max - i, kI64Max - i);
    HARBOR_CHECK_OK((*obj)->file->StartNewSegment());
    for (int i = 0; i < 120; ++i) load(i - 60, -k2p53 - 60 + i);
    HARBOR_CHECK_OK((*obj)->file->StartNewSegment());
    for (size_t i = 0; i < 154; ++i) {
      load(a_cycle[i % a_cycle.size()], b_cycle[i % b_cycle.size()]);
    }
    HARBOR_CHECK_OK((*obj)->file->StartNewSegment());
    for (size_t i = 0; i < 40; ++i) {
      load(a_cycle[(i * 3) % a_cycle.size()], b_cycle[(i * 5) % b_cycle.size()]);
    }
    return *obj;
  }

  // Runs every operator with every boundary constant (and a set of
  // partition ranges) through Collect() and ScanKeys() on `obj`, and
  // expects exactly the rows Predicate::EvalBound keeps among the unpacked
  // tuples of a predicate-free scan of the row-format `reference`.
  void ExpectEveryConjunctMatchesReference(TableObject* obj,
                                           TableObject* reference) {
    ScanSpec all;
    all.object_id = reference->object_id;
    all.mode = ScanMode::kSeeDeleted;
    SeqScanOperator full(&store_, reference, all);
    ASSERT_OK_AND_ASSIGN(const std::vector<Tuple> everything, full.Collect());
    ASSERT_EQ(everything.size(), 554u);
    const auto check = [&](const ScanSpec& spec, const std::string& label) {
      ASSERT_OK_AND_ASSIGN(auto bound, spec.predicate.Bind(obj->schema));
      std::vector<TupleId> want;
      for (const Tuple& t : everything) {
        const Value& key = t.value(spec.range.column == "a" ? 0 : 1);
        if (!spec.range.IsFull() &&
            !spec.range.Contains(key.type() == ColumnType::kInt32
                                     ? key.AsInt32()
                                     : key.AsInt64())) {
          continue;
        }
        if (spec.predicate.EvalBound(bound, t)) want.push_back(t.tuple_id());
      }
      SeqScanOperator scan(&store_, obj, spec);
      ASSERT_OK_AND_ASSIGN(auto rows, scan.Collect());
      std::vector<TupleId> got;
      for (const Tuple& t : rows) got.push_back(t.tuple_id());
      EXPECT_EQ(got, want) << label;
      SeqScanOperator key_scan(&store_, obj, spec);
      ASSERT_OK_AND_ASSIGN(auto keys, key_scan.ScanKeys());
      std::vector<TupleId> key_ids;
      for (const VersionKey& k : keys) key_ids.push_back(k.tuple_id);
      EXPECT_EQ(key_ids, want) << label << " (key scan)";
    };
    for (const char* col : {"a", "b", "x", "s"}) {
      const bool is_char = std::string(col) == "s";
      for (const Value& rhs : is_char ? CharConstants() : NumericConstants()) {
        for (CompareOp op : kAllOps) {
          ScanSpec spec;
          spec.object_id = obj->object_id;
          spec.mode = ScanMode::kSeeDeleted;
          spec.predicate.And(col, op, rhs);
          check(spec, spec.predicate.ToString() + " [" +
                          ColumnTypeToString(rhs.type()) + "]");
        }
      }
    }
    constexpr int64_t kI64Min = std::numeric_limits<int64_t>::min();
    constexpr int64_t kI64Max = std::numeric_limits<int64_t>::max();
    for (const PartitionRange& r :
         {PartitionRange::On("b", kI64Min, kI64Max),
          PartitionRange::On("b", k2p53 - 10, k2p53 + 2),
          PartitionRange::On("b", kI64Max - 5, kI64Max),
          PartitionRange::On("a", kI64Min, 0), PartitionRange::On("a", 5, 5),
          PartitionRange::On("a", -3, int64_t{1} << 40)}) {
      ScanSpec spec;
      spec.object_id = obj->object_id;
      spec.mode = ScanMode::kSeeDeleted;
      spec.range = r;
      spec.predicate.And(
          "x", CompareOp::kGe,
          Value(-std::numeric_limits<double>::infinity()));
      check(spec, r.ToString());
    }
  }

  obs::Metrics metrics_;  // declared first: the pool and locks use it
  FileManager fm_;
  LocalCatalog catalog_;
  BufferPool pool_;
  LockManager locks_;
  TxnTable txns_;
  VersionStore store_;
  TableObject* obj_;
};

TEST_F(VectorScanTest, SealedSegmentsServedColumnarly) {
  for (int i = 0; i < 200; ++i) Load(i, i, 2 + i / 100);
  Seal();
  for (int i = 200; i < 250; ++i) Load(i, i, 5);  // open tail stays rows

  ScanSpec spec;
  spec.object_id = 1;
  spec.mode = ScanMode::kSeeDeleted;
  SeqScanOperator scan(&store_, obj_, spec);
  ASSERT_OK_AND_ASSIGN(auto rows, scan.Collect());
  EXPECT_EQ(rows.size(), 250u);
  EXPECT_EQ(scan.columnar_segments(), 1u);   // the sealed segment
  EXPECT_GT(scan.pages_visited(), 0u);       // the open tail's pages
  EXPECT_EQ(obj_->columnar_cache.cached_segments(), 1u);
  EXPECT_EQ(obj_->columnar_cache.builds(), 1u);

  // A second scan reuses the cached image.
  SeqScanOperator again(&store_, obj_, spec);
  ASSERT_OK_AND_ASSIGN(auto rows2, again.Collect());
  EXPECT_EQ(rows2.size(), 250u);
  EXPECT_EQ(obj_->columnar_cache.builds(), 1u);
}

TEST_F(VectorScanTest, AllVisibilityModesMatchRowPath) {
  // Rows with live, deleted, and boundary timestamps across two sealed
  // segments plus an open tail.
  for (int i = 0; i < 120; ++i) {
    Load(i, i, 2 + i % 7, i % 3 == 0 ? Timestamp{6} : kNotDeleted);
  }
  Seal();
  for (int i = 120; i < 240; ++i) {
    Load(i, i, 4 + i % 5, i % 4 == 0 ? Timestamp{8} : kNotDeleted);
  }
  Seal();
  for (int i = 240; i < 260; ++i) Load(i, i, 9);

  for (ScanMode mode : {ScanMode::kVisible, ScanMode::kSeeDeleted,
                        ScanMode::kSeeDeletedHistorical}) {
    for (Timestamp as_of : {Timestamp{3}, Timestamp{6}, Timestamp{10}}) {
      ScanSpec spec;
      spec.mode = mode;
      spec.as_of = as_of;
      SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(mode)) +
                   " as_of=" + std::to_string(as_of));
      ScanBothPathsExpectEqual(spec);
    }
  }
  // Timestamp-range conjuncts (recovery's catch-up shapes).
  ScanSpec spec;
  spec.mode = ScanMode::kSeeDeleted;
  spec.has_insertion_after = true;
  spec.insertion_after = 5;
  spec.has_insertion_at_or_before = true;
  spec.insertion_at_or_before = 8;
  ScanBothPathsExpectEqual(spec);
  ScanSpec del_spec;
  del_spec.mode = ScanMode::kSeeDeleted;
  del_spec.has_deletion_after = true;
  del_spec.deletion_after = 5;
  ScanBothPathsExpectEqual(del_spec);
}

TEST_F(VectorScanTest, PredicatesAndRangeMatchRowPath) {
  for (int i = 0; i < 300; ++i) {
    Load(i, i % 50, 3, kNotDeleted, i % 2 ? "odd" : "even");
  }
  Seal();

  ScanSpec eq;
  eq.mode = ScanMode::kSeeDeleted;
  eq.predicate.And("name", CompareOp::kEq, Value(std::string("odd")));
  EXPECT_EQ(ScanBothPathsExpectEqual(eq).size(), 150u);

  ScanSpec cmp;
  cmp.mode = ScanMode::kSeeDeleted;
  cmp.predicate.And("id", CompareOp::kLt, Value(int64_t{10}))
      .And("qty", CompareOp::kGe, Value(int64_t{4}));
  ScanBothPathsExpectEqual(cmp);

  ScanSpec range;
  range.mode = ScanMode::kSeeDeleted;
  range.range = PartitionRange::On("id", 10, 20);
  EXPECT_EQ(ScanBothPathsExpectEqual(range).size(), 60u);

  // Every operator and boundary constant on frame-of-reference, dictionary
  // and plain-double segments equals EvalBound on the row-format copy.
  TableObject* reference = LoadBoundaryObject(3, /*columnar=*/false);
  TableObject* columnar = LoadBoundaryObject(4, /*columnar=*/true);
  ExpectEveryConjunctMatchesReference(columnar, reference);
  using Encoding = EncodedColumn::Encoding;
  const std::vector<std::vector<Encoding>> expected = {
      {Encoding::kFrameOfReference, Encoding::kFrameOfReference,
       Encoding::kPlainDouble, Encoding::kDictionary},
      {Encoding::kFrameOfReference, Encoding::kFrameOfReference,
       Encoding::kPlainDouble, Encoding::kDictionary},
      {Encoding::kFrameOfReference, Encoding::kFrameOfReference,
       Encoding::kPlainDouble, Encoding::kDictionary},
      {Encoding::kDictionary, Encoding::kDictionary, Encoding::kPlainDouble,
       Encoding::kDictionary}};
  for (size_t seg = 0; seg < expected.size(); ++seg) {
    auto image = columnar->columnar_cache.Get(seg);
    ASSERT_NE(image, nullptr) << "segment " << seg;
    for (size_t c = 0; c < expected[seg].size(); ++c) {
      EXPECT_EQ(image->column(c).encoding, expected[seg][c])
          << "segment " << seg << " column " << c;
    }
  }
}

TEST_F(VectorScanTest, ZoneStatsPruneDisjointSegments) {
  // Three sealed segments with disjoint id ranges.
  for (int s = 0; s < 3; ++s) {
    for (int i = 0; i < 100; ++i) {
      Load(s * 100 + i, s * 1000 + i, 3);
    }
    Seal();
  }
  ScanSpec spec;
  spec.object_id = 1;
  spec.mode = ScanMode::kSeeDeleted;
  spec.predicate.And("id", CompareOp::kEq, Value(int64_t{2050}));
  SeqScanOperator scan(&store_, obj_, spec);
  ASSERT_OK_AND_ASSIGN(auto rows, scan.Collect());
  EXPECT_EQ(rows.size(), 1u);
  EXPECT_EQ(scan.columnar_segments(), 3u);
  EXPECT_EQ(scan.zone_pruned_segments(), 2u);  // segments 0 and 1
  EXPECT_EQ(scan.pages_visited(), 0u);         // never touched a page

  // Range pruning via the partition column works off the same stats.
  ScanSpec range;
  range.object_id = 1;
  range.mode = ScanMode::kSeeDeleted;
  range.range = PartitionRange::On("id", 0, 500);
  SeqScanOperator rscan(&store_, obj_, range);
  ASSERT_OK_AND_ASSIGN(auto rrows, rscan.Collect());
  EXPECT_EQ(rrows.size(), 100u);
  EXPECT_EQ(rscan.zone_pruned_segments(), 2u);
}

TEST_F(VectorScanTest, AdaptiveIndexBuildsAfterRepeatedEqProbes) {
  // The hot equality column must be dictionary-encoded (codes are the index
  // keys): CHAR columns always are.
  for (int i = 0; i < 400; ++i) {
    Load(i, i, 3, kNotDeleted, "n" + std::to_string(i % 10));
  }
  Seal();
  ScanSpec spec;
  spec.object_id = 1;
  spec.mode = ScanMode::kSeeDeleted;
  spec.predicate.And("name", CompareOp::kEq, Value(std::string("n3")));

  size_t indexed_runs = 0;
  for (uint32_t probe = 0; probe < kAdaptiveIndexThreshold + 2; ++probe) {
    SeqScanOperator scan(&store_, obj_, spec);
    ASSERT_OK_AND_ASSIGN(auto rows, scan.Collect());
    EXPECT_EQ(rows.size(), 40u) << "probe " << probe;
    indexed_runs += scan.adaptive_index_probes();
  }
  EXPECT_GE(indexed_runs, 2u);  // the later probes ran off the index
  auto seg = obj_->columnar_cache.Get(0);
  ASSERT_NE(seg, nullptr);
  EXPECT_TRUE(seg->HasAdaptiveIndex(2));  // name is column 2
  EXPECT_EQ(seg->stats().Read().indexes_built, 1u);
  // Indexed results remain identical to the row path.
  ScanBothPathsExpectEqual(spec);
}

TEST_F(VectorScanTest, PostSealingMutationsWriteThrough) {
  for (int i = 0; i < 50; ++i) Load(i, i, 3);
  Seal();
  // Build the image first, then mutate behind it.
  ScanSpec all;
  all.object_id = 1;
  all.mode = ScanMode::kSeeDeleted;
  {
    SeqScanOperator scan(&store_, obj_, all);
    ASSERT_OK_AND_ASSIGN(auto rows, scan.Collect());
    ASSERT_EQ(rows.size(), 50u);
  }
  ASSERT_EQ(obj_->columnar_cache.builds(), 1u);

  // A recovery-style in-place deletion stamp must appear in columnar scans
  // without a rebuild.
  ASSERT_OK_AND_ASSIGN(auto rows, [&]() -> Result<std::vector<Tuple>> {
    SeqScanOperator scan(&store_, obj_, all);
    return scan.Collect();
  }());
  RecordId victim = rows[7].record_id();
  ASSERT_OK(store_.SetDeletionTs(obj_, victim, 9));
  {
    ScanSpec vis;
    vis.mode = ScanMode::kVisible;
    vis.as_of = 10;
    auto got = ScanBothPathsExpectEqual(vis);
    EXPECT_EQ(got.size(), 49u);
  }
  // A physical delete frees the row in the image too.
  ASSERT_OK(store_.PhysicalDelete(obj_, rows[8].record_id()));
  {
    auto got = ScanBothPathsExpectEqual(all);
    EXPECT_EQ(got.size(), 49u);
  }
  EXPECT_EQ(obj_->columnar_cache.builds(), 1u);  // never rebuilt
}

TEST_F(VectorScanTest, CommitAndRollbackStampThroughSealedSegments) {
  // An open transaction's tuple gets sealed into a segment mid-flight (a
  // segment rollover under load); the commit stamp and a rollback free must
  // both write through to the cached image built while the uncommitted
  // sentinel was in place.
  for (int i = 0; i < 10; ++i) Load(i, i, 3);
  ScanSpec all;
  all.object_id = 1;
  all.mode = ScanMode::kSeeDeleted;

  auto committer = txns_.Create(100);
  Tuple c(SmallRow(900, 1, "c"));
  c.set_tuple_id(900);
  ASSERT_OK(store_.InsertTuple(committer.get(), obj_, c).status());
  Seal();  // the uncommitted tuple is now in a sealed segment
  {
    SeqScanOperator scan(&store_, obj_, all);  // caches the sealed image
    ASSERT_OK_AND_ASSIGN(auto rows, scan.Collect());
    EXPECT_EQ(rows.size(), 11u);
  }
  ASSERT_OK(store_.StampCommit(committer.get(), 20));
  locks_.ReleaseAll(100);

  auto aborter = txns_.Create(101);
  Tuple a(SmallRow(901, 1, "a"));
  a.set_tuple_id(901);
  ASSERT_OK(store_.InsertTuple(aborter.get(), obj_, a).status());
  Seal();
  {
    SeqScanOperator scan(&store_, obj_, all);  // caches the second image
    ASSERT_OK_AND_ASSIGN(auto rows, scan.Collect());
    EXPECT_EQ(rows.size(), 12u);
  }
  ASSERT_OK(store_.RollbackTransaction(aborter.get()));
  locks_.ReleaseAll(101);

  ScanSpec vis;
  vis.mode = ScanMode::kVisible;
  vis.as_of = 25;
  auto got = ScanBothPathsExpectEqual(vis);
  EXPECT_EQ(got.size(), 11u);  // 10 loads + committed insert; abort gone
  bool saw_committed = false;
  for (const Tuple& t : got) {
    if (t.tuple_id() == 900) {
      saw_committed = true;
      EXPECT_EQ(t.insertion_ts(), 20u);
    }
    EXPECT_NE(t.tuple_id(), 901u);
  }
  EXPECT_TRUE(saw_committed);
}

TEST_F(VectorScanTest, StragglerInsertIntoSealedSegmentInvalidates) {
  // If an insert lands on a page of a segment that was sealed between page
  // selection and the write, the cached image is dropped, not served stale.
  for (int i = 0; i < 5; ++i) Load(i, i, 3);
  Seal();
  ScanSpec all;
  all.object_id = 1;
  all.mode = ScanMode::kSeeDeleted;
  {
    SeqScanOperator scan(&store_, obj_, all);
    ASSERT_OK_AND_ASSIGN(auto rows, scan.Collect());
    EXPECT_EQ(rows.size(), 5u);
  }
  ASSERT_EQ(obj_->columnar_cache.cached_segments(), 1u);
  obj_->columnar_cache.Invalidate(0);  // what the insert paths invoke
  EXPECT_EQ(obj_->columnar_cache.cached_segments(), 0u);
  {
    SeqScanOperator scan(&store_, obj_, all);
    ASSERT_OK_AND_ASSIGN(auto rows, scan.Collect());
    EXPECT_EQ(rows.size(), 5u);
  }
  EXPECT_EQ(obj_->columnar_cache.builds(), 2u);
}

TEST_F(VectorScanTest, PageLockScansAcquireSegmentLocks) {
  for (int i = 0; i < 50; ++i) Load(i, i, 3);
  Seal();
  constexpr LockOwnerId kOwner = 0xBEEF;
  ScanSpec spec;
  spec.object_id = 1;
  spec.mode = ScanMode::kVisible;
  spec.as_of = 10;
  SeqScanOperator scan(&store_, obj_, spec, kOwner, ScanLocking::kPageLocks);
  ASSERT_OK_AND_ASSIGN(auto rows, scan.Collect());
  EXPECT_EQ(rows.size(), 50u);
  EXPECT_EQ(scan.columnar_segments(), 1u);
  // The sealed segment's pages are S-locked even though no page was read.
  EXPECT_GT(locks_.NumLockedResources(), 1u);
  locks_.ReleaseAll(kOwner);
  EXPECT_EQ(locks_.NumLockedResources(), 0u);
}

// ------------------------------------------------- compiled-scan exactness

TEST_F(VectorScanTest, PackedProbesMatchFullPredicateOnRowPath) {
  // Row-format object: every operator and boundary constant on INT32,
  // INT64, DOUBLE and CHAR columns, through Collect() and ScanKeys().
  TableObject* rows = LoadBoundaryObject(2, /*columnar=*/false);
  ExpectEveryConjunctMatchesReference(rows, rows);
}

TEST_F(VectorScanTest, CompiledConjunctsMatchCompareValues) {
  // The compiled interval of an integer conjunct agrees with CompareValues
  // on the integers around every boundary, including those only the
  // search (constants beyond 2^53, NaN, infinities) resolves.
  const Schema schema = BoundarySchema();
  std::vector<int64_t> probes;
  for (int64_t center :
       {std::numeric_limits<int64_t>::min(), std::numeric_limits<int64_t>::max(),
        int64_t{std::numeric_limits<int32_t>::min()},
        int64_t{std::numeric_limits<int32_t>::max()}, -k2p53, k2p53,
        int64_t{0}, int64_t{7}, int64_t{2}, int64_t{-2},
        std::numeric_limits<int64_t>::max() - 512,
        std::numeric_limits<int64_t>::min() + 512}) {
    for (int64_t d = -3; d <= 3; ++d) {
      const int64_t x = static_cast<int64_t>(static_cast<uint64_t>(center) +
                                             static_cast<uint64_t>(d));
      if ((d < 0) == (x < center)) probes.push_back(x);  // no wrap-around
    }
  }
  for (const char* col : {"a", "b"}) {
    const bool is_int32 = std::string(col) == "a";
    for (const Value& rhs : NumericConstants()) {
      for (CompareOp op : kAllOps) {
        ScanSpec spec;
        spec.predicate.And(col, op, rhs);
        ASSERT_OK_AND_ASSIGN(auto conjuncts, CompileConjuncts(spec, schema));
        ASSERT_EQ(conjuncts.size(), 1u);
        for (int64_t x : probes) {
          if (is_int32 && (x < std::numeric_limits<int32_t>::min() ||
                           x > std::numeric_limits<int32_t>::max())) {
            continue;
          }
          const Value v =
              is_int32 ? Value(static_cast<int32_t>(x)) : Value(x);
          EXPECT_EQ(conjuncts[0].Matches(v), CompareValues(v, op, rhs))
              << col << " = " << x << ": " << spec.predicate.ToString();
        }
      }
    }
  }
  // CHAR against a number is refused at compile time, either way round.
  ScanSpec mixed;
  mixed.predicate.And("s", CompareOp::kLt, Value(int64_t{1}));
  EXPECT_TRUE(CompileConjuncts(mixed, schema).status().IsInvalidArgument());
  ScanSpec mixed2;
  mixed2.predicate.And("a", CompareOp::kEq, Value(std::string("1")));
  EXPECT_TRUE(CompileConjuncts(mixed2, schema).status().IsInvalidArgument());
}

TEST_F(VectorScanTest, IndexProbeTakesEveryNumericConstant) {
  // An equality on the secondary-indexed column probes the index with its
  // compiled interval, so a DOUBLE or INT32 constant finds the same rows as
  // an INT64 one. A fractional constant equals no integer: its scan takes
  // the full path and finds nothing.
  auto obj2 = catalog_.CreateObject(5, 5, "indexed", SmallSchema(),
                                    PartitionRange::Full(), 4, "qty");
  HARBOR_CHECK_OK(obj2.status());
  for (int i = 0; i < 40; ++i) {
    Tuple t(SmallRow(i, i % 8, "x"));
    t.set_tuple_id(static_cast<TupleId>(i));
    t.set_insertion_ts(3);
    HARBOR_CHECK_OK(store_.InsertCommittedTuple(*obj2, t).status());
  }
  for (const Value& rhs : {Value(int64_t{7}), Value(int32_t{7}), Value(7.0),
                           Value(7.5), Value(int64_t{1} << 60)}) {
    ScanSpec spec;
    spec.object_id = 5;
    spec.mode = ScanMode::kSeeDeleted;
    spec.predicate.And("qty", CompareOp::kEq, rhs);
    SeqScanOperator scan(&store_, *obj2, spec);
    ASSERT_OK_AND_ASSIGN(auto rows, scan.Collect());
    EXPECT_EQ(scan.used_index(), rhs.AsNumeric() != 7.5) << rhs.ToString();
    EXPECT_EQ(rows.size(), rhs.AsNumeric() == 7.0 ? 5u : 0u) << rhs.ToString();
  }
}

// ------------------------------------------------------- ColumnBlockTest

std::vector<uint8_t> RowWireBytes(const Schema& schema,
                                  const std::vector<Tuple>& tuples) {
  ByteBufferWriter out;
  out.WriteU32(static_cast<uint32_t>(tuples.size()));
  for (const Tuple& t : tuples) t.Serialize(schema, &out);
  return out.TakeData();
}

void ExpectTuplesBitIdentical(const Schema& schema,
                              const std::vector<Tuple>& a,
                              const std::vector<Tuple>& b) {
  ASSERT_EQ(a.size(), b.size());
  std::vector<uint8_t> pa(schema.tuple_bytes());
  std::vector<uint8_t> pb(schema.tuple_bytes());
  for (size_t i = 0; i < a.size(); ++i) {
    a[i].Pack(schema, pa.data());
    b[i].Pack(schema, pb.data());
    EXPECT_EQ(pa, pb) << "tuple " << i;
  }
}

TEST(ColumnBlockTest, RoundTripIsBitIdenticalAndSmaller) {
  Schema schema({Column::Int64("id"), Column::Int32("bucket"),
                 Column::Double("price"), Column::Char("city", 12)});
  const std::vector<std::string> cities = {"boston", "nyc", "chicago"};
  std::vector<Tuple> tuples;
  for (int i = 0; i < 1000; ++i) {
    Tuple t({Value(int64_t{5000000 + i}), Value(int32_t{i % 16}),
             Value(9.99 + i % 7), Value(cities[i % cities.size()])});
    t.set_tuple_id(static_cast<TupleId>(i));
    t.set_insertion_ts(100 + i / 100);
    t.set_deletion_ts(i % 10 == 0 ? Timestamp{200} : kNotDeleted);
    tuples.push_back(std::move(t));
  }
  ByteBufferWriter out;
  EncodeColumnBlock(schema, tuples, &out);
  const std::vector<uint8_t> wire = out.TakeData();
  EXPECT_LT(wire.size(), RowWireBytes(schema, tuples).size() / 2);

  ByteBufferReader in(wire);
  ASSERT_OK_AND_ASSIGN(auto back, DecodeColumnBlock(schema, &in));
  ExpectTuplesBitIdentical(schema, tuples, back);
}

TEST(ColumnBlockTest, EmptyBlockRoundTrips) {
  Schema schema = SmallSchema();
  ByteBufferWriter out;
  EncodeColumnBlock(schema, {}, &out);
  ByteBufferReader in(out.data());
  ASSERT_OK_AND_ASSIGN(auto back, DecodeColumnBlock(schema, &in));
  EXPECT_TRUE(back.empty());
}

TEST(ColumnBlockTest, AllIdenticalAndCharEdgeCasesRoundTrip) {
  Schema schema({Column::Char("s", 6), Column::Int64("k")});
  std::vector<Tuple> tuples;
  for (int i = 0; i < 64; ++i) {
    // Empty strings (the all-NULL analogue) and an over-width value that
    // the page format truncates: the wire must match the page semantics.
    Tuple t({Value(std::string(i % 2 ? "" : "toolongvalue")),
             Value(int64_t{-42})});
    t.set_tuple_id(static_cast<TupleId>(i));
    t.set_insertion_ts(kUncommittedTimestamp);  // sentinel survives the wire
    tuples.push_back(std::move(t));
  }
  ByteBufferWriter out;
  EncodeColumnBlock(schema, tuples, &out);
  ByteBufferReader in(out.data());
  ASSERT_OK_AND_ASSIGN(auto back, DecodeColumnBlock(schema, &in));
  ASSERT_EQ(back.size(), tuples.size());
  EXPECT_EQ(back[0].value(0).AsString(), "toolon");  // width-truncated
  EXPECT_EQ(back[1].value(0).AsString(), "");
  EXPECT_EQ(back[0].insertion_ts(), kUncommittedTimestamp);
}

TEST(ColumnBlockTest, ManyDistinctValuesFallBackGracefully) {
  // > 64k distinct int64s: FOR or raw wins over a dictionary; the block
  // still round-trips exactly.
  Schema schema({Column::Int64("v")});
  std::vector<Tuple> tuples;
  for (int i = 0; i < 70000; ++i) {
    Tuple t({Value(int64_t{i} * 1315423911)});
    t.set_tuple_id(static_cast<TupleId>(i));
    t.set_insertion_ts(7);
    tuples.push_back(std::move(t));
  }
  ByteBufferWriter out;
  EncodeColumnBlock(schema, tuples, &out);
  ByteBufferReader in(out.data());
  ASSERT_OK_AND_ASSIGN(auto back, DecodeColumnBlock(schema, &in));
  ExpectTuplesBitIdentical(schema, tuples, back);
}

TEST(ColumnBlockTest, NegativeAndNaNValuesRoundTripBitExact) {
  Schema schema({Column::Int32("a"), Column::Double("x")});
  std::vector<Tuple> tuples;
  const double nan1 = std::nan("");
  for (int i = 0; i < 32; ++i) {
    Tuple t({Value(int32_t{-1000000 + i}), Value(i % 5 ? -0.0 : nan1)});
    t.set_tuple_id(static_cast<TupleId>(i));
    t.set_insertion_ts(3);
    tuples.push_back(std::move(t));
  }
  ByteBufferWriter out;
  EncodeColumnBlock(schema, tuples, &out);
  ByteBufferReader in(out.data());
  ASSERT_OK_AND_ASSIGN(auto back, DecodeColumnBlock(schema, &in));
  ExpectTuplesBitIdentical(schema, tuples, back);
}

}  // namespace
}  // namespace harbor
