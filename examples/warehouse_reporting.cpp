// Warehouse reporting: the workload that motivates the paper's intro — a
// retail sales warehouse bulk-loading a day of data at a time, running
// analytical reports over snapshot scans, applying a small OLTP
// correction to recent data, and bulk-dropping the oldest day to make room
// (the clickthrough-warehouse pattern of §4.2).

#include <cstdio>
#include <map>

#include "core/cluster.h"
#include "exec/seq_scan.h"

using namespace harbor;

namespace {

// One day's sales: store, product, units, cents.
std::vector<LoadRow> DayOfSales(int day, TupleId base_tid) {
  std::vector<LoadRow> rows;
  for (int store = 0; store < 4; ++store) {
    for (int sale = 0; sale < 250; ++sale) {
      LoadRow row;
      row.tuple_id = base_tid++;
      row.insertion_ts = static_cast<Timestamp>(day + 1);
      row.values = {Value(int64_t{store}),
                    Value(int64_t{(sale * 7 + day) % 50}),
                    Value(int64_t{1 + sale % 3}),
                    Value(int64_t{99 + 100 * (sale % 20)})};
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

// Runs the nightly report on one replica: total units and revenue by store,
// as a historical (lock-free) query plus a local hash grouping.
void NightlyReport(Cluster* cluster, Timestamp as_of) {
  Worker* w = cluster->worker(0);
  TableObject* obj = w->local_catalog()->objects()[0];
  ScanSpec spec;
  spec.object_id = obj->object_id;
  spec.mode = ScanMode::kVisible;
  spec.as_of = as_of;
  SeqScanOperator scan(w->store(), obj, spec);
  auto rows = scan.Collect();
  HARBOR_CHECK_OK(rows.status());
  struct Totals {
    int64_t sales = 0;
    int64_t units = 0;
    int64_t cents = 0;
  };
  std::map<int64_t, Totals> by_store;  // columns: store, product, units, cents
  for (const Tuple& t : *rows) {
    Totals& g = by_store[t.value(0).AsInt64()];
    ++g.sales;
    g.units += t.value(2).AsInt64();
    g.cents += t.value(3).AsInt64();
  }
  std::printf("  %-8s %8s %8s %12s\n", "store", "sales", "units", "revenue");
  for (const auto& [store, g] : by_store) {
    std::printf("  %-8lld %8lld %8lld %11.2f$\n", (long long)store,
                (long long)g.sales, (long long)g.units, g.cents / 100.0);
  }
}

}  // namespace

int main() {
  std::printf("Warehouse reporting example\n===========================\n\n");

  ClusterOptions options;
  options.num_workers = 2;
  options.sim = SimConfig::Zero();
  auto cluster_r = Cluster::Create(options);
  HARBOR_CHECK_OK(cluster_r.status());
  auto cluster = std::move(cluster_r).value();

  // Sales table; one-day segments make bulk load/drop a metadata operation.
  TableSpec spec;
  spec.name = "sales";
  spec.schema = Schema({Column::Int64("store"), Column::Int64("product"),
                        Column::Int64("units"), Column::Int64("cents")});
  spec.default_segment_page_budget = 16;
  auto table_r = cluster->CreateTable(spec);
  HARBOR_CHECK_OK(table_r.status());
  TableId sales = *table_r;

  // Bulk-load seven days, sealing a segment per day (§4.2: "a database
  // system can easily accommodate bulk loads by creating a new segment and
  // transparently adding it as the last segment").
  TupleId tid = 1;
  for (int day = 0; day < 7; ++day) {
    std::vector<LoadRow> rows = DayOfSales(day, tid);
    tid += rows.size();
    HARBOR_CHECK_OK(cluster->BulkLoad(sales, rows, /*seal_segment=*/true));
    cluster->AdvanceEpoch();
  }
  TableObject* obj = cluster->worker(0)->local_catalog()->objects()[0];
  std::printf("loaded 7 daily bulk loads -> %zu segments, %zu rows\n\n",
              obj->file->num_segments(), obj->index.size());

  std::printf("nightly report (all 7 days):\n");
  Timestamp before_fix = cluster->authority()->StableTime();
  NightlyReport(cluster.get(), before_fix);

  // An analyst finds a mistake in yesterday's feed: store 2 double-counted
  // units on product 9. Fix it with a plain UPDATE transaction — this is
  // the "updatable" in updatable warehouse.
  Coordinator* db = cluster->coordinator();
  auto txn = db->Begin();
  HARBOR_CHECK_OK(txn.status());
  Predicate wrong;
  wrong.And("store", CompareOp::kEq, Value(int64_t{2}))
      .And("product", CompareOp::kEq, Value(int64_t{9}));
  HARBOR_CHECK_OK(db->Update(*txn, sales, wrong,
                             {SetClause{"units", Value(int64_t{1})}}));
  HARBOR_CHECK_OK(db->Commit(*txn));
  cluster->AdvanceEpoch();
  std::printf("\napplied correction to store 2 / product 9\n");

  std::printf("\nreport after the correction:\n");
  NightlyReport(cluster.get(), cluster->authority()->StableTime());

  // Time travel (§3.3): the pre-correction report is still answerable.
  std::printf("\nsame report, time-travelled to before the correction:\n");
  NightlyReport(cluster.get(), before_fix);

  // Day 0 ages out: bulk drop is one metadata write per replica.
  for (int w = 0; w < cluster->num_workers(); ++w) {
    TableObject* o = cluster->worker(w)->local_catalog()->objects()[0];
    HARBOR_CHECK_OK(o->file->BulkDropOldestSegment().status());
  }
  std::printf("\nbulk-dropped the oldest day; report now covers 6 days:\n");
  NightlyReport(cluster.get(), cluster->authority()->StableTime());
  return 0;
}
