#include "core/cluster.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

namespace harbor {

Cluster::Cluster(ClusterOptions options) : options_(std::move(options)) {}

Cluster::~Cluster() {
  for (auto& w : workers_) {
    if (w) w->Crash();
  }
  for (auto& c : coordinators_) {
    if (c) c->Crash();
  }
  authority_.StopTicker();
  if (owns_base_dir_) {
    // The sites (and their open files) go first, in member order.
    workers_.clear();
    coordinators_.clear();
    std::error_code ec;
    std::filesystem::remove_all(base_dir_, ec);
  }
}

Result<std::unique_ptr<Cluster>> Cluster::Create(ClusterOptions options) {
  auto cluster = std::unique_ptr<Cluster>(new Cluster(options));
  if (options.base_dir.empty()) {
    char tmpl[] = "/tmp/harbor-cluster-XXXXXX";
    char* dir = ::mkdtemp(tmpl);
    if (dir == nullptr) return Status::IoError("mkdtemp failed");
    cluster->base_dir_ = dir;
    cluster->owns_base_dir_ = true;
  } else {
    cluster->base_dir_ = options.base_dir;
    ::mkdir(cluster->base_dir_.c_str(), 0755);
  }

  cluster->scheduler_ = std::make_unique<runtime::Scheduler>();
  cluster->network_ = std::make_unique<Network>(
      options.sim, cluster->scheduler_.get(), &cluster->observer_);
  // A site that dies between BeginCommit and EndCommit would pin
  // StableTime() forever; subscribed before any site so the epoch holds are
  // freed ahead of the workers' own crash handling (consensus, §4.3.3).
  Cluster* raw = cluster.get();
  cluster->network_->SubscribeCrash(
      [raw](SiteId site) { raw->authority_.ReleaseSite(site); });

  CoordinatorOptions copt;
  copt.site_id = 0;
  copt.dir = cluster->base_dir_ + "/coordinator";
  ::mkdir(copt.dir.c_str(), 0755);
  copt.sim = options.sim;
  copt.protocol = options.protocol;
  copt.group_commit = options.group_commit;
  copt.continue_on_worker_failure = options.continue_on_worker_failure;
  copt.snapshot_max_lag_epochs = options.snapshot_max_lag_epochs;
  cluster->coordinators_.push_back(std::make_unique<Coordinator>(
      cluster->network_.get(), &cluster->catalog_, &cluster->authority_,
      &cluster->liveness_, cluster->observer_.MetricsFor(copt.site_id),
      copt));
  HARBOR_RETURN_NOT_OK(cluster->coordinators_[0]->Start());

  for (int i = 0; i < options.num_workers; ++i) {
    WorkerOptions wopt;
    wopt.site_id = WorkerSite(i);
    wopt.dir = cluster->base_dir_ + "/site" + std::to_string(wopt.site_id);
    wopt.sim = options.sim;
    wopt.protocol = options.protocol;
    wopt.group_commit = options.group_commit;
    wopt.buffer_pages = options.buffer_pages;
    wopt.lock_timeout = options.lock_timeout;
    wopt.checkpoint_period_ms = options.checkpoint_period_ms;
    wopt.default_coordinator = 0;
    auto worker = std::make_unique<Worker>(
        cluster->network_.get(), &cluster->catalog_, &cluster->authority_,
        &cluster->liveness_, cluster->observer_.MetricsFor(wopt.site_id),
        wopt);
    HARBOR_RETURN_NOT_OK(worker->Start());
    cluster->workers_.push_back(std::move(worker));
  }

  if (options.epoch_tick_ms > 0) {
    cluster->authority_.StartTicker(cluster->scheduler_.get(),
                                    options.epoch_tick_ms);
  }
  return cluster;
}

Result<Coordinator*> Cluster::AddCoordinator() {
  CoordinatorOptions copt;
  copt.site_id = ExtraCoordinatorSite(static_cast<int>(coordinators_.size()));
  copt.dir = base_dir_ + "/coordinator" + std::to_string(copt.site_id);
  ::mkdir(copt.dir.c_str(), 0755);
  copt.sim = options_.sim;
  copt.protocol = options_.protocol;
  copt.group_commit = options_.group_commit;
  copt.continue_on_worker_failure = options_.continue_on_worker_failure;
  copt.snapshot_max_lag_epochs = options_.snapshot_max_lag_epochs;
  coordinators_.push_back(std::make_unique<Coordinator>(
      network_.get(), &catalog_, &authority_, &liveness_,
      observer_.MetricsFor(copt.site_id), copt));
  HARBOR_RETURN_NOT_OK(coordinators_.back()->Start());
  return coordinators_.back().get();
}

std::vector<SiteId> Cluster::CoordinatorSites() const {
  std::vector<SiteId> out;
  for (const auto& c : coordinators_) out.push_back(c->site_id());
  return out;
}

Result<TableId> Cluster::CreateTable(const TableSpec& spec) {
  HARBOR_ASSIGN_OR_RETURN(TableId table,
                          catalog_.AddTable(spec.name, spec.schema));
  if (spec.replicas.empty() && spec.replication_factor > 0) {
    // Deterministic K-safe placement: replication_factor full replicas on
    // the rendezvous-selected worker sites (not one on every worker).
    PlacementSpec pspec;
    pspec.replication_factor = spec.replication_factor;
    pspec.segment_page_budget = spec.default_segment_page_budget;
    pspec.indexed_column = spec.indexed_column;
    pspec.columnar = spec.columnar;
    std::vector<SiteId> sites;
    sites.reserve(static_cast<size_t>(num_workers()));
    for (int i = 0; i < num_workers(); ++i) sites.push_back(WorkerSite(i));
    HARBOR_RETURN_NOT_OK(catalog_.PlaceTable(table, sites, pspec).status());
    for (auto& w : workers_) {
      if (w->running()) HARBOR_RETURN_NOT_OK(w->ProvisionReplicas());
    }
    return table;
  }
  std::vector<ReplicaSpec> replicas = spec.replicas;
  if (replicas.empty()) {
    for (int i = 0; i < num_workers(); ++i) {
      ReplicaSpec r;
      r.worker_index = i;
      r.segment_page_budget = spec.default_segment_page_budget;
      replicas.push_back(r);
    }
  }
  for (const ReplicaSpec& r : replicas) {
    Schema physical = r.column_order.empty()
                          ? spec.schema
                          : spec.schema.Reordered(r.column_order);
    std::string indexed =
        r.indexed_column.empty() ? spec.indexed_column : r.indexed_column;
    const bool columnar = r.columnar < 0 ? spec.columnar : r.columnar != 0;
    HARBOR_RETURN_NOT_OK(
        catalog_
            .AddReplica(table, WorkerSite(r.worker_index), r.partition,
                        std::move(physical), r.segment_page_budget,
                        std::move(indexed), columnar)
            .status());
  }
  for (const ReplicaSpec& r : replicas) {
    Worker* w = worker(r.worker_index);
    if (w->running()) {
      HARBOR_RETURN_NOT_OK(w->ProvisionReplicas());
    }
  }
  return table;
}

Status Cluster::BulkLoad(TableId table, const std::vector<LoadRow>& rows,
                         bool seal_segment) {
  HARBOR_ASSIGN_OR_RETURN(const TableDef* def, catalog_.GetTable(table));
  for (const ReplicaPlacement& p : def->replicas) {
    Worker* w = nullptr;
    for (auto& candidate : workers_) {
      if (candidate->site_id() == p.site) w = candidate.get();
    }
    if (w == nullptr || !w->running()) continue;
    HARBOR_ASSIGN_OR_RETURN(TableObject * obj,
                            w->local_catalog()->GetObject(p.object_id));
    HARBOR_ASSIGN_OR_RETURN(std::vector<size_t> mapping,
                            obj->schema.MappingFrom(def->logical_schema));
    size_t key_idx = SIZE_MAX;
    if (!obj->partition.IsFull()) {
      HARBOR_ASSIGN_OR_RETURN(
          key_idx, def->logical_schema.ColumnIndex(obj->partition.column));
    }
    for (const LoadRow& row : rows) {
      if (key_idx != SIZE_MAX) {
        const Value& key = row.values[key_idx];
        const int64_t k = key.type() == ColumnType::kInt32 ? key.AsInt32()
                                                            : key.AsInt64();
        if (!obj->partition.Contains(k)) continue;
      }
      Tuple t(row.values);
      t.set_tuple_id(row.tuple_id);
      t.set_insertion_ts(row.insertion_ts);
      t.set_deletion_ts(row.deletion_ts);
      HARBOR_RETURN_NOT_OK(
          w->store()->InsertCommittedTuple(obj, t.RemapColumns(mapping))
              .status());
    }
    if (seal_segment) {
      HARBOR_RETURN_NOT_OK(obj->file->StartNewSegment());
    }
    HARBOR_RETURN_NOT_OK(obj->file->SyncHeaderIfDirty());
  }
  return Status::OK();
}

Status Cluster::CheckpointAll() {
  for (auto& w : workers_) {
    if (!w->running()) continue;
    if (WorkerLogs(options_.protocol)) {
      HARBOR_RETURN_NOT_OK(w->pool()->FlushAll());
      HARBOR_RETURN_NOT_OK(
          AriesRecovery::WriteCheckpoint(w->log(), w->pool(), w->txns()));
    } else {
      HARBOR_RETURN_NOT_OK(w->WriteCheckpoint());
    }
  }
  return Status::OK();
}

Result<RecoveryStats> Cluster::RecoverWorker(int i, RecoveryOptions options) {
  Worker* w = worker(i);
  if (WorkerLogs(options_.protocol)) {
    // Log-based path: ARIES restart recovery happens inside Start() and the
    // site is immediately online (the log is the source of truth).
    Stopwatch watch;
    HARBOR_RETURN_NOT_OK(w->Start(SiteState::kOnline));
    RecoveryStats stats;
    stats.total_seconds = watch.ElapsedSeconds();
    return stats;
  }
  // HARBOR path: endpoint up in recovering state, then the three phases.
  Stopwatch watch;
  HARBOR_RETURN_NOT_OK(w->Start(SiteState::kRecovering));
  if (options.coordinators.empty()) options.coordinators = CoordinatorSites();
  RecoveryManager manager(w, options);
  HARBOR_ASSIGN_OR_RETURN(RecoveryStats stats, manager.Recover());
  stats.total_seconds = watch.ElapsedSeconds();
  return stats;
}

void Cluster::AdvanceEpoch(int n) {
  for (int i = 0; i < n; ++i) authority_.Advance();
}

Status Cluster::WaitForTxnDrain(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    std::string stuck;
    for (const auto& w : workers_) {
      std::vector<TxnId> ids = w->ActiveTxnIds();
      if (ids.empty()) continue;
      stuck += " site " + std::to_string(w->site_id()) + ":";
      for (TxnId id : ids) stuck += " " + std::to_string(id);
    }
    if (stuck.empty()) return Status::OK();
    if (std::chrono::steady_clock::now() > deadline) {
      return Status::TimedOut("transactions still active after " +
                              std::to_string(timeout.count()) + " ms:" +
                              stuck);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

}  // namespace harbor
