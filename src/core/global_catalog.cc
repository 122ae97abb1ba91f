#include "core/global_catalog.h"

#include <algorithm>
#include <cstdint>

namespace harbor {

namespace {

/// splitmix64 finalizer: the rendezvous-hash mixer. Deterministic across
/// runs and platforms so every node computes the same placement.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t RendezvousWeight(TableId table, uint32_t shard, SiteId site) {
  uint64_t key = (static_cast<uint64_t>(table) << 40) ^
                 (static_cast<uint64_t>(shard) << 20) ^
                 static_cast<uint64_t>(site);
  return Mix64(key);
}

}  // namespace

Result<TableId> GlobalCatalog::AddTable(std::string name,
                                        Schema logical_schema) {
  std::lock_guard<std::mutex> lock(mu_);
  if (by_name_.count(name)) {
    return Status::AlreadyExists("table '" + name + "'");
  }
  auto def = std::make_unique<TableDef>();
  def->id = static_cast<TableId>(tables_.size() + 1);
  def->name = name;
  def->logical_schema = std::move(logical_schema);
  TableId id = def->id;
  by_name_[std::move(name)] = id;
  tables_.push_back(std::move(def));
  return id;
}

Result<ObjectId> GlobalCatalog::AddReplica(TableId table, SiteId site,
                                           PartitionRange partition,
                                           Schema physical_schema,
                                           uint32_t segment_page_budget,
                                           std::string indexed_column,
                                           bool columnar) {
  std::lock_guard<std::mutex> lock(mu_);
  if (table == 0 || table > tables_.size()) {
    return Status::NotFound("no table " + std::to_string(table));
  }
  TableDef* def = tables_[table - 1].get();
  if (!physical_schema.LogicallyEquals(def->logical_schema)) {
    return Status::InvalidArgument(
        "replica schema is not a permutation of the logical schema");
  }
  if (!partition.IsFull()) {
    // Partition keys route and scan as integers.
    HARBOR_ASSIGN_OR_RETURN(
        size_t key, def->logical_schema.ColumnIndex(partition.column));
    const ColumnType type = def->logical_schema.column(key).type;
    if (type != ColumnType::kInt32 && type != ColumnType::kInt64) {
      return Status::InvalidArgument("partition column " + partition.column +
                                     " is not an integer column");
    }
  }
  ReplicaPlacement p;
  p.site = site;
  p.object_id = next_object_id_++;
  p.partition = std::move(partition);
  p.physical_schema = std::move(physical_schema);
  p.segment_page_budget = segment_page_budget;
  p.indexed_column = std::move(indexed_column);
  p.columnar = columnar;
  ObjectId id = p.object_id;
  def->replicas.push_back(std::move(p));
  return id;
}

Result<const TableDef*> GlobalCatalog::GetTable(TableId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0 || id > tables_.size()) {
    return Status::NotFound("no table " + std::to_string(id));
  }
  return const_cast<const TableDef*>(tables_[id - 1].get());
}

Result<const TableDef*> GlobalCatalog::GetTableByName(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return Status::NotFound("no table '" + name + "'");
  return const_cast<const TableDef*>(tables_[it->second - 1].get());
}

std::vector<const TableDef*> GlobalCatalog::tables() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const TableDef*> out;
  out.reserve(tables_.size());
  for (const auto& t : tables_) out.push_back(t.get());
  return out;
}

std::vector<SiteId> GlobalCatalog::SitesOf(TableId table) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SiteId> out;
  if (table == 0 || table > tables_.size()) return out;
  for (const ReplicaPlacement& p : tables_[table - 1]->replicas) {
    if (std::find(out.begin(), out.end(), p.site) == out.end()) {
      out.push_back(p.site);
    }
  }
  return out;
}

Result<std::vector<ObjectId>> GlobalCatalog::PlaceTable(
    TableId table, const std::vector<SiteId>& sites,
    const PlacementSpec& spec) {
  if (spec.replication_factor == 0 || spec.shards == 0) {
    return Status::InvalidArgument(
        "placement needs replication_factor >= 1 and shards >= 1");
  }
  if (spec.replication_factor > sites.size()) {
    return Status::InvalidArgument(
        "replication factor " + std::to_string(spec.replication_factor) +
        " exceeds the " + std::to_string(sites.size()) + " candidate sites");
  }
  if (spec.shards > 1 &&
      (spec.shard_column.empty() || spec.domain_hi <= spec.domain_lo)) {
    return Status::InvalidArgument(
        "sharded placement needs a shard column and a non-empty key domain");
  }
  Schema logical;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (table == 0 || table > tables_.size()) {
      return Status::NotFound("no table " + std::to_string(table));
    }
    logical = tables_[table - 1]->logical_schema;
  }
  std::vector<ObjectId> out;
  const int64_t span = spec.domain_hi - spec.domain_lo;
  for (uint32_t shard = 0; shard < spec.shards; ++shard) {
    PartitionRange range = PartitionRange::Full();
    if (spec.shards > 1) {
      const int64_t lo =
          spec.domain_lo + span * static_cast<int64_t>(shard) /
                               static_cast<int64_t>(spec.shards);
      const int64_t hi =
          spec.domain_lo + span * static_cast<int64_t>(shard + 1) /
                               static_cast<int64_t>(spec.shards);
      range = PartitionRange::On(spec.shard_column, lo, hi);
    }
    // Rank every candidate site by its rendezvous weight for this shard and
    // take the top replication_factor.
    std::vector<SiteId> ranked = sites;
    std::sort(ranked.begin(), ranked.end(), [&](SiteId a, SiteId b) {
      const uint64_t wa = RendezvousWeight(table, shard, a);
      const uint64_t wb = RendezvousWeight(table, shard, b);
      return wa != wb ? wa > wb : a < b;
    });
    for (uint32_t r = 0; r < spec.replication_factor; ++r) {
      HARBOR_ASSIGN_OR_RETURN(
          ObjectId id,
          AddReplica(table, ranked[r], range, logical,
                     spec.segment_page_budget, spec.indexed_column,
                     spec.columnar));
      out.push_back(id);
    }
  }
  return out;
}

Result<int> GlobalCatalog::KSafety(TableId table) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (table == 0 || table > tables_.size()) {
    return Status::NotFound("no table " + std::to_string(table));
  }
  const TableDef* def = tables_[table - 1].get();
  if (def->replicas.empty()) {
    return Status::NotFound("table " + std::to_string(table) +
                            " has no replicas");
  }
  size_t full = 0;
  std::vector<const PartitionRange*> parts;
  for (const ReplicaPlacement& p : def->replicas) {
    if (p.partition.IsFull()) {
      ++full;
    } else {
      parts.push_back(&p.partition);
    }
  }
  if (parts.empty()) return static_cast<int>(full) - 1;
  // Elementary intervals between partition boundaries: the replica count is
  // constant within each, so the domain minimum is the minimum over them.
  std::vector<int64_t> bounds;
  for (const PartitionRange* p : parts) {
    bounds.push_back(p->lo);
    bounds.push_back(p->hi);
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  size_t min_copies = SIZE_MAX;
  for (size_t i = 0; i + 1 < bounds.size(); ++i) {
    size_t copies = full;
    for (const PartitionRange* p : parts) {
      if (p->lo <= bounds[i] && p->hi >= bounds[i + 1]) ++copies;
    }
    min_copies = std::min(min_copies, copies);
  }
  return static_cast<int>(min_copies) - 1;
}

Result<std::vector<RecoveryObject>> GlobalCatalog::ReplicasCovering(
    TableId table, const PartitionRange& range, SiteId exclude_site,
    const std::function<bool(SiteId)>& usable) const {
  std::vector<RecoveryObject> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (table == 0 || table > tables_.size()) {
      return Status::NotFound("no table " + std::to_string(table));
    }
    for (const ReplicaPlacement& p : tables_[table - 1]->replicas) {
      if (p.site == exclude_site || !usable(p.site)) continue;
      const bool covers =
          p.partition.IsFull() ||
          (!range.IsFull() && p.partition.column == range.column &&
           p.partition.lo <= range.lo && p.partition.hi >= range.hi);
      if (covers) out.push_back(RecoveryObject{p.site, p.object_id, range});
    }
  }
  if (out.empty()) {
    return Status::Unavailable(
        "no usable replica covers the target range: K-safety exceeded");
  }
  // Same rotation as PlanCover's full-replica pick, so stream 0's first
  // buddy is exactly the cover PlanCover would choose.
  std::rotate(out.begin(), out.begin() + (table % out.size()), out.end());
  return out;
}

Result<std::vector<RecoveryObject>> GlobalCatalog::PlanCover(
    TableId table, const PartitionRange& target, SiteId exclude_site,
    const std::function<bool(SiteId)>& usable) const {
  std::vector<ReplicaPlacement> candidates;
  PartitionRange domain = target;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (table == 0 || table > tables_.size()) {
      return Status::NotFound("no table " + std::to_string(table));
    }
    for (const ReplicaPlacement& p : tables_[table - 1]->replicas) {
      // The table's data domain is the union of all replica ranges (every
      // datum lives in K+1 replicas, so a full-table target only needs to
      // cover that union).
      if (target.IsFull() && !p.partition.IsFull() && domain.IsFull()) {
        domain = p.partition;
      } else if (target.IsFull() && !p.partition.IsFull()) {
        domain.lo = std::min(domain.lo, p.partition.lo);
        domain.hi = std::max(domain.hi, p.partition.hi);
      }
      if (p.site == exclude_site || !usable(p.site)) continue;
      if (PartitionRange::Intersect(p.partition, target).has_value()) {
        candidates.push_back(p);
      }
    }
  }
  if (candidates.empty()) {
    return Status::Unavailable(
        "no live replicas cover the target range: K-safety exceeded");
  }

  std::vector<RecoveryObject> plan;

  // A full replica covers everything in one piece. When several qualify,
  // rotate the choice by object id so that a site recovering multiple
  // objects in parallel spreads the load over different buddies and their
  // transfers overlap (§6.4.1's parallel two-table recovery).
  std::vector<const ReplicaPlacement*> full;
  for (const ReplicaPlacement& p : candidates) {
    if (p.partition.IsFull() || (!target.IsFull() &&
                                 p.partition.lo <= target.lo &&
                                 p.partition.hi >= target.hi &&
                                 p.partition.column == target.column)) {
      full.push_back(&p);
    }
  }
  if (!full.empty()) {
    const ReplicaPlacement* pick = full[table % full.size()];
    plan.push_back(RecoveryObject{pick->site, pick->object_id, target});
    return plan;
  }

  if (target.IsFull()) {
    // No full replica is usable: cover the union-of-partitions domain with
    // the partitioned replicas instead.
    if (domain.IsFull()) {
      return Status::Unavailable(
          "no usable full replica and no partitioned placements");
    }
    return PlanCover(table, domain, exclude_site, usable);
  }

  // Greedy interval cover with mutually exclusive assigned predicates.
  std::sort(candidates.begin(), candidates.end(),
            [](const ReplicaPlacement& a, const ReplicaPlacement& b) {
              return a.partition.lo < b.partition.lo;
            });
  int64_t cursor = target.lo;
  while (cursor < target.hi) {
    const ReplicaPlacement* best = nullptr;
    for (const ReplicaPlacement& p : candidates) {
      if (p.partition.column != target.column) continue;
      if (p.partition.lo <= cursor && p.partition.hi > cursor) {
        if (best == nullptr || p.partition.hi > best->partition.hi) {
          best = &p;
        }
      }
    }
    if (best == nullptr) {
      return Status::Unavailable(
          "live replicas leave a gap at key " + std::to_string(cursor) +
          ": K-safety exceeded for this range");
    }
    int64_t end = std::min(best->partition.hi, target.hi);
    plan.push_back(RecoveryObject{
        best->site, best->object_id,
        PartitionRange::On(target.column, cursor, end)});
    cursor = end;
  }
  return plan;
}

}  // namespace harbor
