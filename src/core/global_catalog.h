#ifndef HARBOR_CORE_GLOBAL_CATALOG_H_
#define HARBOR_CORE_GLOBAL_CATALOG_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "storage/partition.h"
#include "storage/schema.h"

namespace harbor {

/// \brief Placement of one physical object: a replica (or horizontal
/// partition of a replica) of a logical table at a site, in its own physical
/// representation (§3.1: replicas need not be identical — they may differ in
/// column order and segment sizing here).
struct ReplicaPlacement {
  SiteId site = kInvalidSiteId;
  ObjectId object_id = 0;
  PartitionRange partition;        // subset of the table this object holds
  Schema physical_schema;          // same column set, possibly reordered
  uint32_t segment_page_budget = 64;
  /// Integer column carrying a per-segment secondary index ("" = none) —
  /// replicas may even be indexed differently (§3.1: different physical
  /// representations per copy).
  std::string indexed_column;
  /// Sealed segments of this replica are served from dictionary-encoded
  /// columnar images (another per-copy physical choice, like the index).
  bool columnar = false;
};

/// \brief A logical table and its K-safe placement.
struct TableDef {
  TableId id = 0;
  std::string name;
  Schema logical_schema;
  std::vector<ReplicaPlacement> replicas;
};

/// \brief One piece of a recovery (or distributed read) plan: scan
/// `object_id` at `site` restricted to `predicate` (§5.1's recovery object +
/// recovery predicate).
struct RecoveryObject {
  SiteId site = kInvalidSiteId;
  ObjectId object_id = 0;
  PartitionRange predicate;
};

/// \brief Desired shape of a deterministic K-safe placement (PlaceTable):
/// `replication_factor` copies of each shard, `shards` horizontal shards
/// over `shard_column`'s [domain_lo, domain_hi) key domain (an INT32 or
/// INT64 column). shards == 1 places full-table replicas. The replication
/// factor is the paper's K+1: the table survives replication_factor - 1
/// simultaneous site failures.
struct PlacementSpec {
  uint32_t replication_factor = 2;
  uint32_t shards = 1;
  std::string shard_column;
  int64_t domain_lo = 0;
  int64_t domain_hi = 0;
  uint32_t segment_page_budget = 64;
  std::string indexed_column;
  bool columnar = false;
};

/// \brief The replicated cluster-wide catalog: tables, schemas, and replica
/// placements (§5.1 assumes the catalog stores exactly this).
///
/// PlanCover is the computation the thesis equates with distributed query
/// planning: given a target range of a table and the set of usable sites,
/// find objects whose predicates are mutually exclusive and collectively
/// cover the range.
class GlobalCatalog {
 public:
  /// Registers a table; replica placements are added with AddReplica.
  Result<TableId> AddTable(std::string name, Schema logical_schema);

  /// Adds a replica/partition placement; assigns and returns its object id
  /// (object ids are globally unique and double as file ids at their site).
  /// A partitioned placement's column must be an INT32 or INT64 column.
  Result<ObjectId> AddReplica(TableId table, SiteId site,
                              PartitionRange partition, Schema physical_schema,
                              uint32_t segment_page_budget,
                              std::string indexed_column = "",
                              bool columnar = false);

  Result<const TableDef*> GetTable(TableId id) const;
  Result<const TableDef*> GetTableByName(const std::string& name) const;
  std::vector<const TableDef*> tables() const;

  /// Sites hosting any replica of `table`.
  std::vector<SiteId> SitesOf(TableId table) const;

  /// Computes a mutually exclusive, collectively covering set of recovery
  /// objects for `target` (a range of `table`) using only sites accepted by
  /// `usable` and excluding `exclude_site` (the recovering site itself).
  /// Fails with kUnavailable if the live replicas cannot cover the range —
  /// i.e. more than K failures hit this table (§3.2).
  Result<std::vector<RecoveryObject>> PlanCover(
      TableId table, const PartitionRange& target, SiteId exclude_site,
      const std::function<bool(SiteId)>& usable) const;

  /// Deterministically places `table` across `sites` without a stored
  /// assignment map: each shard's replicas are the spec.replication_factor
  /// sites with the highest rendezvous hash of (table, shard, site).
  /// Placement is therefore computable by every node from the catalog alone,
  /// stable when unrelated sites join or leave, and spreads shards evenly
  /// when the cluster is much larger than the replication factor. Returns
  /// the new object ids (shard-major, replica-minor).
  Result<std::vector<ObjectId>> PlaceTable(TableId table,
                                           const std::vector<SiteId>& sites,
                                           const PlacementSpec& spec);

  /// The table's K-safety: the number of simultaneous site failures that
  /// provably leaves every key of the table's domain coverable — the
  /// minimum replica count over the domain, minus one (§3.2). Fails with
  /// kNotFound for an unplaced table.
  Result<int> KSafety(TableId table) const;

  /// Every usable replica whose partition fully contains `range`, in the
  /// same rotation order PlanCover uses to spread concurrent recoveries
  /// over different buddies. Parallel recovery assigns its per-object
  /// streams to distinct entries and fails a dying stream over to the next
  /// one at the stream cursor. kUnavailable when no usable replica covers
  /// the range.
  Result<std::vector<RecoveryObject>> ReplicasCovering(
      TableId table, const PartitionRange& range, SiteId exclude_site,
      const std::function<bool(SiteId)>& usable) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<TableDef>> tables_;
  std::unordered_map<std::string, TableId> by_name_;
  ObjectId next_object_id_ = 1;
};

}  // namespace harbor

#endif  // HARBOR_CORE_GLOBAL_CATALOG_H_
