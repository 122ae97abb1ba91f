#ifndef HARBOR_TXN_VERSION_STORE_H_
#define HARBOR_TXN_VERSION_STORE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/result.h"
#include "common/types.h"
#include "lock/lock_manager.h"
#include "storage/local_catalog.h"
#include "storage/tuple.h"
#include "txn/transaction.h"
#include "wal/log_manager.h"

namespace harbor {

/// \brief The versioning and timestamp management wrapper around the buffer
/// pool (§6.1.4).
///
/// Transactional mutations never overwrite committed data:
///  - InsertTuple writes the tuple with the uncommitted sentinel timestamp
///    and records it in the transaction's insertion list;
///  - DeleteTuple only records the target in the deletion list (and takes
///    the exclusive page lock that guarantees the page can be stamped at
///    commit) — the page is untouched until commit;
///  - updates are expressed by the operator layer as delete + insert.
///
/// StampCommit assigns the commit time to everything in the lists;
/// RollbackTransaction removes inserted tuples — no undo log needed, because
/// deletes haven't touched pages and inserts are identified by the lists
/// (§4.1). When a LogManager is supplied (ARIES mode) every physical change
/// is additionally logged with undo/redo information.
///
/// The latch-only entry points at the bottom serve recovery and bulk load,
/// which operate outside transactions (§5.2-5.4: recovery's local queries
/// run before the site is online).
class VersionStore {
 public:
  /// `log` may be null: HARBOR mode, no logging at all.
  VersionStore(LocalCatalog* catalog, BufferPool* pool, LockManager* locks,
               LogManager* log, TxnTable* txns);

  // --- Transactional operations (page locks, strict 2PL) ---

  /// Inserts `tuple` (whose tuple_id must be set; timestamps are ignored)
  /// into the object's open segment, densely packing existing pages first.
  Result<RecordId> InsertTuple(TxnState* txn, TableObject* obj,
                               const Tuple& tuple);

  /// Registers the logical deletion of the tuple at `rid`. Fails with
  /// kAborted if the tuple is already deleted (write-write conflict with a
  /// committed deleter) or was already deleted by this transaction.
  Status DeleteTuple(TxnState* txn, TableObject* obj, RecordId rid);

  /// Assigns `commit_ts` to all tuples in the transaction's insertion and
  /// deletion lists and maintains per-segment timestamp annotations. Caller
  /// subsequently releases locks and erases the TxnState.
  Status StampCommit(TxnState* txn, Timestamp commit_ts);

  /// Physically removes the transaction's inserted tuples (writing CLRs in
  /// ARIES mode). Deletions need no undo — they never touched pages.
  Status RollbackTransaction(TxnState* txn);

  // --- Latch-only operations (recovery, bulk load) ---

  /// Inserts a tuple whose timestamps are already final (copied from a
  /// recovery buddy, §5.3, or bulk-loaded).
  Result<RecordId> InsertCommittedTuple(TableObject* obj, const Tuple& tuple);

  /// Batch form for recovery chunk applies: acquires each heap page once and
  /// fills it until full, amortizing the insertable-page search over whole
  /// chunks. Safe under concurrent same-object batches — a page a competitor
  /// fills first is simply skipped. `applied` (may be nullptr) is bumped per
  /// inserted tuple.
  Status InsertCommittedTuples(TableObject* obj,
                               const std::vector<Tuple>& tuples,
                               size_t* applied);

  /// In-place write of the deletion timestamp: recovery Phase 1's undelete
  /// (ts = 0, §5.2) and Phases 2-3's deletion copy (§5.3-5.4).
  Status SetDeletionTs(TableObject* obj, RecordId rid, Timestamp ts);

  /// Physically removes a tuple (recovery Phase 1's DELETE of post-
  /// checkpoint and uncommitted tuples).
  Status PhysicalDelete(TableObject* obj, RecordId rid);

  /// Reads one tuple version (latch-only; returns NotFound for empty slots).
  Result<Tuple> ReadTuple(TableObject* obj, RecordId rid);

  /// Materializes the versions a key scan selected, in `keys` order, each
  /// with the deletion time its key presents. Latches each page once per run
  /// of consecutive keys on it. A slot no longer holding its key's tuple id
  /// was removed after the key scan and is skipped.
  Result<std::vector<Tuple>> ReadVersions(TableObject* obj,
                                          const std::vector<VersionKey>& keys);

  /// Rebuilds the volatile tuple-id index by scanning the object.
  Status RebuildIndex(TableObject* obj);

  /// Rebuilds the index only if it does not yet cover the on-disk state
  /// (indices are "recovered as a side effect" and built on first need,
  /// §5.1).
  Status EnsureIndex(TableObject* obj);

  /// Returns the columnar image of sealed segment `seg`, building it from
  /// latched page copies on first use (volatile, like the indexes: rebuilt
  /// lazily after a restart). The object's row pages stay authoritative;
  /// post-sealing mutations (commit stamps, physical deletes, rollbacks)
  /// are written through to cached images by the mutation paths below.
  Result<std::shared_ptr<ColumnarSegment>> EnsureColumnarSegment(
      TableObject* obj, size_t seg);

  /// Segments of `obj` that currently hold uncommitted tuples of live
  /// transactions (consulted by the checkpointer to maintain the
  /// may_have_uncommitted flags).
  std::vector<size_t> SegmentsWithUncommitted(const TableObject* obj);

  BufferPool* buffer_pool() const { return pool_; }
  LockManager* lock_manager() const { return locks_; }
  LocalCatalog* catalog() const { return catalog_; }
  LogManager* log() const { return log_; }
  bool logging_enabled() const { return log_ != nullptr; }

 private:
  // Finds (or appends) a page of the object's open segment with a free
  // slot; the owner, if non-zero, takes page locks on the way. Returns a
  // pinned handle with the page X-locked (owner path) and the page id.
  Result<PageHandle> AcquirePageForInsert(LockOwnerId owner, TableObject* obj,
                                          PageId* out_page);

  Lsn LogInsert(TxnState* txn, ObjectId object_id, RecordId rid,
                const uint8_t* image, uint32_t image_size);
  Lsn LogStamp(TxnState* txn, ObjectId object_id, RecordId rid,
               StampField field, Timestamp before, Timestamp after);

  LocalCatalog* const catalog_;
  BufferPool* const pool_;
  LockManager* const locks_;
  LogManager* const log_;
  TxnTable* const txns_;

  // Per-object hint: first page of the open segment that may have space.
  std::mutex hint_mu_;
  std::unordered_map<ObjectId, uint32_t> insert_hints_;
};

}  // namespace harbor

#endif  // HARBOR_TXN_VERSION_STORE_H_
