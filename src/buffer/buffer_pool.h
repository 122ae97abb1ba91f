#ifndef HARBOR_BUFFER_BUFFER_POOL_H_
#define HARBOR_BUFFER_BUFFER_POOL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/types.h"
#include "lock/lock_manager.h"
#include "obs/metrics.h"
#include "storage/file_manager.h"

namespace harbor {

class BufferPool;

/// Page replacement policies (§6.1.3 uses random eviction; LRU provided for
/// the ablation benchmarks).
enum class EvictionPolicy { kRandom, kLru };

/// Whether dirty pages of uncommitted transactions may be written to disk
/// (STEAL) — §6.1.3 enforces STEAL/NO-FORCE; NO-STEAL restricts eviction to
/// clean pages and is provided for completeness/ablation.
enum class StealPolicy { kSteal, kNoSteal };

/// \brief RAII pin on a buffered page.
///
/// While a PageHandle is alive the frame cannot be evicted. Byte-level reads
/// and writes of the page must happen under the frame latch (Latch()/RAII
/// PageLatchGuard) so that checkpoint and eviction flushes — which take the
/// write latch per Figure 3-2 — never see a torn page. Dropping the handle
/// (unpin) is mutex-free: a single atomic decrement.
class PageHandle {
 public:
  PageHandle() = default;
  PageHandle(BufferPool* pool, size_t frame);
  ~PageHandle();
  PageHandle(PageHandle&& other) noexcept;
  PageHandle& operator=(PageHandle&& other) noexcept;
  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;

  bool valid() const { return pool_ != nullptr; }

  uint8_t* data();
  const uint8_t* data() const;
  PageId page_id() const;

  /// Marks the page dirty in the dirty-pages table. Call while holding the
  /// latch, after modifying bytes. In ARIES mode pass the LSN of the record
  /// describing the change: the first LSN to dirty a clean page is recorded
  /// as the page's recLSN for fuzzy checkpoints.
  void MarkDirty(Lsn lsn = kInvalidLsn);

  std::mutex& Latch();

 private:
  void Release();
  BufferPool* pool_ = nullptr;
  size_t frame_ = 0;
};

/// BufferPool construction options (namespace scope so the constructor can
/// default them with `= {}`).
struct BufferPoolOptions {
  EvictionPolicy eviction = EvictionPolicy::kRandom;
  StealPolicy steal = StealPolicy::kSteal;
  /// Number of page-table shards; 0 picks a power of two scaled to the
  /// capacity (roughly one shard per 8 frames, capped at 64).
  size_t shards = 0;
  /// Victim-search attempts before giving up with ResourceExhausted. Each
  /// failed attempt waits up to `victim_wait` for some pin to drop.
  int victim_attempts = 3;
  std::chrono::milliseconds victim_wait{5000};
};

/// \brief The page cache for one site (§6.1.3), sharded for concurrency.
///
/// Sits between the operators/versioning layer above and the heap files
/// below. The page→frame table is partitioned into a power-of-two number of
/// shards, each with its own mutex, so lookups by different threads rarely
/// contend; pin counts, dirty flags and LRU stamps are per-frame atomics, so
/// unpinning (and everything else a reader does after the lookup) takes no
/// mutex at all. All disk I/O — miss reads, dirty-victim flushes, checkpoint
/// flushes — runs with no shard lock held: a frame being read from disk is
/// published in `kLoading` state and waiters block on the shard's condition
/// variable, while a dirty victim is flushed under only its frame latch and
/// re-checked before the eviction commits.
///
/// The pool maintains the standard dirty-pages table used by the
/// checkpointing algorithm (Figure 3-2), enforces the configured STEAL
/// policy on eviction, and exposes hooks that keep lower/upper layers
/// consistent:
///   - the WAL hook forces the log up to a page's pageLSN before the page is
///     flushed (write-ahead rule; only installed in ARIES mode);
///   - the header hook persists a segmented file's directory before any of
///     its data pages reach disk (see SegmentedHeapFile).
/// Both hooks fire, in that order, before every page write, exactly as in
/// the single-mutex pool — only the locks held while they run have changed.
class BufferPool {
 public:
  using Options = BufferPoolOptions;

  /// Misses, evictions and dirty-victim flushes are counted in `metrics`,
  /// the owning site's registry; hits stay in the shard-local counters.
  BufferPool(FileManager* fm, size_t capacity_pages, obs::Metrics& metrics,
             Options options = {});
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins the page, reading it from disk on a miss. `sequential` selects the
  /// disk cost model for the potential miss.
  Result<PageHandle> GetPage(PageId page, bool sequential = false);

  /// Pins a freshly allocated page, installing a zeroed frame without a
  /// disk read: the file layer guarantees new pages read back as zeros, so
  /// fetching them would charge a pointless I/O (it matters — appends are
  /// the recovery copy path's hot loop). Falls back to a plain hit if the
  /// page is already cached.
  Result<PageHandle> CreatePage(PageId page);

  /// Flushes one page if dirty (leaves it cached and clean).
  Status FlushPage(PageId page);

  /// Flushes every dirty page; used by checkpoints and clean shutdown.
  Status FlushAll();

  /// Snapshot of the dirty-pages table (Figure 3-2 takes such a snapshot).
  std::vector<PageId> DirtyPageSnapshot();

  /// Dirty pages with their recLSNs, for ARIES checkpoint-end records.
  std::vector<std::pair<PageId, Lsn>> DirtyPageSnapshotWithRecLsn();

  /// Drops all cached state *without flushing*: the crash path. Pages that
  /// were not flushed are lost, exactly as in a real failure. Callers must
  /// have quiesced the pool (no outstanding handles or in-flight loads).
  void DiscardAll();

  /// Installs the write-ahead-log hook (ARIES mode).
  void set_wal_flush_hook(std::function<Status(Lsn)> hook) {
    wal_flush_hook_ = std::move(hook);
  }
  /// Installs the segment-directory sync hook.
  void set_header_sync_hook(std::function<Status(uint32_t)> hook) {
    header_sync_hook_ = std::move(hook);
  }

  size_t capacity() const { return frames_.size(); }
  size_t shard_count() const { return shards_.size(); }
  /// Page-table hits, summed over the shard-local counts (the only copy:
  /// a registry count would cost an atomic on every hit).
  int64_t hits() const;

 private:
  friend class PageHandle;

  enum class FrameState : uint8_t {
    kFree = 0,  // not in any shard table
    kLoading,   // in a table; disk read in flight; waiters on shard cv
    kReady,     // in a table; contents valid
  };

  struct Frame {
    /// Identity of the cached page. Written only while the frame is claimed
    /// (off-table, pin 0) and read by pinned holders, so plain fields are
    /// race-free under the pin/claim protocol.
    PageId page;
    std::atomic<FrameState> state{FrameState::kFree};
    /// Claimed by an evictor mid-flush; victim searches skip such frames.
    std::atomic<bool> io_busy{false};
    std::atomic<int> pin_count{0};
    std::atomic<bool> dirty{false};
    std::atomic<Lsn> rec_lsn{kInvalidLsn};
    std::atomic<uint64_t> last_used{0};  // for LRU
    std::mutex latch;
    std::unique_ptr<uint8_t[]> data;
  };

  struct Shard {
    mutable std::mutex mu;
    /// Signalled when a kLoading frame in this shard settles (ready/failed).
    std::condition_variable load_cv;
    std::unordered_map<PageId, size_t> table;
    /// Per-shard eviction stream derived from the run-level seed so
    /// HARBOR_SEED shifts it along with everything else.
    Random rng{Random::GlobalSeed()};
    /// LRU clock and hit tally; plain fields guarded by mu (cheaper than
    /// global atomics on the hit path). LRU only ever compares stamps within
    /// one shard, so per-shard ticks order victims correctly.
    uint64_t tick = 0;     // guarded by mu
    uint64_t hits = 0;     // guarded by mu
  };

  Shard& ShardFor(PageId page) {
    return *shards_[std::hash<PageId>()(page) & shard_mask_];
  }

  /// Flushes frame contents under the frame latch only. The caller must hold
  /// a pin or the io_busy claim so the frame cannot be recycled. Never call
  /// with any shard mutex held: the hooks (log force, header sync) and the
  /// page write may block for modeled-disk time.
  Status FlushFrame(Frame& frame);

  /// Claims a frame for reuse: free list first, then a victim evicted from
  /// some shard (starting at `home`, sweeping all shards so NO-STEAL finds
  /// clean victims anywhere), waiting for unpins between attempts. On
  /// success the frame is in kFree state and owned exclusively by the
  /// caller. Never holds more than one shard mutex at a time.
  Result<size_t> AcquireFrame(size_t home_shard);

  /// Tries to evict one frame referenced by shard `s`. Returns the claimed
  /// frame index, or nullopt-like kNoFrame when nothing is evictable.
  /// Flushes dirty victims with the shard mutex dropped.
  Result<size_t> TryEvictFrom(Shard& s);
  static constexpr size_t kNoFrame = static_cast<size_t>(-1);

  void ReleaseFreeFrame(size_t idx);
  bool PopFreeFrame(size_t* idx);

  void Unpin(size_t frame_idx);

  FileManager* const fm_;
  obs::Metrics& metrics_;
  const Options opts_;

  std::vector<std::unique_ptr<Frame>> frames_;
  std::vector<std::unique_ptr<Shard>> shards_;
  size_t shard_mask_ = 0;

  std::mutex free_mu_;
  std::vector<size_t> free_;  // guarded by free_mu_

  /// Saturation waiting: miss paths that found every frame pinned park here
  /// until some unpin signals. Unpin touches it only when waiters exist, so
  /// the hot unpin path stays mutex-free.
  std::atomic<int> victim_waiters_{0};
  std::mutex saturation_mu_;
  std::condition_variable saturation_cv_;

  std::function<Status(Lsn)> wal_flush_hook_;
  std::function<Status(uint32_t)> header_sync_hook_;
};

/// RAII guard for a page's frame latch.
class PageLatchGuard {
 public:
  explicit PageLatchGuard(PageHandle& handle) : mu_(handle.Latch()) {
    mu_.lock();
  }
  ~PageLatchGuard() { mu_.unlock(); }
  PageLatchGuard(const PageLatchGuard&) = delete;
  PageLatchGuard& operator=(const PageLatchGuard&) = delete;

 private:
  std::mutex& mu_;
};

}  // namespace harbor

#endif  // HARBOR_BUFFER_BUFFER_POOL_H_
