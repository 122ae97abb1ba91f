#include "buffer/buffer_pool.h"

#include <cstring>

#include "common/clock.h"
#include "obs/observer.h"
#include "storage/heap_page.h"

namespace harbor {

PageHandle::PageHandle(BufferPool* pool, size_t frame)
    : pool_(pool), frame_(frame) {}

PageHandle::~PageHandle() { Release(); }

PageHandle::PageHandle(PageHandle&& other) noexcept
    : pool_(other.pool_), frame_(other.frame_) {
  other.pool_ = nullptr;
}

PageHandle& PageHandle::operator=(PageHandle&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    other.pool_ = nullptr;
  }
  return *this;
}

void PageHandle::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
  }
}

uint8_t* PageHandle::data() { return pool_->frames_[frame_]->data.get(); }
const uint8_t* PageHandle::data() const {
  return pool_->frames_[frame_]->data.get();
}

PageId PageHandle::page_id() const { return pool_->frames_[frame_]->page; }

void PageHandle::MarkDirty(Lsn lsn) {
  // Setting dirty from the modify path (which holds the frame latch, not a
  // shard mutex) is safe: the flag is monotone between flushes and every
  // flusher re-checks it under the latch.
  BufferPool::Frame& f = *pool_->frames_[frame_];
  bool was_dirty = f.dirty.exchange(true, std::memory_order_acq_rel);
  if (!was_dirty && lsn != kInvalidLsn) f.rec_lsn = lsn;
}

std::mutex& PageHandle::Latch() { return pool_->frames_[frame_]->latch; }

BufferPool::BufferPool(FileManager* fm, size_t capacity_pages, Options options)
    : fm_(fm), opts_(options) {
  frames_.reserve(capacity_pages);
  free_.reserve(capacity_pages);
  for (size_t i = 0; i < capacity_pages; ++i) {
    auto f = std::make_unique<Frame>();
    f->data = std::make_unique<uint8_t[]>(kPageSize);
    frames_.push_back(std::move(f));
    free_.push_back(i);
  }
  size_t n = opts_.shards;
  if (n == 0) {
    // Roughly one shard per 8 frames: tiny unit-test pools collapse to a
    // single shard, a production-sized pool (8k+ pages) gets the full 64.
    n = 1;
    while (n < 64 && n * 8 < capacity_pages) n <<= 1;
  } else {
    size_t pow2 = 1;
    while (pow2 < n) pow2 <<= 1;
    n = pow2;
  }
  shard_mask_ = n - 1;
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto s = std::make_unique<Shard>();
    s->rng = Random(Random::GlobalSeed() ^ (0xbadcafe + i * 0x9e3779b97f4a7c15ULL));
    shards_.push_back(std::move(s));
  }
}

BufferPool::BufferPool(FileManager* fm, size_t capacity_pages,
                       EvictionPolicy eviction, StealPolicy steal)
    : BufferPool(fm, capacity_pages, Options{.eviction = eviction, .steal = steal}) {}

BufferPool::~BufferPool() = default;

void BufferPool::Unpin(size_t frame_idx) {
  Frame& f = *frames_[frame_idx];
  int before = f.pin_count.fetch_sub(1, std::memory_order_acq_rel);
  HARBOR_CHECK(before > 0);
  // Mutex-free on the hot path: only when a miss is parked waiting for a
  // frame does the unpin pay for a wakeup.
  if (before == 1 && victim_waiters_.load(std::memory_order_seq_cst) > 0) {
    { std::lock_guard<std::mutex> lock(saturation_mu_); }
    saturation_cv_.notify_all();
  }
}

bool BufferPool::PopFreeFrame(size_t* idx) {
  std::lock_guard<std::mutex> lock(free_mu_);
  if (free_.empty()) return false;
  *idx = free_.back();
  free_.pop_back();
  return true;
}

void BufferPool::ReleaseFreeFrame(size_t idx) {
  Frame& f = *frames_[idx];
  f.state.store(FrameState::kFree, std::memory_order_relaxed);
  f.pin_count.store(0, std::memory_order_relaxed);
  f.dirty.store(false, std::memory_order_relaxed);
  f.rec_lsn.store(kInvalidLsn, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(free_mu_);
    free_.push_back(idx);
  }
  // A parked miss may be waiting for exactly this frame.
  if (victim_waiters_.load(std::memory_order_seq_cst) > 0) {
    { std::lock_guard<std::mutex> lock(saturation_mu_); }
    saturation_cv_.notify_all();
  }
}

Status BufferPool::FlushFrame(Frame& frame) {
  // Only the frame latch is held across the hooks and the page write; the
  // shard tables stay open for business while this (possibly modeled-disk
  // slow) I/O runs. The caller guarantees the frame cannot be recycled
  // (it holds a pin or the io_busy claim).
  std::lock_guard<std::mutex> latch(frame.latch);
  if (!frame.dirty.load(std::memory_order_acquire)) return Status::OK();
  // Ordering invariants: the segment directory covering this page's
  // timestamps reaches disk first, then (in ARIES mode) the log up to the
  // page's LSN, then the page itself.
  if (header_sync_hook_) {
    HARBOR_RETURN_NOT_OK(header_sync_hook_(frame.page.file_id));
  }
  if (wal_flush_hook_) {
    Lsn page_lsn;
    std::memcpy(&page_lsn, frame.data.get(), sizeof(Lsn));
    if (page_lsn != kInvalidLsn) {
      HARBOR_RETURN_NOT_OK(wal_flush_hook_(page_lsn));
    }
  }
  HARBOR_RETURN_NOT_OK(fm_->WritePage(frame.page, frame.data.get()));
  frame.dirty.store(false, std::memory_order_release);
  frame.rec_lsn.store(kInvalidLsn, std::memory_order_relaxed);
  return Status::OK();
}

Result<size_t> BufferPool::TryEvictFrom(Shard& s) {
  std::unique_lock<std::mutex> lk(s.mu);
  // A frame of this shard changes `state` and `io_busy` only under s.mu,
  // which we hold, so relaxed loads see their latest values. `pin_count`
  // drops without the lock: the acquire pairs with the release half of
  // Unpin's fetch_sub, so the last reader's accesses to the frame happen
  // before its reuse below.
  auto evictable = [&](const Frame& f) {
    if (f.state.load(std::memory_order_relaxed) != FrameState::kReady) {
      return false;
    }
    if (f.io_busy.load(std::memory_order_relaxed)) return false;
    if (f.pin_count.load(std::memory_order_acquire) != 0) return false;
    if (opts_.steal == StealPolicy::kNoSteal &&
        f.dirty.load(std::memory_order_relaxed)) {
      return false;
    }
    return true;
  };

  std::vector<size_t> candidates;
  candidates.reserve(s.table.size());
  for (const auto& [pid, idx] : s.table) {
    if (evictable(*frames_[idx])) candidates.push_back(idx);
  }
  if (candidates.empty()) return kNoFrame;

  size_t victim;
  if (opts_.eviction == EvictionPolicy::kRandom) {
    // Random eviction (§6.1.3) among this shard's evictable residents.
    victim = candidates[s.rng.Uniform(candidates.size())];
  } else {
    victim = candidates[0];
    uint64_t oldest = frames_[victim]->last_used.load(std::memory_order_relaxed);
    for (size_t idx : candidates) {
      uint64_t used = frames_[idx]->last_used.load(std::memory_order_relaxed);
      if (used < oldest) {
        oldest = used;
        victim = idx;
      }
    }
  }

  Frame& f = *frames_[victim];
  if (f.dirty.load(std::memory_order_acquire)) {
    HARBOR_CHECK(opts_.steal == StealPolicy::kSteal);
    // Claim the frame so no other evictor races us, then flush with the
    // shard unlocked: readers of this and every other page in the shard
    // keep hitting while the victim's bytes travel to disk.
    f.io_busy.store(true, std::memory_order_release);
    lk.unlock();
    Status st = FlushFrame(f);
    lk.lock();
    f.io_busy.store(false, std::memory_order_release);
    if (!st.ok()) return st;
    dirty_victim_flushes_.fetch_add(1, std::memory_order_relaxed);
    obs::Count(opts_.site_id, obs::CounterId::kBufDirtyVictimFlushes);
    if (f.pin_count.load(std::memory_order_acquire) != 0 ||
        f.dirty.load(std::memory_order_acquire)) {
      // Re-pinned or re-dirtied while we flushed: the eviction is off, but
      // the flush itself was still useful work.
      return kNoFrame;
    }
  }
  s.table.erase(f.page);
  f.state.store(FrameState::kFree, std::memory_order_relaxed);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  obs::Count(opts_.site_id, obs::CounterId::kBufEvictions);
  return victim;
}

Result<size_t> BufferPool::AcquireFrame(size_t home_shard) {
  for (int attempt = 0; attempt < opts_.victim_attempts; ++attempt) {
    size_t idx;
    if (PopFreeFrame(&idx)) return idx;
    // Per-shard eviction with a global fallback sweep: start at the home
    // shard, then steal a victim from any other shard. The sweep is what
    // keeps kNoSteal ablations alive when one shard's residents are all
    // dirty — some other shard usually has a clean page.
    for (size_t i = 0; i < shards_.size(); ++i) {
      Shard& s = *shards_[(home_shard + i) & shard_mask_];
      HARBOR_ASSIGN_OR_RETURN(size_t victim, TryEvictFrom(s));
      if (victim != kNoFrame) return victim;
    }
    // Everything pinned (or dirty under NO-STEAL): park until some unpin
    // signals, then rescan. A full timeout means genuine saturation.
    victim_waiters_.fetch_add(1, std::memory_order_seq_cst);
    bool timed_out;
    {
      std::unique_lock<std::mutex> wl(saturation_mu_);
      timed_out = saturation_cv_.wait_for(wl, opts_.victim_wait) ==
                  std::cv_status::timeout;
    }
    victim_waiters_.fetch_sub(1, std::memory_order_seq_cst);
    if (timed_out) break;
  }
  return Status::ResourceExhausted(
      "buffer pool saturated: no evictable frame among " +
      std::to_string(frames_.size()) + " after " +
      std::to_string(opts_.victim_attempts) + " attempts");
}

int64_t BufferPool::hits() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += static_cast<int64_t>(shard->hits);
  }
  return total;
}

Result<PageHandle> BufferPool::GetPage(PageId page, bool sequential) {
  const size_t home = std::hash<PageId>()(page) & shard_mask_;
  Shard& s = *shards_[home];
  for (;;) {
    std::unique_lock<std::mutex> lk(s.mu, std::defer_lock);
    if (obs::Enabled()) {
      const int64_t t0 = NowNanos();
      lk.lock();
      obs::Observe(opts_.site_id, obs::HistogramId::kBufShardLockWaitNs,
                   NowNanos() - t0);
    } else {
      lk.lock();
    }
    auto it = s.table.find(page);
    if (it != s.table.end()) {
      const size_t idx = it->second;
      Frame& f = *frames_[idx];
      if (f.state.load(std::memory_order_acquire) == FrameState::kLoading) {
        // Another thread's miss is reading this page from disk; wait for it
        // to settle, then re-run the lookup (the load may have failed and
        // removed the entry, in which case we take the miss path ourselves).
        s.load_cv.wait(lk, [&] {
          auto it2 = s.table.find(page);
          return it2 == s.table.end() ||
                 frames_[it2->second]->state.load(std::memory_order_acquire) !=
                     FrameState::kLoading;
        });
        lk.unlock();
        continue;
      }
      // Hit: pin and stamp; nothing after this lookup touches the shard
      // again (and the matching Unpin never will either).
      f.pin_count.fetch_add(1, std::memory_order_acq_rel);
      f.last_used.store(++s.tick, std::memory_order_relaxed);
      ++s.hits;
      lk.unlock();
      obs::Count(opts_.site_id, obs::CounterId::kBufHits);
      return PageHandle(this, idx);
    }
    lk.unlock();

    // Miss. Claim a frame first — free list, then a victim evicted from this
    // or any other shard — while holding no shard lock at all.
    HARBOR_ASSIGN_OR_RETURN(size_t idx, AcquireFrame(home));
    Frame& f = *frames_[idx];

    lk.lock();
    if (s.table.count(page) != 0) {
      // Someone else started loading (or finished) the same page while we
      // acquired the frame: hand the frame back and join them via re-lookup.
      lk.unlock();
      ReleaseFreeFrame(idx);
      continue;
    }
    f.page = page;
    f.state.store(FrameState::kLoading, std::memory_order_release);
    f.pin_count.store(1, std::memory_order_relaxed);
    f.dirty.store(false, std::memory_order_relaxed);
    f.rec_lsn.store(kInvalidLsn, std::memory_order_relaxed);
    f.last_used.store(++s.tick, std::memory_order_relaxed);
    s.table[page] = idx;
    lk.unlock();

    misses_.fetch_add(1, std::memory_order_relaxed);
    obs::Count(opts_.site_id, obs::CounterId::kBufMisses);

    // The disk read happens in kLoading state with no lock held: concurrent
    // readers of this page wait on the shard cv, everyone else proceeds.
    Status st;
    if (obs::Enabled()) {
      const int64_t t0 = NowNanos();
      st = fm_->ReadPage(page, f.data.get(), sequential);
      obs::Observe(opts_.site_id, obs::HistogramId::kBufMissReadNs,
                   NowNanos() - t0);
    } else {
      st = fm_->ReadPage(page, f.data.get(), sequential);
    }

    lk.lock();
    if (!st.ok()) {
      s.table.erase(page);
      lk.unlock();
      s.load_cv.notify_all();
      ReleaseFreeFrame(idx);
      return st;
    }
    f.state.store(FrameState::kReady, std::memory_order_release);
    lk.unlock();
    s.load_cv.notify_all();
    return PageHandle(this, idx);
  }
}

Result<PageHandle> BufferPool::CreatePage(PageId page) {
  const size_t home = std::hash<PageId>()(page) & shard_mask_;
  Shard& s = *shards_[home];
  for (;;) {
    std::unique_lock<std::mutex> lk(s.mu);
    auto it = s.table.find(page);
    if (it != s.table.end()) {
      const size_t idx = it->second;
      Frame& f = *frames_[idx];
      if (f.state.load(std::memory_order_acquire) == FrameState::kLoading) {
        // A concurrent GetPage is reading the (all-zero) page; join it.
        s.load_cv.wait(lk, [&] {
          auto it2 = s.table.find(page);
          return it2 == s.table.end() ||
                 frames_[it2->second]->state.load(std::memory_order_acquire) !=
                     FrameState::kLoading;
        });
        lk.unlock();
        continue;
      }
      f.pin_count.fetch_add(1, std::memory_order_acq_rel);
      f.last_used.store(++s.tick, std::memory_order_relaxed);
      ++s.hits;
      lk.unlock();
      obs::Count(opts_.site_id, obs::CounterId::kBufHits);
      return PageHandle(this, idx);
    }
    lk.unlock();

    HARBOR_ASSIGN_OR_RETURN(size_t idx, AcquireFrame(home));
    Frame& f = *frames_[idx];

    lk.lock();
    if (s.table.count(page) != 0) {
      lk.unlock();
      ReleaseFreeFrame(idx);
      continue;
    }
    f.page = page;
    std::memset(f.data.get(), 0, kPageSize);
    f.state.store(FrameState::kReady, std::memory_order_release);
    f.pin_count.store(1, std::memory_order_relaxed);
    f.dirty.store(false, std::memory_order_relaxed);
    f.rec_lsn.store(kInvalidLsn, std::memory_order_relaxed);
    f.last_used.store(++s.tick, std::memory_order_relaxed);
    s.table[page] = idx;
    lk.unlock();
    return PageHandle(this, idx);
  }
}

Status BufferPool::FlushPage(PageId page) {
  Shard& s = ShardFor(page);
  std::unique_lock<std::mutex> lk(s.mu);
  auto it = s.table.find(page);
  if (it == s.table.end()) return Status::OK();
  const size_t idx = it->second;
  Frame& f = *frames_[idx];
  if (f.state.load(std::memory_order_acquire) != FrameState::kReady) {
    return Status::OK();  // mid-load from disk: cannot be dirty yet
  }
  // Pin so the frame survives while we flush without the shard lock.
  f.pin_count.fetch_add(1, std::memory_order_acq_rel);
  lk.unlock();
  Status st = FlushFrame(f);
  Unpin(idx);
  return st;
}

Status BufferPool::FlushAll() {
  for (auto& shard : shards_) {
    std::vector<size_t> pinned;
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      for (const auto& [pid, idx] : shard->table) {
        Frame& f = *frames_[idx];
        if (f.state.load(std::memory_order_acquire) == FrameState::kReady &&
            f.dirty.load(std::memory_order_acquire)) {
          f.pin_count.fetch_add(1, std::memory_order_acq_rel);
          pinned.push_back(idx);
        }
      }
    }
    Status result = Status::OK();
    for (size_t idx : pinned) {
      if (result.ok()) result = FlushFrame(*frames_[idx]);
      Unpin(idx);
    }
    HARBOR_RETURN_NOT_OK(result);
  }
  return Status::OK();
}

std::vector<std::pair<PageId, Lsn>> BufferPool::DirtyPageSnapshotWithRecLsn() {
  std::vector<std::pair<PageId, Lsn>> out;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [pid, idx] : shard->table) {
      Frame& f = *frames_[idx];
      if (f.state.load(std::memory_order_acquire) == FrameState::kReady &&
          f.dirty.load(std::memory_order_acquire)) {
        out.emplace_back(pid, f.rec_lsn.load());
      }
    }
  }
  return out;
}

std::vector<PageId> BufferPool::DirtyPageSnapshot() {
  std::vector<PageId> out;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [pid, idx] : shard->table) {
      Frame& f = *frames_[idx];
      if (f.state.load(std::memory_order_acquire) == FrameState::kReady &&
          f.dirty.load(std::memory_order_acquire)) {
        out.push_back(pid);
      }
    }
  }
  return out;
}

void BufferPool::DiscardAll() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->table.clear();
  }
  std::lock_guard<std::mutex> lock(free_mu_);
  free_.clear();
  for (size_t i = 0; i < frames_.size(); ++i) {
    Frame& f = *frames_[i];
    f.state.store(FrameState::kFree, std::memory_order_relaxed);
    f.pin_count.store(0, std::memory_order_relaxed);
    f.dirty.store(false, std::memory_order_relaxed);
    f.rec_lsn.store(kInvalidLsn, std::memory_order_relaxed);
    f.io_busy.store(false, std::memory_order_relaxed);
    free_.push_back(i);
  }
}

}  // namespace harbor
