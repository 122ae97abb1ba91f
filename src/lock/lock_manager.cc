#include "lock/lock_manager.h"

#include <algorithm>

#include "runtime/scheduler.h"

namespace harbor {

const char* LockModeToString(LockMode mode) {
  switch (mode) {
    case LockMode::kIntentionShared: return "IS";
    case LockMode::kIntentionExclusive: return "IX";
    case LockMode::kShared: return "S";
    case LockMode::kExclusive: return "X";
  }
  return "?";
}

bool LockManager::Compatible(LockMode a, LockMode b) {
  // Standard multi-granularity compatibility matrix.
  switch (a) {
    case LockMode::kIntentionShared:
      return b != LockMode::kExclusive;
    case LockMode::kIntentionExclusive:
      return b == LockMode::kIntentionShared ||
             b == LockMode::kIntentionExclusive;
    case LockMode::kShared:
      return b == LockMode::kIntentionShared || b == LockMode::kShared;
    case LockMode::kExclusive:
      return false;
  }
  return false;
}

bool LockManager::Covers(LockMode held, LockMode wanted) {
  if (held == wanted) return true;
  switch (wanted) {
    case LockMode::kIntentionShared:
      return true;  // any lock implies IS access
    case LockMode::kIntentionExclusive:
      return held == LockMode::kExclusive;
    case LockMode::kShared:
      return held == LockMode::kExclusive;
    case LockMode::kExclusive:
      return false;
  }
  return false;
}

bool LockManager::CanGrantLocked(Entry& e, LockOwnerId owner, LockMode mode) {
  for (const auto& [holder, held] : e.holders) {
    if (holder == owner) continue;  // self-conflict never blocks (upgrade)
    if (!Compatible(held, mode)) return false;
  }
  return true;
}

Status LockManager::Acquire(LockKey key, LockOwnerId owner, LockMode mode) {
  std::unique_lock<std::mutex> lock(mu_);
  if (shutdown_) return Status::Unavailable("lock manager shut down");

  auto& entry_ptr = table_[key];
  if (!entry_ptr) entry_ptr = std::make_unique<Entry>();
  Entry& e = *entry_ptr;

  auto held_it = e.holders.find(owner);
  const bool upgrade = held_it != e.holders.end();
  if (upgrade && Covers(held_it->second, mode)) return Status::OK();

  // Upgrades bypass the FIFO queue: the holder already owns a lock, and
  // queueing behind strangers that conflict with it would self-deadlock.
  if (!upgrade) e.waiters.emplace_back(owner, mode);

  const auto deadline = std::chrono::steady_clock::now() + default_timeout();
  auto can_proceed = [&] {
    if (shutdown_) return true;
    if (!CanGrantLocked(e, owner, mode)) return false;
    if (upgrade) return true;
    // FIFO among waiters: only the queue head (or a waiter compatible with
    // everything ahead of it) may be granted, preventing writer starvation.
    for (const auto& [w_owner, w_mode] : e.waiters) {
      if (w_owner == owner && w_mode == mode) return true;
      if (!Compatible(w_mode, mode)) return false;
    }
    return true;
  };

  bool ok = true;
  if (!can_proceed()) {
    // A lock wait is a blocking section on the shared runtime: the holder
    // that will release us may be queued behind us on the pool.
    runtime::ScopedBlocking block;
    while (!can_proceed()) {
      if (e.cv.wait_until(lock, deadline) == std::cv_status::timeout &&
          !can_proceed()) {
        ok = false;
        break;
      }
    }
  }

  if (!upgrade) {
    auto it = std::find(e.waiters.begin(), e.waiters.end(),
                        std::make_pair(owner, mode));
    if (it != e.waiters.end()) e.waiters.erase(it);
  }
  if (shutdown_) {
    e.cv.notify_all();
    return Status::Unavailable("lock manager shut down");
  }
  if (!ok) {
    e.cv.notify_all();  // our departure may unblock others
    return Status::TimedOut(
        "lock wait timeout (possible deadlock) on " +
        std::string(LockModeToString(mode)) + " " +
        (key.kind == 0 ? "page " : "table ") + std::to_string(key.a) +
        " held by " + [&] {
          std::string h;
          for (const auto& [o, m] : e.holders) {
            h += std::to_string(o) + ":" + LockModeToString(m) + " ";
          }
          return h;
        }());
  }

  // Record the strongest mode held.
  LockMode newly_held = mode;
  if (upgrade && Covers(held_it->second, mode)) newly_held = held_it->second;
  e.holders[owner] = newly_held;
  if (!upgrade) owned_[owner].push_back(key);
  metrics_.counter(obs::CounterId::kLockAcquires).Add();
  e.cv.notify_all();
  return Status::OK();
}

Status LockManager::AcquirePageLock(LockOwnerId owner, PageId page,
                                    LockMode mode) {
  return Acquire(LockKey{0, (uint64_t{page.file_id} << 32) | page.page_no, 0},
                 owner, mode);
}

Status LockManager::AcquireTableLock(LockOwnerId owner, ObjectId object,
                                     LockMode mode) {
  return Acquire(LockKey{1, object, 0}, owner, mode);
}

bool LockManager::HasPageAccess(LockOwnerId owner, PageId page,
                                LockMode mode) {
  std::lock_guard<std::mutex> lock(mu_);
  LockKey key{0, (uint64_t{page.file_id} << 32) | page.page_no, 0};
  auto it = table_.find(key);
  if (it == table_.end()) return false;
  auto h = it->second->holders.find(owner);
  return h != it->second->holders.end() && Covers(h->second, mode);
}

void LockManager::ReleaseAll(LockOwnerId owner) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = owned_.find(owner);
  if (it == owned_.end()) return;
  for (const LockKey& key : it->second) {
    auto e_it = table_.find(key);
    if (e_it == table_.end()) continue;
    e_it->second->holders.erase(owner);
    e_it->second->cv.notify_all();
  }
  owned_.erase(it);
}

void LockManager::ReleaseTableLock(LockOwnerId owner, ObjectId object) {
  std::lock_guard<std::mutex> lock(mu_);
  LockKey key{1, object, 0};
  auto e_it = table_.find(key);
  if (e_it == table_.end()) return;
  e_it->second->holders.erase(owner);
  e_it->second->cv.notify_all();
  auto o_it = owned_.find(owner);
  if (o_it != owned_.end()) {
    auto& keys = o_it->second;
    keys.erase(std::remove(keys.begin(), keys.end(), key), keys.end());
  }
}

void LockManager::Shutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  shutdown_ = true;
  for (auto& [key, entry] : table_) entry->cv.notify_all();
}

void LockManager::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  shutdown_ = false;
  table_.clear();
  owned_.clear();
}

size_t LockManager::NumLockedResources() {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [key, entry] : table_) {
    if (!entry->holders.empty()) ++n;
  }
  return n;
}

}  // namespace harbor
