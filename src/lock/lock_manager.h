#ifndef HARBOR_LOCK_LOCK_MANAGER_H_
#define HARBOR_LOCK_LOCK_MANAGER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "obs/metrics.h"

namespace harbor {

/// Lock modes. Pages use kShared/kExclusive; table-granularity locks
/// additionally use intention modes so that a recovering site's table-level
/// read lock (§5.4.1) conflicts with ongoing update transactions' page-level
/// writes (which announce themselves with kIntentionExclusive at the table).
enum class LockMode : uint8_t {
  kIntentionShared = 0,
  kIntentionExclusive = 1,
  kShared = 2,
  kExclusive = 3,
};

const char* LockModeToString(LockMode mode);

/// Identifies a lock holder: a local transaction (its TxnId) or a remote
/// recovering site (a synthesized id, see MakeRecoveryOwner). Remote owners
/// can have all their locks force-released when their site is detected to
/// have crashed (§5.5.1).
using LockOwnerId = uint64_t;

/// Owner id for the recovery process of site `site`; distinct from any TxnId
/// (transaction ids are allocated well below 2^56).
inline LockOwnerId MakeRecoveryOwner(SiteId site) {
  return (uint64_t{1} << 56) | site;
}

/// \brief Strict two-phase locking for one site (§6.1.2).
///
/// Supports page-granularity locks for normal transaction processing and
/// table-granularity locks for recovery, with upgrade (S -> X on the same
/// page while scanning for a free slot, §6.1.3) and timeout-based deadlock
/// detection: a timed-out acquire returns kTimedOut and the caller aborts
/// the transaction.
class LockManager {
 public:
  /// Granted acquisitions (page + table, including upgrades) are counted
  /// in `metrics` as lock.acquires: the snapshot read path's "zero lock
  /// acquisitions" claim is asserted against deltas of that count.
  explicit LockManager(obs::Metrics& metrics,
                       std::chrono::milliseconds default_timeout =
                           std::chrono::milliseconds(500))
      : default_timeout_ms_(default_timeout.count()), metrics_(metrics) {}

  /// Acquires (or upgrades to) `mode` on a page; blocks until granted,
  /// timeout (=> deadlock victim), or site shutdown.
  Status AcquirePageLock(LockOwnerId owner, PageId page, LockMode mode);

  /// Acquires `mode` on a whole table object.
  Status AcquireTableLock(LockOwnerId owner, ObjectId object, LockMode mode);

  /// True if `owner` already holds a lock with at least `mode` strength on
  /// the page.
  bool HasPageAccess(LockOwnerId owner, PageId page, LockMode mode);

  /// Releases every lock held by `owner` (end of transaction, §6.1.2, or a
  /// crashed remote owner's locks being overridden, §5.5.1).
  void ReleaseAll(LockOwnerId owner);

  /// Releases one table lock.
  void ReleaseTableLock(LockOwnerId owner, ObjectId object);

  /// Fails all current and future waiters with kUnavailable; used when the
  /// site crashes so no handler thread stays blocked.
  void Shutdown();

  /// Re-enables lock acquisition (fresh runtime after restart uses a new
  /// LockManager, but tests reuse instances).
  void Reset();

  /// Number of distinct locked resources (for tests).
  size_t NumLockedResources();

  /// Atomic: tests tighten the timeout while waiter threads are computing
  /// deadlines from it (a plain member here is a TSan-visible data race).
  void set_default_timeout(std::chrono::milliseconds t) {
    default_timeout_ms_.store(t.count(), std::memory_order_relaxed);
  }
  std::chrono::milliseconds default_timeout() const {
    return std::chrono::milliseconds(
        default_timeout_ms_.load(std::memory_order_relaxed));
  }

 private:
  struct LockKey {
    uint8_t kind;  // 0 = page, 1 = table
    uint64_t a;
    uint64_t b;
    bool operator==(const LockKey&) const = default;
  };
  struct LockKeyHash {
    size_t operator()(const LockKey& k) const noexcept {
      return std::hash<uint64_t>()(k.a * 1000003 + k.b * 31 + k.kind);
    }
  };
  struct Entry {
    // owner -> strongest mode held
    std::unordered_map<LockOwnerId, LockMode> holders;
    std::deque<std::pair<LockOwnerId, LockMode>> waiters;
    std::condition_variable cv;
  };

  static bool Compatible(LockMode a, LockMode b);
  static bool Covers(LockMode held, LockMode wanted);

  Status Acquire(LockKey key, LockOwnerId owner, LockMode mode);
  bool CanGrantLocked(Entry& e, LockOwnerId owner, LockMode mode);

  std::atomic<int64_t> default_timeout_ms_;
  obs::Metrics& metrics_;
  std::mutex mu_;
  bool shutdown_ = false;
  std::unordered_map<LockKey, std::unique_ptr<Entry>, LockKeyHash> table_;
  std::unordered_map<LockOwnerId, std::vector<LockKey>> owned_;
};

}  // namespace harbor

#endif  // HARBOR_LOCK_LOCK_MANAGER_H_
