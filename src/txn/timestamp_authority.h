#ifndef HARBOR_TXN_TIMESTAMP_AUTHORITY_H_
#define HARBOR_TXN_TIMESTAMP_AUTHORITY_H_

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <vector>

#include "common/types.h"
#include "runtime/scheduler.h"

namespace harbor {

/// \brief The cluster's source of commit timestamps (§4.1).
///
/// Timestamps are logical epochs; the authority advances the epoch either on
/// a background ticker (modelling the paper's "coarse granularity epochs
/// that span multiple seconds") or explicitly from tests.
///
/// Beyond handing out times, the authority tracks which epochs still have
/// commits *in flight* (a coordinator reached the commit point but workers
/// have not finished stamping tuples). StableTime() — the source of
/// recovery's high water mark and of safe historical-query times — is the
/// newest epoch that is (a) fully in the past and (b) free of in-flight
/// commits, so a lock-free historical read can never observe a partially
/// applied transaction. This mirrors C-Store's rule that read-only queries
/// run "as of some time in the recent past, before which the system can
/// guarantee that no uncommitted transactions remain" (§3.1).
class TimestampAuthority {
 public:
  explicit TimestampAuthority(Timestamp start = 1) : now_(start) {}
  ~TimestampAuthority() { StopTicker(); }

  /// Current epoch.
  Timestamp Now() const { return now_.load(std::memory_order_acquire); }

  /// Advances the epoch by one.
  void Advance() { now_.fetch_add(1, std::memory_order_acq_rel); }

  /// Reserves the current epoch as a commit time; the epoch cannot become
  /// stable until the matching EndCommit (or until ReleaseSite frees the
  /// owner's holds after its fail-stop crash). `owner` is the site driving
  /// the commit — normally the coordinator.
  Timestamp BeginCommit(SiteId owner = kInvalidSiteId) {
    std::lock_guard<std::mutex> lock(mu_);
    Timestamp ts = Now();
    inflight_[ts].push_back(owner);
    return ts;
  }

  /// Releases one hold on `ts`. Prefers an exact owner match; otherwise an
  /// ownerless (kInvalidSiteId) hold. A backup coordinator finishing a dead
  /// coordinator's transaction passes the dead site as owner — if
  /// ReleaseSite already freed that hold this is a harmless no-op, and it
  /// can never release a *live* coordinator's hold by mistake.
  void EndCommit(Timestamp ts, SiteId owner = kInvalidSiteId) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = inflight_.find(ts);
    if (it == inflight_.end()) return;
    std::vector<SiteId>& owners = it->second;
    auto pos = std::find(owners.begin(), owners.end(), owner);
    if (pos == owners.end()) {
      pos = std::find(owners.begin(), owners.end(), kInvalidSiteId);
    }
    if (pos == owners.end()) return;
    owners.erase(pos);
    if (owners.empty()) inflight_.erase(it);
  }

  /// Drops every in-flight hold owned by `site` — fired on the site's crash
  /// so a coordinator dying between BeginCommit and EndCommit cannot pin
  /// StableTime() forever (its transactions are finished or aborted by the
  /// backup-coordinator consensus, §4.3.3).
  void ReleaseSite(SiteId site) {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = inflight_.begin(); it != inflight_.end();) {
      std::vector<SiteId>& owners = it->second;
      owners.erase(std::remove(owners.begin(), owners.end(), site),
                   owners.end());
      it = owners.empty() ? inflight_.erase(it) : std::next(it);
    }
  }

  /// Newest timestamp at which a historical query is safe: strictly before
  /// the current epoch and before any in-flight commit.
  Timestamp StableTime() const {
    std::lock_guard<std::mutex> lock(mu_);
    Timestamp stable = Now() - 1;
    if (!inflight_.empty()) {
      Timestamp oldest_inflight = inflight_.begin()->first;
      if (oldest_inflight - 1 < stable) stable = oldest_inflight - 1;
    }
    return stable;
  }

  /// Starts a repeating timer on `scheduler` advancing the epoch every
  /// `period_ms`. StopTicker() waits out an in-flight tick, so a tick can
  /// never run after this object (or the network it rode in on) is torn
  /// down.
  void StartTicker(runtime::Scheduler* scheduler, int64_t period_ms) {
    StopTicker();
    ticker_sched_ = scheduler;
    ticker_timer_ = scheduler->ScheduleEvery(period_ms * 1'000'000,
                                             [this] { Advance(); });
  }

  /// Stops the ticker. On return no tick is running or will ever run (the
  /// timer is cancelled and waited out). Safe to call repeatedly and from
  /// the destructor during cluster teardown.
  void StopTicker() {
    if (ticker_sched_ != nullptr && ticker_timer_ != 0) {
      ticker_sched_->CancelTimer(ticker_timer_);
      ticker_timer_ = 0;
      ticker_sched_ = nullptr;
    }
  }

 private:
  std::atomic<Timestamp> now_;
  mutable std::mutex mu_;
  /// ts -> owners of in-flight commits at ts; ordered so begin() = oldest.
  std::map<Timestamp, std::vector<SiteId>> inflight_;

  runtime::Scheduler* ticker_sched_ = nullptr;
  runtime::TimerId ticker_timer_ = 0;
};

}  // namespace harbor

#endif  // HARBOR_TXN_TIMESTAMP_AUTHORITY_H_
