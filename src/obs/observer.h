#ifndef HARBOR_OBS_OBSERVER_H_
#define HARBOR_OBS_OBSERVER_H_

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace harbor::obs {

/// \brief One cluster's metrics and trace, sharded per site.
///
/// Each Cluster owns one Observer and adds its sites up front; components
/// hold their site's Metrics& and record unconditionally, so counts are
/// always on and two clusters in one process never share a count. Only the
/// event trace is opt-in: Trace() records nothing until EnableTrace().
///
/// Site ids are sparse (workers at 1..N, extra coordinators at 1000+n), so
/// sites live in a fixed open-addressed table of atomic pointers: a slot is
/// filled once under `mu_` and never changes, which makes MetricsFor() on a
/// known site — the network charging each message to its sender — a
/// lock-free probe. An unknown site is added on first use.
class Observer {
 public:
  explicit Observer(size_t trace_capacity_per_site = 4096);
  ~Observer();

  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;

  /// The registry of `site`, added on first use.
  Metrics& MetricsFor(SiteId site) {
    // A known site sits in its home slot unless another id collided there.
    SiteObs* s = slots_[site % kMaxSites].load(std::memory_order_acquire);
    return s != nullptr && s->site == site ? s->metrics : Shard(site).metrics;
  }

  /// Starts recording trace events (off by default; never switched off).
  void EnableTrace() { tracing_.store(true, std::memory_order_relaxed); }
  bool tracing() const { return tracing_.load(std::memory_order_relaxed); }

  /// Records one event for `site` when tracing is enabled.
  void Trace(SiteId site, const char* kind, TxnId txn = 0, int64_t a = 0,
             int64_t b = 0, std::string detail = {});

  /// Sum of one counter over every site.
  int64_t Total(CounterId id) const;

  /// Sites added so far, ascending.
  std::vector<SiteId> Sites() const;

  /// JSON metrics snapshot for one site (see Metrics::ToJson).
  std::string MetricsJson(SiteId site) const;
  /// One JSON object per line, one line per site, ascending site order.
  std::string AllMetricsJson() const;

  /// All sites' trace events merged by global sequence number.
  std::vector<TraceEvent> MergedTrace() const;
  /// The merged trace formatted one event per line, timestamps relative to
  /// the first event; notes total drops if any ring overflowed.
  std::string TraceToString() const;

 private:
  friend class Metrics;  // reads tracing_

  struct SiteObs {
    SiteObs(Observer* observer, SiteId site, size_t trace_capacity)
        : site(site), metrics(observer, site), ring(trace_capacity) {}
    const SiteId site;
    Metrics metrics;
    TraceRing ring;
  };

  static constexpr size_t kMaxSites = 1024;

  SiteObs& Shard(SiteId site);
  SiteObs* Find(SiteId site) const;
  /// Every site's shard, ascending site order.
  std::vector<const SiteObs*> Shards() const;

  const size_t trace_capacity_;
  std::atomic<bool> tracing_{false};
  std::atomic<uint64_t> next_seq_{1};
  std::array<std::atomic<SiteObs*>, kMaxSites> slots_{};
  mutable std::mutex mu_;  // adding a site
  std::vector<std::unique_ptr<SiteObs>> owned_;
};

}  // namespace harbor::obs

#endif  // HARBOR_OBS_OBSERVER_H_
