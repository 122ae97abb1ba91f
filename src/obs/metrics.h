#ifndef HARBOR_OBS_METRICS_H_
#define HARBOR_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <string>

#include "common/types.h"

namespace harbor::obs {

/// \brief Lock-free metric primitives for one site.
///
/// The registry is a fixed enum-indexed array of atomics: recording a sample
/// is an array index plus a relaxed atomic op, never a hash lookup or a
/// mutex. Table 4.2 / Figures 6-4..6-6 are quantitative claims about forced
/// writes, messages, and phase durations; these are the counters those
/// numbers come from. Each cluster's Observer owns one Metrics per site, and
/// every component records into its site's Metrics — always on, with no
/// second copy of any count (see observer.h).

class Counter {
 public:
  void Add(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket log-linear histogram (the HdrHistogram layout): each
/// power-of-two range ("octave") splits into 2^kSubBucketBits linear
/// sub-buckets, so any bucket's width is at most 1/16 of its lower bound —
/// a guaranteed <= 6.25% relative resolution at every magnitude. The old
/// pure power-of-two layout halved-or-doubled at the top of the
/// distribution, far too coarse for the p999 tail SLOs the workload driver
/// reports; log-linear keeps recording one shift + one relaxed atomic.
/// Values 0..15 land in exact buckets; bit widths up to 63 are covered, so
/// a nanosecond-valued histogram still spans sub-ns to centuries.
class Histogram {
 public:
  static constexpr size_t kSubBucketBits = 4;
  static constexpr size_t kSubBuckets = size_t{1} << kSubBucketBits;  // 16
  /// Octave groups: group 0 is the exact range [0, 16); group g >= 1 covers
  /// bit width kSubBucketBits + g, up to the full 63-bit positive range.
  static constexpr size_t kGroups = 60;
  static constexpr size_t kNumBuckets = kGroups * kSubBuckets;  // 960

  void Record(int64_t value);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// min/max over recorded samples; min() > max() when count() == 0.
  int64_t min() const { return min_.load(std::memory_order_relaxed); }
  int64_t max() const { return max_.load(std::memory_order_relaxed); }
  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  double mean() const;
  /// Bucket index a sample lands in (clamps negatives to bucket 0).
  static size_t BucketIndex(int64_t value);
  /// Inclusive lower bound of bucket i (0..15 exact, then 16, 17, ... 31,
  /// 32, 34, ... — 16 linear steps per octave).
  static int64_t BucketLowerBound(size_t i);
  /// The p-th percentile sample (0 <= p <= 1), linearly interpolated within
  /// its bucket and clamped to the observed [min, max]; 0 when empty. The
  /// bucket layout bounds the error at 6.25% of the value.
  int64_t Percentile(double p) const;
  /// Upper bound of the bucket containing the p-th percentile sample
  /// (0 < p <= 1); 0 when empty. Kept for callers wanting a hard "no sample
  /// exceeds this" bound rather than the interpolated estimate.
  int64_t PercentileUpperBound(double p) const;
  /// Number of recorded samples strictly greater than `value`, counted at
  /// bucket granularity (samples sharing `value`'s bucket are excluded, so
  /// this can undercount by at most one bucket's width — conservative for
  /// SLO stall detection).
  int64_t CountAbove(int64_t value) const;

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> min_{std::numeric_limits<int64_t>::max()};
  std::atomic<int64_t> max_{std::numeric_limits<int64_t>::min()};
};

// ------------------------------------------------------------ registry ids

enum class CounterId : uint8_t {
  kDiskReads = 0,
  kDiskWrites,
  kDiskForcedWrites,      // every SimDisk::ChargeForcedWrite at this site
  kNetMessagesSent,       // messages charged against this site's NIC
  kNetBytesSent,
  kWalForces,             // forced log writes issued by this site's WAL
  kWalRecordsFlushed,     // records carried by those forces
  kTxnCommitted,          // commit decisions (coordinator) or local
                          // commits (worker) at this site
  kTxnAborted,            // coordinator-side abort decisions
  kRecoveryPhase1Removed,  // tuples physically removed in Phase 1
  kRecoveryPhase1Undeleted,
  kRecoveryPhase2Tuples,   // tuples copied from buddies in Phase 2
  kRecoveryPhase2Deletions,
  kRecoveryPhase3Tuples,
  kRecoveryPhase3Deletions,
  kRecoveryChunks,         // catch-up chunks fetched by this recovering site
  kRecoveryStreamResumes,  // streams resumed from a cursor (durable
                           // watermark or in-memory failover)
  kRecoveryStreamsStarted,  // phase-2 catch-up streams launched
  kRecoveryStreamFailovers,  // streams failed over to another buddy
  kRecoveryChunksServed,   // catch-up chunks this site served to a
                           // recovering buddy
  kBufMisses,              // misses (each cost a disk read)
  kBufEvictions,           // frames recycled to serve a miss
  kBufDirtyVictimFlushes,  // evictions that had to steal a dirty page
  kLockAcquires,           // LockManager acquisitions granted (page + table)
  kReadSnapshotScans,      // scans served on the lock-free snapshot path
  kReadLockScans,          // scans served with S locks (forced locking reads)
  kReadLockBypass,         // lock acquisitions snapshot scans did NOT take
  kCount,
};

enum class GaugeId : uint8_t {
  kWalFlushedLsn = 0,      // durable LSN after the last force
  kRecoveryPhase2Rounds,   // rounds used by the last recovered object
  kCount,
};

enum class HistogramId : uint8_t {
  kDiskForceNs = 0,        // modelled cost of each forced write
  kWalForceNs,             // wall latency of each log force
  kWalBatchRecords,        // group-commit batch size per force
  kCommitLatencyNs,        // coordinator commit-protocol latency per txn
  kVoteRoundTripNs,        // PREPARE fan-out -> all votes collected
  kRecoveryPhase1Ns,       // per recovered object
  kRecoveryPhase2Ns,
  kRecoveryPhase3Ns,       // whole locked phase (all objects at once)
  kRecoveryChunkBytes,     // on-wire size of each catch-up chunk reply
  kRecoveryChunkApplyNs,   // local apply time per chunk
  kRecoveryChunkStallNs,   // fetch wait not hidden behind the previous apply
  kRecoveryStreamNs,       // wall time of one phase-2 catch-up stream
  kReadSnapshotLagEpochs,  // Now() - snapshot ts at serve time (staleness)
  kCount,
};

const char* CounterName(CounterId id);
const char* GaugeName(GaugeId id);
const char* HistogramName(HistogramId id);

class Observer;

/// \brief One site's metric registry: every metric preallocated, recording
/// is index + relaxed atomic.
///
/// A Metrics made by an Observer also carries its site's trace: Trace()
/// records into the observer's ring for the site once tracing is enabled.
/// A default-constructed Metrics (a component under unit test) counts but
/// never traces.
class Metrics {
 public:
  Metrics() = default;
  Metrics(Observer* observer, SiteId site);

  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  Counter& counter(CounterId id) {
    return counters_[static_cast<size_t>(id)];
  }
  const Counter& counter(CounterId id) const {
    return counters_[static_cast<size_t>(id)];
  }
  Gauge& gauge(GaugeId id) { return gauges_[static_cast<size_t>(id)]; }
  const Gauge& gauge(GaugeId id) const {
    return gauges_[static_cast<size_t>(id)];
  }
  Histogram& histogram(HistogramId id) {
    return histograms_[static_cast<size_t>(id)];
  }
  const Histogram& histogram(HistogramId id) const {
    return histograms_[static_cast<size_t>(id)];
  }

  /// JSON snapshot of every non-empty metric:
  ///   {"site":N,"counters":{...},"gauges":{...},
  ///    "histograms":{"name":{"count":..,"sum":..,"min":..,"max":..,
  ///                          "mean":..,"p50":..,"p99":..}}}
  std::string ToJson(SiteId site) const;

  /// True when Trace() records (the owning observer has tracing on).
  bool tracing() const {
    return tracing_ != nullptr && tracing_->load(std::memory_order_relaxed);
  }
  /// One trace event attributed to this site; a load and a not-taken
  /// branch unless tracing().
  void Trace(const char* kind, TxnId txn = 0, int64_t a = 0, int64_t b = 0) {
    if (tracing()) Record(kind, txn, a, b);
  }

 private:
  void Record(const char* kind, TxnId txn, int64_t a, int64_t b);

  Observer* const observer_ = nullptr;
  const std::atomic<bool>* const tracing_ = nullptr;  // the observer's flag
  const SiteId site_ = kInvalidSiteId;
  std::array<Counter, static_cast<size_t>(CounterId::kCount)> counters_;
  std::array<Gauge, static_cast<size_t>(GaugeId::kCount)> gauges_;
  std::array<Histogram, static_cast<size_t>(HistogramId::kCount)> histograms_;
};

}  // namespace harbor::obs

#endif  // HARBOR_OBS_METRICS_H_
