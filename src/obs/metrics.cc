#include "obs/metrics.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

namespace harbor::obs {

namespace {

void AtomicMin(std::atomic<int64_t>& target, int64_t value) {
  int64_t cur = target.load(std::memory_order_relaxed);
  while (value < cur && !target.compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<int64_t>& target, int64_t value) {
  int64_t cur = target.load(std::memory_order_relaxed);
  while (value > cur && !target.compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
}

void AppendKv(std::string* out, const char* key, int64_t value, bool* first) {
  if (!*first) out->push_back(',');
  *first = false;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\":%lld", key,
                static_cast<long long>(value));
  out->append(buf);
}

}  // namespace

size_t Histogram::BucketIndex(int64_t value) {
  if (value < static_cast<int64_t>(kSubBuckets)) {
    return value <= 0 ? 0 : static_cast<size_t>(value);  // group 0: exact
  }
  // Group g >= 1 covers bit width kSubBucketBits + g; the kSubBucketBits
  // bits below the leading bit select the linear sub-bucket.
  const size_t bits = 64 - static_cast<size_t>(__builtin_clzll(
                               static_cast<unsigned long long>(value)));
  const size_t g = bits - kSubBucketBits;  // 1..59 for positive int64
  const size_t sub = (static_cast<uint64_t>(value) >> (g - 1)) &
                     (kSubBuckets - 1);
  return g * kSubBuckets + sub;
}

void Histogram::Record(int64_t value) {
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  AtomicMin(min_, value);
  AtomicMax(max_, value);
}

double Histogram::mean() const {
  const int64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

int64_t Histogram::BucketLowerBound(size_t i) {
  const size_t g = i / kSubBuckets;
  const size_t sub = i % kSubBuckets;
  if (g == 0) return static_cast<int64_t>(sub);
  return static_cast<int64_t>(kSubBuckets + sub) << (g - 1);
}

namespace {

/// Exclusive upper bound of bucket i, clamped to int64 max at the top.
int64_t BucketUpperBound(size_t i) {
  if (i + 1 >= Histogram::kNumBuckets) {
    return std::numeric_limits<int64_t>::max();
  }
  return Histogram::BucketLowerBound(i + 1);
}

}  // namespace

int64_t Histogram::Percentile(double p) const {
  const int64_t n = count();
  if (n == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  int64_t rank = static_cast<int64_t>(
      std::ceil(p * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  int64_t seen = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    const int64_t c = static_cast<int64_t>(bucket(i));
    if (seen + c >= rank) {
      // Interpolate linearly within the bucket, clamped to what was
      // actually observed so single-sample buckets report exact values.
      int64_t lo = BucketLowerBound(i);
      int64_t hi = BucketUpperBound(i);
      if (lo < min()) lo = min();
      if (hi > max()) hi = max();
      if (hi < lo) hi = lo;
      const double frac =
          c == 0 ? 1.0
                 : static_cast<double>(rank - seen) / static_cast<double>(c);
      return lo + static_cast<int64_t>(static_cast<double>(hi - lo) * frac);
    }
    seen += c;
  }
  return max();
}

int64_t Histogram::PercentileUpperBound(double p) const {
  const int64_t n = count();
  if (n == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  int64_t rank = static_cast<int64_t>(p * static_cast<double>(n));
  if (rank < 1) rank = 1;
  int64_t seen = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    seen += static_cast<int64_t>(bucket(i));
    if (seen >= rank) {
      const int64_t upper = BucketUpperBound(i);
      return upper < max() ? upper : max();
    }
  }
  return max();
}

int64_t Histogram::CountAbove(int64_t value) const {
  if (count() == 0 || max() <= value) return 0;
  int64_t total = 0;
  for (size_t i = BucketIndex(value) + 1; i < kNumBuckets; ++i) {
    total += static_cast<int64_t>(bucket(i));
  }
  return total;
}

const char* CounterName(CounterId id) {
  switch (id) {
    case CounterId::kDiskReads: return "disk.reads";
    case CounterId::kDiskWrites: return "disk.writes";
    case CounterId::kDiskForcedWrites: return "disk.forced_writes";
    case CounterId::kNetMessagesSent: return "net.messages_sent";
    case CounterId::kNetBytesSent: return "net.bytes_sent";
    case CounterId::kWalForces: return "wal.forces";
    case CounterId::kWalRecordsFlushed: return "wal.records_flushed";
    case CounterId::kTxnCommitted: return "txn.committed";
    case CounterId::kTxnAborted: return "txn.aborted";
    case CounterId::kRecoveryPhase1Removed: return "recovery.phase1_removed";
    case CounterId::kRecoveryPhase1Undeleted:
      return "recovery.phase1_undeleted";
    case CounterId::kRecoveryPhase2Tuples: return "recovery.phase2_tuples";
    case CounterId::kRecoveryPhase2Deletions:
      return "recovery.phase2_deletions";
    case CounterId::kRecoveryPhase3Tuples: return "recovery.phase3_tuples";
    case CounterId::kRecoveryPhase3Deletions:
      return "recovery.phase3_deletions";
    case CounterId::kRecoveryChunks: return "recovery.chunks";
    case CounterId::kRecoveryStreamResumes:
      return "recovery.stream_resumes";
    case CounterId::kRecoveryStreamsStarted:
      return "recovery.streams_started";
    case CounterId::kRecoveryStreamFailovers:
      return "recovery.stream_failovers";
    case CounterId::kRecoveryChunksServed:
      return "recovery.chunks_served";
    case CounterId::kBufMisses: return "buf.misses";
    case CounterId::kBufEvictions: return "buf.evictions";
    case CounterId::kBufDirtyVictimFlushes:
      return "buf.dirty_victim_flushes";
    case CounterId::kLockAcquires: return "lock.acquires";
    case CounterId::kReadSnapshotScans: return "read.snapshot_scans";
    case CounterId::kReadLockScans: return "read.lock_scans";
    case CounterId::kReadLockBypass: return "read.lock_bypass";
    case CounterId::kCount: break;
  }
  return "unknown";
}

const char* GaugeName(GaugeId id) {
  switch (id) {
    case GaugeId::kWalFlushedLsn: return "wal.flushed_lsn";
    case GaugeId::kRecoveryPhase2Rounds: return "recovery.phase2_rounds";
    case GaugeId::kCount: break;
  }
  return "unknown";
}

const char* HistogramName(HistogramId id) {
  switch (id) {
    case HistogramId::kDiskForceNs: return "disk.force_ns";
    case HistogramId::kWalForceNs: return "wal.force_ns";
    case HistogramId::kWalBatchRecords: return "wal.batch_records";
    case HistogramId::kCommitLatencyNs: return "commit.latency_ns";
    case HistogramId::kVoteRoundTripNs: return "commit.vote_round_trip_ns";
    case HistogramId::kRecoveryPhase1Ns: return "recovery.phase1_ns";
    case HistogramId::kRecoveryPhase2Ns: return "recovery.phase2_ns";
    case HistogramId::kRecoveryPhase3Ns: return "recovery.phase3_ns";
    case HistogramId::kRecoveryChunkBytes: return "recovery.chunk_bytes";
    case HistogramId::kRecoveryChunkApplyNs:
      return "recovery.chunk_apply_ns";
    case HistogramId::kRecoveryChunkStallNs:
      return "recovery.chunk_stall_ns";
    case HistogramId::kRecoveryStreamNs:
      return "recovery.stream_ns";
    case HistogramId::kReadSnapshotLagEpochs:
      return "read.snapshot_lag_epochs";
    case HistogramId::kCount: break;
  }
  return "unknown";
}

std::string Metrics::ToJson(SiteId site) const {
  std::string out;
  out.reserve(512);
  char buf[256];
  std::snprintf(buf, sizeof(buf), "{\"site\":%u,\"counters\":{",
                static_cast<unsigned>(site));
  out.append(buf);
  bool first = true;
  for (size_t i = 0; i < static_cast<size_t>(CounterId::kCount); ++i) {
    const auto id = static_cast<CounterId>(i);
    const int64_t v = counter(id).value();
    if (v != 0) AppendKv(&out, CounterName(id), v, &first);
  }
  out.append("},\"gauges\":{");
  first = true;
  for (size_t i = 0; i < static_cast<size_t>(GaugeId::kCount); ++i) {
    const auto id = static_cast<GaugeId>(i);
    const int64_t v = gauge(id).value();
    if (v != 0) AppendKv(&out, GaugeName(id), v, &first);
  }
  out.append("},\"histograms\":{");
  first = true;
  for (size_t i = 0; i < static_cast<size_t>(HistogramId::kCount); ++i) {
    const auto id = static_cast<HistogramId>(i);
    const Histogram& h = histogram(id);
    if (h.count() == 0) continue;
    if (!first) out.push_back(',');
    first = false;
    std::snprintf(
        buf, sizeof(buf),
        "\"%s\":{\"count\":%lld,\"sum\":%lld,\"min\":%lld,\"max\":%lld,"
        "\"mean\":%.1f,\"p50\":%lld,\"p99\":%lld,\"p999\":%lld}",
        HistogramName(id), static_cast<long long>(h.count()),
        static_cast<long long>(h.sum()), static_cast<long long>(h.min()),
        static_cast<long long>(h.max()), h.mean(),
        static_cast<long long>(h.Percentile(0.5)),
        static_cast<long long>(h.Percentile(0.99)),
        static_cast<long long>(h.Percentile(0.999)));
    out.append(buf);
  }
  out.append("}}");
  return out;
}

}  // namespace harbor::obs
