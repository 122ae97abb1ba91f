#ifndef HARBOR_OBS_TRACE_H_
#define HARBOR_OBS_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.h"

namespace harbor::obs {

/// \brief One structured protocol event.
///
/// `seq` is drawn from the observer's monotonic counter at record time, so
/// events from different sites' rings merge into a single causal-ish
/// timeline (a lower seq was *recorded* earlier). `kind` is a string
/// literal naming the protocol step ("coord.prepare", "wal.force",
/// "fault.point", ...); `a`/`b` are kind-specific scalars (e.g. LSN, vote
/// count) and `detail` carries free-form text such as the fired fault spec.
struct TraceEvent {
  uint64_t seq = 0;
  int64_t nanos = 0;
  SiteId site = kInvalidSiteId;
  TxnId txn = 0;
  const char* kind = "";
  int64_t a = 0;
  int64_t b = 0;
  std::string detail;
};

/// \brief Bounded ring of TraceEvents for one site.
///
/// Mutex-guarded: trace points are protocol-rate (per message / per phase),
/// not data-path-rate, so a short critical section is cheap and keeps the
/// ring readable while writers are live. When full the oldest event is
/// overwritten and `dropped()` counts the loss — a crash post-mortem wants
/// the most recent window, not the start of the run.
class TraceRing {
 public:
  explicit TraceRing(size_t capacity = 4096);

  void Record(TraceEvent event);

  /// Events currently buffered, oldest first.
  std::vector<TraceEvent> Snapshot() const;

  uint64_t dropped() const;
  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> ring_;  // ring_[ (start_ + i) % capacity_ ]
  size_t start_ = 0;
  size_t size_ = 0;
  uint64_t dropped_ = 0;
};

/// "seq=12 t=345us site=3 txn=7 coord.prepare a=2 b=0 detail" — one line,
/// no trailing newline. `origin_nanos` is subtracted from the timestamp.
std::string FormatTraceEvent(const TraceEvent& event, int64_t origin_nanos);

}  // namespace harbor::obs

#endif  // HARBOR_OBS_TRACE_H_
