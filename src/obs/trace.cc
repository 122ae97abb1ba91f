#include "obs/trace.h"

#include <cstdio>

namespace harbor::obs {

TraceRing::TraceRing(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void TraceRing::Record(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (size_ < capacity_) {
    if (ring_.size() < capacity_) {
      ring_.push_back(std::move(event));
    } else {
      ring_[(start_ + size_) % capacity_] = std::move(event);
    }
    ++size_;
  } else {
    ring_[start_] = std::move(event);
    start_ = (start_ + 1) % capacity_;
    ++dropped_;
  }
}

std::vector<TraceEvent> TraceRing::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> out;
  out.reserve(size_);
  for (size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(start_ + i) % capacity_]);
  }
  return out;
}

uint64_t TraceRing::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::string FormatTraceEvent(const TraceEvent& event, int64_t origin_nanos) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "seq=%llu t=%lldus site=%u txn=%llu %-24s a=%lld b=%lld",
                static_cast<unsigned long long>(event.seq),
                static_cast<long long>((event.nanos - origin_nanos) / 1000),
                static_cast<unsigned>(event.site),
                static_cast<unsigned long long>(event.txn), event.kind,
                static_cast<long long>(event.a),
                static_cast<long long>(event.b));
  std::string out(buf);
  if (!event.detail.empty()) {
    out.push_back(' ');
    out.append(event.detail);
  }
  return out;
}

}  // namespace harbor::obs
