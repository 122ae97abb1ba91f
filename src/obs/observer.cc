#include "obs/observer.h"

#include <algorithm>
#include <cstdio>

#include "common/status.h"

namespace harbor::obs {

Observer::Observer(size_t trace_capacity_per_site)
    : trace_capacity_(trace_capacity_per_site) {}

Observer::~Observer() = default;

Observer::SiteObs* Observer::Find(SiteId site) const {
  for (size_t i = site % kMaxSites;; i = (i + 1) % kMaxSites) {
    SiteObs* s = slots_[i].load(std::memory_order_acquire);
    if (s == nullptr || s->site == site) return s;
  }
}

Observer::SiteObs& Observer::Shard(SiteId site) {
  if (SiteObs* s = Find(site)) return *s;
  std::lock_guard<std::mutex> lock(mu_);
  HARBOR_CHECK(owned_.size() + 1 < kMaxSites);
  for (size_t i = site % kMaxSites;; i = (i + 1) % kMaxSites) {
    SiteObs* s = slots_[i].load(std::memory_order_relaxed);
    if (s != nullptr && s->site == site) return *s;  // added meanwhile
    if (s == nullptr) {
      owned_.push_back(std::make_unique<SiteObs>(this, site, trace_capacity_));
      slots_[i].store(owned_.back().get(), std::memory_order_release);
      return *owned_.back();
    }
  }
}

void Observer::Trace(SiteId site, const char* kind, TxnId txn, int64_t a,
                     int64_t b, std::string detail) {
  if (!tracing()) return;
  TraceEvent event;
  event.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  event.nanos = NowNanos();
  event.site = site;
  event.txn = txn;
  event.kind = kind;
  event.a = a;
  event.b = b;
  event.detail = std::move(detail);
  Shard(site).ring.Record(std::move(event));
}

Metrics::Metrics(Observer* observer, SiteId site)
    : observer_(observer), tracing_(&observer->tracing_), site_(site) {}

void Metrics::Record(const char* kind, TxnId txn, int64_t a, int64_t b) {
  observer_->Trace(site_, kind, txn, a, b);
}

std::vector<const Observer::SiteObs*> Observer::Shards() const {
  std::vector<const SiteObs*> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& s : owned_) out.push_back(s.get());
  }
  std::sort(out.begin(), out.end(), [](const SiteObs* x, const SiteObs* y) {
    return x->site < y->site;
  });
  return out;
}

int64_t Observer::Total(CounterId id) const {
  int64_t total = 0;
  for (const SiteObs* s : Shards()) total += s->metrics.counter(id).value();
  return total;
}

std::vector<SiteId> Observer::Sites() const {
  std::vector<SiteId> out;
  for (const SiteObs* s : Shards()) out.push_back(s->site);
  return out;
}

std::string Observer::MetricsJson(SiteId site) const {
  const SiteObs* shard = Find(site);
  if (!shard) {
    return "{\"site\":" + std::to_string(site) + "}";
  }
  return shard->metrics.ToJson(site);
}

std::string Observer::AllMetricsJson() const {
  std::string out;
  for (const SiteObs* s : Shards()) {
    out.append(s->metrics.ToJson(s->site));
    out.push_back('\n');
  }
  return out;
}

std::vector<TraceEvent> Observer::MergedTrace() const {
  std::vector<TraceEvent> merged;
  for (const SiteObs* s : Shards()) {
    auto events = s->ring.Snapshot();
    merged.insert(merged.end(), std::make_move_iterator(events.begin()),
                  std::make_move_iterator(events.end()));
  }
  std::sort(merged.begin(), merged.end(),
            [](const TraceEvent& x, const TraceEvent& y) {
              return x.seq < y.seq;
            });
  return merged;
}

std::string Observer::TraceToString() const {
  auto merged = MergedTrace();
  uint64_t dropped = 0;
  for (const SiteObs* s : Shards()) dropped += s->ring.dropped();
  std::string out;
  if (merged.empty()) {
    out = "(no trace events recorded)\n";
    return out;
  }
  const int64_t origin = merged.front().nanos;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "--- event trace (%zu events", merged.size());
  out.append(buf);
  if (dropped > 0) {
    std::snprintf(buf, sizeof(buf), ", %llu dropped by ring overflow",
                  static_cast<unsigned long long>(dropped));
    out.append(buf);
  }
  out.append(") ---\n");
  for (const auto& event : merged) {
    out.append(FormatTraceEvent(event, origin));
    out.push_back('\n');
  }
  out.append("--- end trace ---\n");
  return out;
}

}  // namespace harbor::obs
