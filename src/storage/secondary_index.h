#ifndef HARBOR_STORAGE_SECONDARY_INDEX_H_
#define HARBOR_STORAGE_SECONDARY_INDEX_H_

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.h"

namespace harbor {

/// \brief A per-segment secondary index on one integer column (§4.2: "If
/// the original products table required an index on some other field, say
/// price, each segment would individually maintain an index on that
/// field").
///
/// Each segment keeps its own ordered key -> RecordId multimap; a lookup
/// merges the per-segment results, exactly as a segmented read query merges
/// per-segment scans. The index is volatile (rebuilt lazily after a
/// restart, like the tuple-id index) and deliberately simple: equality and
/// range probes over int keys — the SARGable predicates the executor pushes
/// down.
class SecondaryIndex {
 public:
  explicit SecondaryIndex(std::string column) : column_(std::move(column)) {}

  const std::string& column() const { return column_; }

  void Insert(size_t segment, int64_t key, RecordId rid) {
    std::lock_guard<std::mutex> lock(mu_);
    if (segments_.size() <= segment) segments_.resize(segment + 1);
    segments_[segment].emplace(key, rid);
  }

  void Remove(size_t segment, int64_t key, RecordId rid) {
    std::lock_guard<std::mutex> lock(mu_);
    if (segments_.size() <= segment) return;
    auto [begin, end] = segments_[segment].equal_range(key);
    for (auto it = begin; it != end; ++it) {
      if (it->second == rid) {
        segments_[segment].erase(it);
        return;
      }
    }
  }

  /// All versions with key in [lo, hi], across every segment.
  std::vector<RecordId> LookupRange(int64_t lo, int64_t hi) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<RecordId> out;
    for (const auto& seg : segments_) {
      for (auto it = seg.lower_bound(lo);
           it != seg.end() && it->first <= hi; ++it) {
        out.push_back(it->second);
      }
    }
    return out;
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    segments_.clear();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    size_t n = 0;
    for (const auto& seg : segments_) n += seg.size();
    return n;
  }

 private:
  mutable std::mutex mu_;
  const std::string column_;
  std::vector<std::multimap<int64_t, RecordId>> segments_;
};

}  // namespace harbor

#endif  // HARBOR_STORAGE_SECONDARY_INDEX_H_
