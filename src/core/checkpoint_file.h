#ifndef HARBOR_CORE_CHECKPOINT_FILE_H_
#define HARBOR_CORE_CHECKPOINT_FILE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/types.h"

namespace harbor {

/// \brief The "well-known location on disk" where a site records its
/// checkpoint time T (Figure 3-2): every update with commit time <= T is on
/// disk.
///
/// During recovery a site switches to finer-granularity per-object
/// checkpoints — objects recover at different rates, and a restart mid-
/// recovery should resume each object from its own high-water mark (§5.3).
/// The global time applies to any object without an override.
/// Durable progress marker for an interrupted Phase-2 catch-up stream: the
/// last chunk boundary whose tuples are known to be on disk. `round_hwm` is
/// the historical snapshot the interrupted round was copying toward — a
/// resumed round MUST reuse it, because a fresh (later) HWM would skip
/// deletions of already-watermarked tuples that committed between the two
/// snapshots. `(insertion_ts, tuple_id)` is the stream cursor: every version
/// with key <= the cursor is durably applied; the resumed stream re-fetches
/// strictly beyond it.
struct StreamResume {
  Timestamp round_hwm = 0;
  Timestamp insertion_ts = 0;
  TupleId tuple_id = 0;
  /// Which of the round's parallel catch-up streams wrote this watermark,
  /// and the disjoint insertion-ts window (window_lo, window_hi] that
  /// stream copies. Parallel multi-buddy recovery splits the round's
  /// (checkpoint, round_hwm] range into such windows, one stream per buddy;
  /// a resumed round rebuilds the interrupted round's geometry from the
  /// stored windows. Every written window has window_lo < window_hi; an
  /// entry with window_hi <= window_lo is stale and covers nothing.
  uint32_t stream_index = 0;
  Timestamp window_lo = 0;
  Timestamp window_hi = 0;

  bool operator==(const StreamResume&) const = default;
};

struct CheckpointRecord {
  Timestamp global_time = 0;
  std::unordered_map<ObjectId, Timestamp> per_object;
  /// Mid-stream Phase-2 watermarks, keyed like per_object: one entry per
  /// interrupted catch-up stream of the object (several when the round was
  /// fanned out over multiple buddies). Entries exist only while the
  /// object's catch-up is interrupted; they are cleared by the round's
  /// object checkpoint and by global-checkpoint promotion.
  std::unordered_map<ObjectId, std::vector<StreamResume>> resume;

  Timestamp TimeFor(ObjectId object) const {
    auto it = per_object.find(object);
    return it == per_object.end() ? global_time : it->second;
  }

  const std::vector<StreamResume>* ResumeFor(ObjectId object) const {
    auto it = resume.find(object);
    return it == resume.end() || it->second.empty() ? nullptr : &it->second;
  }
};

/// Reads the checkpoint record from `dir` (a missing file reads as time 0:
/// recover from a blank slate, §5.3). A wrong magic, a short record or
/// trailing bytes read as Corruption.
Result<CheckpointRecord> ReadCheckpointRecord(const std::string& dir);

/// Atomically persists the checkpoint record: write and fsync a temporary
/// file, rename it into place, then fsync the directory.
Status WriteCheckpointRecord(const std::string& dir,
                             const CheckpointRecord& record);

}  // namespace harbor

#endif  // HARBOR_CORE_CHECKPOINT_FILE_H_
