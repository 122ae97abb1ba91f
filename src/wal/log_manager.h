#ifndef HARBOR_WAL_LOG_MANAGER_H_
#define HARBOR_WAL_LOG_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "sim/sim_disk.h"
#include "wal/log_record.h"

namespace harbor {

/// \brief The write-ahead log for one site, stored on its own dedicated
/// (simulated) disk as in the paper's testbed (§6.2).
///
/// Records are appended to an in-memory tail; Flush() moves them to the log
/// file with a forced (synchronous) write. Only flushed bytes survive a
/// crash — "crash" discards the in-memory tail, and recovery reads exactly
/// what reached the file.
///
/// Group commit (§6.3, [24]): when enabled, one flusher writes the entire
/// pending tail with a single forced I/O and every waiter whose record was
/// covered proceeds — batching the log writes of concurrent transactions.
/// When disabled, each Flush call performs its own forced write covering
/// only its target LSN, so concurrent commit forces serialize on the log
/// disk (the flat "2PC without group commit" line of Figure 6-2).
class LogManager {
 public:
  /// Opens (creating if needed) the log file `dir/wal.log`. `disk` models
  /// the dedicated log disk and may be null in tests. Forces are counted
  /// and traced in `metrics`, the owning site's registry.
  static Result<std::unique_ptr<LogManager>> Open(const std::string& dir,
                                                  SimDisk* disk,
                                                  bool group_commit,
                                                  obs::Metrics& metrics);
  ~LogManager();

  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  /// Appends a record to the in-memory tail; returns its LSN. Does not
  /// touch the disk.
  Lsn Append(LogRecord record);

  /// Forces the log to disk at least up to `target` (a record's LSN).
  Status Flush(Lsn target);

  /// Forces everything appended so far.
  Status FlushAll();

  /// LSN durable on disk.
  Lsn flushed_lsn() const { return flushed_lsn_.load(); }
  /// LSN of the most recently appended record.
  Lsn last_lsn() const { return last_lsn_.load(); }

  /// Records the LSN of the latest checkpoint-begin record in the master
  /// record file (forced), where ARIES restart finds it.
  Status WriteMasterRecord(Lsn checkpoint_lsn);
  Result<Lsn> ReadMasterRecord();

  /// Reads every record currently in the log *file* (i.e. the durable
  /// prefix), with LSNs filled in. Used by ARIES restart and by tests.
  Result<std::vector<LogRecord>> ReadAllDurable();

  /// Crash semantics: drop the unflushed tail. (A real crash loses it
  /// implicitly; tests call this to make the loss explicit before reusing
  /// the object.)
  void DiscardUnflushed();

 private:
  LogManager(std::string path, int fd, SimDisk* disk, bool group_commit,
             uint64_t durable_bytes, obs::Metrics& metrics);

  struct PendingRecord {
    Lsn lsn;
    std::vector<uint8_t> bytes;  // length-prefixed record
  };

  /// Writes the batch at next_offset_, advancing it only on success so a
  /// failed batch can be re-queued and retried at the same offset.
  Status WriteOut(const std::vector<PendingRecord>& batch);
  /// Re-queues a batch whose write failed. The batch's LSNs precede
  /// everything appended since it was taken, so it goes back at the front —
  /// dropping it would let a later Flush(target) find pending_ empty and
  /// report the lost records as durable.
  void RequeueFailedBatch(std::vector<PendingRecord> batch);
  /// Counts one force of `records` records that made `flushed` durable
  /// (wal.forces: the Table 4.2 forced-write count).
  void RecordForce(size_t records, int64_t start_ns, Lsn flushed);

  const std::string path_;
  const int fd_;
  SimDisk* const disk_;
  const bool group_commit_;
  obs::Metrics& metrics_;

  std::mutex mu_;
  std::condition_variable flushed_cv_;
  /// Serializes individual forces when group commit is off.
  std::mutex force_serial_mu_;
  bool flushing_ = false;  // a group-commit leader is writing
  std::deque<PendingRecord> pending_;
  uint64_t next_offset_;  // file offset where the next flushed byte goes
  std::atomic<Lsn> next_lsn_{1};
  std::atomic<Lsn> last_lsn_{kInvalidLsn};
  std::atomic<Lsn> flushed_lsn_{kInvalidLsn};
};

}  // namespace harbor

#endif  // HARBOR_WAL_LOG_MANAGER_H_
