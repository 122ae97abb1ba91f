#include "wal/log_manager.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/byte_buffer.h"
#include "common/clock.h"

namespace harbor {

LogManager::LogManager(std::string path, int fd, SimDisk* disk,
                       bool group_commit, uint64_t durable_bytes,
                       obs::Metrics& metrics)
    : path_(std::move(path)),
      fd_(fd),
      disk_(disk),
      group_commit_(group_commit),
      metrics_(metrics),
      next_offset_(durable_bytes) {}

LogManager::~LogManager() { ::close(fd_); }

Result<std::unique_ptr<LogManager>> LogManager::Open(const std::string& dir,
                                                     SimDisk* disk,
                                                     bool group_commit,
                                                     obs::Metrics& metrics) {
  ::mkdir(dir.c_str(), 0755);
  const std::string path = dir + "/wal.log";
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return Status::IoError("open log: " + std::string(std::strerror(errno)));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("fstat log: " + std::string(std::strerror(errno)));
  }
  auto lm = std::unique_ptr<LogManager>(
      new LogManager(path, fd, disk, group_commit,
                     static_cast<uint64_t>(st.st_size), metrics));
  // Recover the LSN counters from the durable prefix.
  HARBOR_ASSIGN_OR_RETURN(auto records, lm->ReadAllDurable());
  Lsn last = records.empty() ? kInvalidLsn : records.back().lsn;
  lm->next_lsn_ = last + 1;
  lm->last_lsn_ = last;
  lm->flushed_lsn_ = last;
  return lm;
}

Lsn LogManager::Append(LogRecord record) {
  ByteBufferWriter body;
  record.Serialize(&body);
  ByteBufferWriter framed;
  framed.WriteU32(static_cast<uint32_t>(body.size()));
  framed.WriteRaw(body.data().data(), body.size());

  std::lock_guard<std::mutex> lock(mu_);
  const Lsn lsn = next_lsn_.fetch_add(1);
  last_lsn_ = lsn;
  pending_.push_back(PendingRecord{lsn, framed.TakeData()});
  return lsn;
}

Status LogManager::WriteOut(const std::vector<PendingRecord>& batch) {
  if (batch.empty()) return Status::OK();
  size_t total = 0;
  for (const auto& r : batch) total += r.bytes.size();
  std::vector<uint8_t> buf;
  buf.reserve(total);
  for (const auto& r : batch) {
    buf.insert(buf.end(), r.bytes.begin(), r.bytes.end());
  }
  ssize_t n = ::pwrite(fd_, buf.data(), buf.size(),
                       static_cast<off_t>(next_offset_));
  if (n != static_cast<ssize_t>(buf.size())) {
    return Status::IoError("short log write");
  }
  next_offset_ += buf.size();
  return Status::OK();
}

void LogManager::RequeueFailedBatch(std::vector<PendingRecord> batch) {
  std::lock_guard<std::mutex> lock(mu_);
  pending_.insert(pending_.begin(), std::make_move_iterator(batch.begin()),
                  std::make_move_iterator(batch.end()));
}

Status LogManager::Flush(Lsn target) {
  if (target == kInvalidLsn) return Status::OK();

  if (!group_commit_) {
    // No group commit: every committer performs its own synchronous log
    // force, and "the synchronous log I/Os of different transactions cannot
    // be overlapped" (§6.3.1) — even if a concurrent force already pushed
    // the caller's bytes out, this caller still pays a full device force.
    std::lock_guard<std::mutex> serial(force_serial_mu_);
    const int64_t start_ns = NowNanos();
    std::vector<PendingRecord> batch;
    {
      std::lock_guard<std::mutex> lock(mu_);
      while (!pending_.empty() && pending_.front().lsn <= target) {
        batch.push_back(std::move(pending_.front()));
        pending_.pop_front();
      }
    }
    int64_t bytes = 0;
    for (const auto& r : batch) bytes += static_cast<int64_t>(r.bytes.size());
    if (Status st = WriteOut(batch); !st.ok()) {
      RequeueFailedBatch(std::move(batch));
      return st;
    }
    if (disk_ != nullptr) disk_->ChargeForcedWrite(bytes);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (flushed_lsn_.load() < target) flushed_lsn_ = target;
    }
    flushed_cv_.notify_all();
    RecordForce(batch.size(), start_ns, flushed_lsn_.load());
    return Status::OK();
  }

  std::unique_lock<std::mutex> lock(mu_);
  while (flushed_lsn_.load() < target) {
    if (flushing_) {
      // A leader is writing; wait for it, then re-check. The re-check is
      // what guarantees force ordering: a waiter whose LSN rode in the
      // leader's batch only returns after the leader completed the write
      // and published flushed_lsn_ under mu_.
      flushed_cv_.wait(lock);
      continue;
    }
    // Become the leader: take everything pending so concurrent committers'
    // records ride along in a single forced write (group commit).
    const int64_t start_ns = NowNanos();
    std::vector<PendingRecord> batch(
        std::make_move_iterator(pending_.begin()),
        std::make_move_iterator(pending_.end()));
    pending_.clear();
    if (batch.empty()) return Status::OK();
    int64_t bytes = 0;
    for (const auto& r : batch) bytes += static_cast<int64_t>(r.bytes.size());
    const Lsn new_flushed = batch.back().lsn;
    flushing_ = true;
    lock.unlock();
    Status st = WriteOut(batch);
    if (st.ok() && disk_ != nullptr) disk_->ChargeForcedWrite(bytes);
    lock.lock();
    flushing_ = false;
    if (!st.ok()) {
      // Put the unwritten records back (front: their LSNs precede any
      // appends that arrived meanwhile) so a retry can still force them —
      // otherwise the next Flush(target) would see nothing pending and
      // report the lost records as durable.
      pending_.insert(pending_.begin(), std::make_move_iterator(batch.begin()),
                      std::make_move_iterator(batch.end()));
      flushed_cv_.notify_all();
      return st;
    }
    flushed_lsn_ = new_flushed;
    flushed_cv_.notify_all();
    RecordForce(batch.size(), start_ns, new_flushed);
  }
  return Status::OK();
}

void LogManager::RecordForce(size_t records, int64_t start_ns, Lsn flushed) {
  const auto n = static_cast<int64_t>(records);
  metrics_.counter(obs::CounterId::kWalForces).Add();
  metrics_.counter(obs::CounterId::kWalRecordsFlushed).Add(n);
  metrics_.histogram(obs::HistogramId::kWalBatchRecords).Record(n);
  metrics_.histogram(obs::HistogramId::kWalForceNs)
      .Record(NowNanos() - start_ns);
  metrics_.gauge(obs::GaugeId::kWalFlushedLsn)
      .Set(static_cast<int64_t>(flushed));
  metrics_.Trace("wal.force", 0, static_cast<int64_t>(flushed), n);
}

Status LogManager::FlushAll() { return Flush(last_lsn_.load()); }

Status LogManager::WriteMasterRecord(Lsn checkpoint_lsn) {
  const std::string master = path_ + ".master";
  int fd = ::open(master.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("open master: " + std::string(std::strerror(errno)));
  }
  ssize_t n = ::write(fd, &checkpoint_lsn, sizeof(checkpoint_lsn));
  ::fsync(fd);
  ::close(fd);
  if (n != sizeof(checkpoint_lsn)) {
    return Status::IoError("short master write");
  }
  if (disk_ != nullptr) disk_->ChargeForcedWrite(sizeof(checkpoint_lsn));
  return Status::OK();
}

Result<Lsn> LogManager::ReadMasterRecord() {
  const std::string master = path_ + ".master";
  int fd = ::open(master.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return kInvalidLsn;
    return Status::IoError("open master: " + std::string(std::strerror(errno)));
  }
  Lsn lsn = kInvalidLsn;
  ssize_t n = ::read(fd, &lsn, sizeof(lsn));
  ::close(fd);
  if (n != sizeof(lsn)) return Status::IoError("short master read");
  return lsn;
}

Result<std::vector<LogRecord>> LogManager::ReadAllDurable() {
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    return Status::IoError("fstat log: " + std::string(std::strerror(errno)));
  }
  std::vector<uint8_t> buf(static_cast<size_t>(st.st_size));
  if (!buf.empty()) {
    ssize_t n = ::pread(fd_, buf.data(), buf.size(), 0);
    if (n != static_cast<ssize_t>(buf.size())) {
      return Status::IoError("short log read");
    }
    // Restart log scan: one sequential pass over the durable log.
    if (disk_ != nullptr) {
      disk_->ChargeSequentialRead(static_cast<int64_t>(buf.size()));
    }
  }
  std::vector<LogRecord> out;
  ByteBufferReader in(buf);
  Lsn lsn = 1;
  while (in.remaining() > 0) {
    HARBOR_ASSIGN_OR_RETURN(uint32_t len, in.ReadU32());
    if (in.remaining() < len) {
      return Status::Corruption("truncated log record");
    }
    ByteBufferReader body(buf.data() + in.position(), len);
    HARBOR_ASSIGN_OR_RETURN(LogRecord rec, LogRecord::Deserialize(&body));
    rec.lsn = lsn++;
    out.push_back(std::move(rec));
    // Advance the outer cursor past the body.
    std::vector<uint8_t> skip(len);
    HARBOR_RETURN_NOT_OK(in.ReadRaw(skip.data(), len));
  }
  return out;
}

void LogManager::DiscardUnflushed() {
  std::lock_guard<std::mutex> lock(mu_);
  pending_.clear();
  last_lsn_ = flushed_lsn_.load();
  next_lsn_ = flushed_lsn_.load() + 1;
}

}  // namespace harbor
