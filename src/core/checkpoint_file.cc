#include "core/checkpoint_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "common/byte_buffer.h"

namespace harbor {

namespace {
/// "HRK3". Layout: magic, global time, the per-object times, then the
/// stream watermarks (an object count that may be 0, each object's streams
/// with their windows).
constexpr uint32_t kMagic = 0x48524b33;

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}
}  // namespace

Result<CheckpointRecord> ReadCheckpointRecord(const std::string& dir) {
  const std::string path = dir + "/checkpoint.meta";
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return CheckpointRecord{};  // blank slate
    return Errno("open checkpoint");
  }
  std::vector<uint8_t> buf;
  uint8_t chunk[4096];
  ssize_t n;
  while ((n = ::read(fd, chunk, sizeof(chunk))) > 0) {
    buf.insert(buf.end(), chunk, chunk + n);
  }
  const int read_errno = errno;
  ::close(fd);
  if (n < 0) {
    errno = read_errno;
    return Errno("read checkpoint");
  }
  ByteBufferReader in(buf);
  HARBOR_ASSIGN_OR_RETURN(uint32_t magic, in.ReadU32());
  if (magic != kMagic) return Status::Corruption("bad checkpoint magic");
  CheckpointRecord rec;
  HARBOR_ASSIGN_OR_RETURN(rec.global_time, in.ReadU64());
  HARBOR_ASSIGN_OR_RETURN(uint32_t count, in.ReadU32());
  for (uint32_t i = 0; i < count; ++i) {
    HARBOR_ASSIGN_OR_RETURN(ObjectId obj, in.ReadU32());
    HARBOR_ASSIGN_OR_RETURN(Timestamp t, in.ReadU64());
    rec.per_object[obj] = t;
  }
  HARBOR_ASSIGN_OR_RETURN(uint32_t objects, in.ReadU32());
  for (uint32_t i = 0; i < objects; ++i) {
    HARBOR_ASSIGN_OR_RETURN(ObjectId obj, in.ReadU32());
    HARBOR_ASSIGN_OR_RETURN(uint32_t streams, in.ReadU32());
    for (uint32_t s = 0; s < streams; ++s) {
      StreamResume r;
      HARBOR_ASSIGN_OR_RETURN(r.round_hwm, in.ReadU64());
      HARBOR_ASSIGN_OR_RETURN(r.insertion_ts, in.ReadU64());
      HARBOR_ASSIGN_OR_RETURN(r.tuple_id, in.ReadU64());
      HARBOR_ASSIGN_OR_RETURN(r.stream_index, in.ReadU32());
      HARBOR_ASSIGN_OR_RETURN(r.window_lo, in.ReadU64());
      HARBOR_ASSIGN_OR_RETURN(r.window_hi, in.ReadU64());
      rec.resume[obj].push_back(r);
    }
  }
  if (in.remaining() != 0) {
    return Status::Corruption("trailing bytes after checkpoint record");
  }
  return rec;
}

Status WriteCheckpointRecord(const std::string& dir,
                             const CheckpointRecord& record) {
  ByteBufferWriter out;
  out.WriteU32(kMagic);
  out.WriteU64(record.global_time);
  out.WriteU32(static_cast<uint32_t>(record.per_object.size()));
  for (const auto& [obj, t] : record.per_object) {
    out.WriteU32(obj);
    out.WriteU64(t);
  }
  uint32_t objects = 0;
  for (const auto& [obj, streams] : record.resume) {
    if (!streams.empty()) ++objects;
  }
  out.WriteU32(objects);
  for (const auto& [obj, streams] : record.resume) {
    if (streams.empty()) continue;
    out.WriteU32(obj);
    out.WriteU32(static_cast<uint32_t>(streams.size()));
    for (const StreamResume& r : streams) {
      out.WriteU64(r.round_hwm);
      out.WriteU64(r.insertion_ts);
      out.WriteU64(r.tuple_id);
      out.WriteU32(r.stream_index);
      out.WriteU64(r.window_lo);
      out.WriteU64(r.window_hi);
    }
  }
  const std::string path = dir + "/checkpoint.meta";
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("open checkpoint tmp");
  const ssize_t n = ::write(fd, out.data().data(), out.size());
  if (n < 0 || ::fsync(fd) != 0) {
    const Status st = Errno(n < 0 ? "write checkpoint" : "fsync checkpoint");
    ::close(fd);
    return st;
  }
  ::close(fd);
  if (n != static_cast<ssize_t>(out.size())) {
    return Status::IoError("short checkpoint write");
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return Errno("rename checkpoint");
  }
  // The rename is durable only once the directory entry is.
  int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) return Errno("open checkpoint dir");
  const int synced = ::fsync(dir_fd);
  const Status st = synced == 0 ? Status::OK() : Errno("fsync checkpoint dir");
  ::close(dir_fd);
  return st;
}

}  // namespace harbor
