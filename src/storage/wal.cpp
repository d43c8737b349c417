#include "storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "common/log.h"

namespace raincore::storage {

namespace {
constexpr const char* kMod = "wal";
constexpr std::size_t kHeader = 8;  // u32 len + u32 checksum

std::uint32_t read_u32le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void write_u32le(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

bool read_exact(int fd, std::uint64_t off, std::uint8_t* buf, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    ssize_t r = ::pread(fd, buf + got, n - got,
                        static_cast<off_t>(off + got));
    if (r <= 0) return false;
    got += static_cast<std::size_t>(r);
  }
  return true;
}
}  // namespace

std::uint32_t Wal::fnv1a_acc(std::uint32_t h, const std::uint8_t* p,
                             std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 16777619u;
  }
  return h;
}

std::uint32_t Wal::fnv1a(const std::uint8_t* p, std::size_t n) {
  return fnv1a_acc(kFnvBasis, p, n);
}

Wal::Wal(std::string path) : path_(std::move(path)) {}

Wal::~Wal() { close(); }

bool Wal::open() {
  if (fd_ >= 0) return true;
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    RC_WARN(kMod, "open(%s) failed: %s", path_.c_str(), std::strerror(errno));
    return false;
  }
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  const auto file_size = static_cast<std::uint64_t>(st.st_size);
  // Scan front to back; the first record that does not parse cleanly marks
  // the torn tail, and everything from its start onward is discarded.
  std::uint64_t off = 0;
  std::uint64_t n_records = 0;
  std::uint8_t header[kHeader];
  std::vector<std::uint8_t> payload;
  while (off + kHeader <= file_size) {
    if (!read_exact(fd_, off, header, kHeader)) break;
    const std::uint32_t len = read_u32le(header);
    const std::uint32_t want = read_u32le(header + 4);
    if (len > kMaxRecord || off + kHeader + len > file_size) break;
    payload.resize(len);
    if (len > 0 && !read_exact(fd_, off + kHeader, payload.data(), len)) break;
    if (fnv1a(payload.data(), len) != want) break;
    off += kHeader + len;
    ++n_records;
  }
  truncated_bytes_ = file_size - off;
  if (truncated_bytes_ > 0) {
    RC_INFO(kMod, "%s: truncating %llu torn/corrupt bytes after %llu records",
            path_.c_str(), static_cast<unsigned long long>(truncated_bytes_),
            static_cast<unsigned long long>(n_records));
    if (::ftruncate(fd_, static_cast<off_t>(off)) != 0) {
      ::close(fd_);
      fd_ = -1;
      return false;
    }
  }
  bytes_end_ = durable_bytes_ = off;
  records_ = durable_records_ = n_records;
  pending_.reserve(64 * 1024);  // group-commit batches realloc-free
  return true;
}

void Wal::close() {
  if (fd_ < 0) return;
  // A clean close is a flush point: whatever the group-commit buffer holds
  // goes out durably. The power-cut path calls drop_unsynced() FIRST,
  // which empties the buffer, so crashes still lose the unsynced tail.
  sync_now();
  ::close(fd_);
  fd_ = -1;
}

std::uint64_t Wal::append2(const std::uint8_t* a, std::size_t na,
                           const std::uint8_t* b, std::size_t nb) {
  if (fd_ < 0) return 0;
  // Group commit: encode into the process-local batch; the file is touched
  // once per flush (sync_now), not twice per record.
  const std::size_t n = na + nb;
  std::uint8_t header[kHeader];
  write_u32le(header, static_cast<std::uint32_t>(n));
  write_u32le(header + 4, fnv1a_acc(fnv1a_acc(kFnvBasis, a, na), b, nb));
  pending_.insert(pending_.end(), header, header + kHeader);
  if (na > 0) pending_.insert(pending_.end(), a, a + na);
  if (nb > 0) pending_.insert(pending_.end(), b, b + nb);
  bytes_end_ += kHeader + n;
  ++records_;
  return records_;
}

void Wal::sync_now() {
  if (fd_ < 0 || durable_bytes_ == bytes_end_) return;
  std::size_t put = 0;
  while (put < pending_.size()) {
    ssize_t w = ::pwrite(fd_, pending_.data() + put, pending_.size() - put,
                         static_cast<off_t>(durable_bytes_ + put));
    if (w <= 0) break;
    put += static_cast<std::size_t>(w);
  }
  // fdatasync, not fsync: the payload and the file size (needed to read it
  // back) are data-critical; the mtime update is not. This is the standard
  // WAL sync call and measurably cheaper on most filesystems.
  ::fdatasync(fd_);
  ++fsyncs_;
  pending_.clear();
  durable_bytes_ = bytes_end_;
  durable_records_ = records_;
}

void Wal::flush() { sync_now(); }

std::size_t Wal::replay(const std::function<void(ByteReader&)>& fn) const {
  if (fd_ < 0) return 0;
  // Durable prefix from the file, then any still-buffered records from the
  // group-commit batch — together that is every record appended so far.
  std::uint64_t off = 0;
  std::size_t n_records = 0;
  std::uint8_t header[kHeader];
  std::vector<std::uint8_t> payload;
  while (off + kHeader <= durable_bytes_) {
    if (!read_exact(fd_, off, header, kHeader)) break;
    const std::uint32_t len = read_u32le(header);
    const std::uint32_t want = read_u32le(header + 4);
    if (len > kMaxRecord || off + kHeader + len > durable_bytes_) break;
    payload.resize(len);
    if (len > 0 && !read_exact(fd_, off + kHeader, payload.data(), len)) break;
    if (fnv1a(payload.data(), len) != want) break;
    ByteReader r(payload.data(), payload.size());
    fn(r);
    off += kHeader + len;
    ++n_records;
  }
  std::size_t poff = 0;
  while (poff + kHeader <= pending_.size()) {
    const std::uint32_t len = read_u32le(pending_.data() + poff);
    if (poff + kHeader + len > pending_.size()) break;
    ByteReader r(pending_.data() + poff + kHeader, len);
    fn(r);
    poff += kHeader + len;
    ++n_records;
  }
  return n_records;
}

void Wal::reset() {
  if (fd_ < 0) return;
  pending_.clear();
  ::ftruncate(fd_, 0);
  ::fdatasync(fd_);
  ++fsyncs_;
  bytes_end_ = durable_bytes_ = 0;
  records_ = durable_records_ = 0;
}

void Wal::drop_unsynced() {
  if (fd_ < 0) return;
  // The unsynced tail only ever lived in the group-commit buffer — the
  // file already ends at the last fsync barrier. Discarding the buffer IS
  // the power cut.
  pending_.clear();
  bytes_end_ = durable_bytes_;
  records_ = durable_records_;
}

}  // namespace raincore::storage
