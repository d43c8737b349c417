// Append-only write-ahead log: the durability primitive under the
// replicated data services (DESIGN.md §5g).
//
// On disk the log is a flat sequence of length-prefixed records:
//
//   u32 len | u32 fnv1a(payload) | payload[len]        (little-endian)
//
// Appends are group-committed: records accumulate in a process-local
// buffer and reach the file in ONE pwrite + fdatasync per flush(). The
// log never syncs on its own — the owner picks the commit point (the data
// plane flushes once per token visit, DESIGN.md §5g); close() and reset()
// are flush points too. One syscall pair per batch instead of two per
// record is what keeps the WAL tax inside the bench_durability budget.
// The durable/appended split is explicit: records_appended() counts what
// this process wrote, records_durable() counts what would survive a power
// cut. Opening an existing log scans it front to back and truncates at
// the first torn or corrupt record (short header, short payload,
// oversized length, checksum mismatch) — everything before the tear
// replays, everything after it is discarded, which is exactly the
// contract fsync batching implies.
//
// drop_unsynced() models the power cut in-process (chaos harness): the
// pending batch is discarded — buffered records never even reached the
// file — so a subsequent replay sees only what a real crash would have
// preserved.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/types.h"

namespace raincore::storage {

class Wal {
 public:
  /// Records whose length prefix exceeds this are treated as a tear (a
  /// torn length prefix is indistinguishable from a huge record).
  static constexpr std::uint32_t kMaxRecord = 1u << 24;

  explicit Wal(std::string path);
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;
  ~Wal();

  /// Opens (creating if absent), scans for a torn tail and truncates it.
  /// Returns false only on I/O errors (open/stat failures).
  bool open();
  void close();
  bool is_open() const { return fd_ >= 0; }

  /// Appends one record to the pending batch (durable at the next flush).
  /// Returns the record's 1-based sequence number within this log.
  std::uint64_t append(const std::uint8_t* payload, std::size_t n) {
    return append2(payload, n, nullptr, 0);
  }
  std::uint64_t append(const Bytes& payload) {
    return append(payload.data(), payload.size());
  }
  /// Scatter append: one record whose payload is the concatenation a|b.
  /// Lets callers prepend a framing tag without re-encoding the payload
  /// into a temporary buffer (the multiplexed-stream hot path).
  std::uint64_t append2(const std::uint8_t* a, std::size_t na,
                        const std::uint8_t* b, std::size_t nb);

  /// Forces the current batch to disk (no-op when nothing is pending).
  void flush();

  /// Replays every durable-or-not record currently in the file, in append
  /// order. Stops at the first invalid record. Returns the count replayed.
  std::size_t replay(const std::function<void(ByteReader&)>& fn) const;

  /// Truncates the log to empty (post-compaction: the snapshot now covers
  /// everything the log held).
  void reset();

  /// Power-cut model: discards every record after the last fsync barrier.
  void drop_unsynced();

  std::uint64_t records_appended() const { return records_; }
  std::uint64_t records_durable() const { return durable_records_; }
  std::uint64_t fsyncs() const { return fsyncs_; }
  /// Bytes discarded by torn-tail/corruption truncation at the last open().
  std::uint64_t truncated_bytes() const { return truncated_bytes_; }

  static std::uint32_t fnv1a(const std::uint8_t* p, std::size_t n);
  /// Streaming form: fold more bytes into a running hash (seed with
  /// kFnvBasis, then chain — fnv1a(p,n) == fnv1a_acc(kFnvBasis, p, n)).
  static constexpr std::uint32_t kFnvBasis = 2166136261u;
  static std::uint32_t fnv1a_acc(std::uint32_t h, const std::uint8_t* p,
                                 std::size_t n);

 private:
  void sync_now();

  std::string path_;
  int fd_ = -1;
  /// Group-commit buffer: encoded records in [durable_bytes_, bytes_end_)
  /// that have not hit the file yet. Invariant: the file always ends
  /// exactly at durable_bytes_ (pending bytes exist only here).
  std::vector<std::uint8_t> pending_;
  std::uint64_t bytes_end_ = 0;          ///< logical offset after last record
  std::uint64_t durable_bytes_ = 0;      ///< offset covered by fsync
  std::uint64_t records_ = 0;
  std::uint64_t durable_records_ = 0;
  std::uint64_t fsyncs_ = 0;
  std::uint64_t truncated_bytes_ = 0;
};

}  // namespace raincore::storage
