// Per-shard durable store: one WAL plus one compacting snapshot file,
// shared by every data service riding the shard's ring (DESIGN.md §5g).
//
// Services attach under a 16-bit stream id (by convention their ChannelMux
// channel) with four hooks: reset the shadow state, serialize a full
// snapshot blob, load a snapshot blob, and replay one WAL record. The
// store multiplexes the streams into a single append order — the same
// total order the agreed multicast stream gave the applies — so recovery
// reproduces the exact interleaving of map and lock mutations.
//
// Compaction is by appended-record count: every `snapshot_every` records
// the store snapshots ALL attached streams atomically (tmp file + rename)
// and resets the WAL, so the log stays bounded by the mutation rate, not
// the uptime. compact() can also be driven explicitly — the ReplicatedMap
// does so after adopting a wholesale snapshot/reconcile, whose contents
// never went through the WAL.
//
// LSNs are logical record ordinals, monotone across compactions: lsn() is
// the last record handed to the store, durable_lsn() the last one that
// would survive a power cut (fsynced, or folded into a fsynced snapshot).
// append() never syncs; flush() is the commit point. The data plane calls
// it once at the end of every token visit of the shard's ring, so no
// record stays unsynced past the visit that applied it. The chaos harness
// acknowledges a client write only once its record's LSN is durable, and
// crash() models the power cut by discarding the unsynced tail.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/metrics.h"
#include "storage/wal.h"

namespace raincore::storage {

struct StorageConfig {
  /// Root directory for the node's stores; empty disables durability.
  std::string dir;
  /// Appended records between automatic compactions (0 = never).
  std::size_t snapshot_every = 4096;
};

class ShardStore {
 public:
  struct Hooks {
    /// Invoked before recovery dispatch: reset the service's shadow state.
    std::function<void()> begin_recovery;
    /// Serialize the service's full live state (compaction snapshot).
    std::function<Bytes()> snapshot;
    /// Load one snapshot blob into the shadow state.
    std::function<void(ByteReader&)> load_snapshot;
    /// Replay one WAL record into the shadow state.
    std::function<void(ByteReader&)> replay;
  };

  /// `dir` is this shard's directory (created on open); `metrics_prefix`
  /// disambiguates the storage.* instruments per shard ("shard0.", ...).
  ShardStore(const StorageConfig& cfg, std::string dir,
             std::string metrics_prefix = "");
  ShardStore(const ShardStore&) = delete;
  ShardStore& operator=(const ShardStore&) = delete;

  void attach(std::uint16_t stream, Hooks hooks);

  /// Creates the directory and opens the WAL (torn tail truncated).
  bool open();
  void close();
  bool is_open() const { return wal_.is_open(); }

  /// Replays snapshot + WAL into the attached services' shadow states:
  /// begin_recovery for every stream, every snapshot blob, then every WAL
  /// record in append order. Records storage.wal.replayed/recovery_ns.
  void recover();

  /// Journals one record for `stream` (durable at the next flush); may
  /// trigger automatic compaction.
  void append(std::uint16_t stream, const Bytes& record);
  /// Commit point: one pwrite + fdatasync of everything appended since the
  /// last one (no-op when nothing is pending).
  void flush();

  /// Snapshots every attached stream (tmp + rename + fsync), resets the
  /// WAL. Everything appended so far becomes durable.
  void compact();

  /// Power-cut model: the unsynced WAL tail is lost, files are closed.
  /// Reopen with open() + recover().
  void crash();

  std::uint64_t lsn() const { return base_lsn_ + wal_.records_appended(); }
  std::uint64_t durable_lsn() const {
    return base_lsn_ + wal_.records_durable();
  }

  const std::string& dir() const { return dir_; }
  metrics::Registry& metrics() { return metrics_; }
  const metrics::Registry& metrics() const { return metrics_; }

 private:
  std::string snap_path() const { return dir_ + "/state.snap"; }
  void sync_wal_counters();

  StorageConfig cfg_;
  std::string dir_;
  Wal wal_;
  std::map<std::uint16_t, Hooks> streams_;
  std::uint64_t base_lsn_ = 0;  ///< records folded into snapshots so far
  std::size_t since_snapshot_ = 0;
  std::uint64_t seen_fsyncs_ = 0;
  bool compacting_ = false;

  metrics::Registry metrics_;
  Counter& appends_ = metrics_.counter("storage.wal.appends");
  Counter& fsyncs_ = metrics_.counter("storage.wal.fsyncs");
  Counter& replayed_ = metrics_.counter("storage.wal.replayed");
  Counter& truncated_ = metrics_.counter("storage.wal.truncated_bytes");
  Counter& snapshot_writes_ = metrics_.counter("storage.snapshot.writes");
  Counter& snapshot_loads_ = metrics_.counter("storage.snapshot.loads");
  /// Wall-clock (not virtual) time of recover(): real disk reads happen.
  Histogram& recovery_ns_ = metrics_.histogram("storage.recovery_ns");
};

}  // namespace raincore::storage
