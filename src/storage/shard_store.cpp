#include "storage/shard_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "common/log.h"

namespace raincore::storage {

namespace {
constexpr const char* kMod = "store";
constexpr std::uint32_t kSnapMagic = 0x52534e50;  // "RSNP"

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

ShardStore::ShardStore(const StorageConfig& cfg, std::string dir,
                       std::string metrics_prefix)
    : cfg_(cfg),
      dir_(std::move(dir)),
      wal_(dir_ + "/wal.log"),
      metrics_(std::move(metrics_prefix)) {}

void ShardStore::attach(std::uint16_t stream, Hooks hooks) {
  streams_[stream] = std::move(hooks);
}

bool ShardStore::open() {
  if (wal_.is_open()) return true;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    RC_WARN(kMod, "create_directories(%s): %s", dir_.c_str(),
            ec.message().c_str());
    return false;
  }
  if (!wal_.open()) return false;
  truncated_.inc(wal_.truncated_bytes());
  seen_fsyncs_ = wal_.fsyncs();
  since_snapshot_ = 0;
  return true;
}

void ShardStore::close() { wal_.close(); }

void ShardStore::sync_wal_counters() {
  if (wal_.fsyncs() > seen_fsyncs_) {
    fsyncs_.inc(wal_.fsyncs() - seen_fsyncs_);
    seen_fsyncs_ = wal_.fsyncs();
  }
}

void ShardStore::recover() {
  if (!wal_.is_open()) return;
  const std::int64_t t0 = wall_ns();
  for (auto& [stream, hooks] : streams_) {
    if (hooks.begin_recovery) hooks.begin_recovery();
  }
  // Snapshot first: it is the compacted prefix of the log.
  std::error_code ec;
  if (std::filesystem::exists(snap_path(), ec)) {
    std::FILE* f = std::fopen(snap_path().c_str(), "rb");
    if (f) {
      std::fseek(f, 0, SEEK_END);
      const long sz = std::ftell(f);
      std::fseek(f, 0, SEEK_SET);
      Bytes buf(sz > 0 ? static_cast<std::size_t>(sz) : 0);
      const bool read_ok =
          buf.empty() || std::fread(buf.data(), 1, buf.size(), f) == buf.size();
      std::fclose(f);
      // Trailing u32 checksum over everything before it; a mismatch (torn
      // snapshot write that somehow survived the tmp+rename) discards the
      // whole snapshot rather than loading half a state.
      if (read_ok && buf.size() >= 12) {
        const std::size_t body = buf.size() - 4;
        ByteReader tail(buf.data() + body, 4);
        if (tail.u32() == Wal::fnv1a(buf.data(), body)) {
          ByteReader r(buf.data(), body);
          if (r.u32() == kSnapMagic) {
            const std::uint32_t n_sections = r.u32();
            for (std::uint32_t i = 0; i < n_sections && r.ok(); ++i) {
              const auto stream = static_cast<std::uint16_t>(r.u16());
              Bytes blob = r.bytes();
              if (!r.ok()) break;
              auto it = streams_.find(stream);
              if (it != streams_.end() && it->second.load_snapshot) {
                ByteReader br(blob);
                it->second.load_snapshot(br);
              }
            }
            snapshot_loads_.inc();
          }
        } else {
          RC_WARN(kMod, "%s: snapshot checksum mismatch, ignoring",
                  snap_path().c_str());
        }
      }
    }
  }
  const std::size_t replayed = wal_.replay([this](ByteReader& r) {
    const auto stream = static_cast<std::uint16_t>(r.u16());
    if (!r.ok()) return;
    auto it = streams_.find(stream);
    if (it != streams_.end() && it->second.replay) it->second.replay(r);
  });
  replayed_.inc(replayed);
  recovery_ns_.record_time(wall_ns() - t0);
  RC_INFO(kMod, "%s: recovered %zu WAL records", dir_.c_str(), replayed);
}

void ShardStore::append(std::uint16_t stream, const Bytes& record) {
  if (!wal_.is_open()) return;
  // Scatter append: the u16 stream tag goes straight into the WAL's
  // group-commit buffer ahead of the payload — no temporary re-encode.
  const std::uint8_t tag[2] = {static_cast<std::uint8_t>(stream),
                               static_cast<std::uint8_t>(stream >> 8)};
  wal_.append2(tag, sizeof tag, record.data(), record.size());
  appends_.inc();
  sync_wal_counters();
  if (compacting_) return;  // snapshot hooks must not recurse into compact
  if (cfg_.snapshot_every > 0 && ++since_snapshot_ >= cfg_.snapshot_every) {
    compact();
  }
}

void ShardStore::flush() {
  wal_.flush();
  sync_wal_counters();
}

void ShardStore::compact() {
  if (!wal_.is_open() || compacting_) return;
  compacting_ = true;
  ByteWriter w(256);
  w.u32(kSnapMagic);
  w.u32(static_cast<std::uint32_t>(streams_.size()));
  for (auto& [stream, hooks] : streams_) {
    w.u16(stream);
    w.bytes(hooks.snapshot ? hooks.snapshot() : Bytes{});
  }
  const Bytes& body = w.view();
  const std::uint32_t sum = Wal::fnv1a(body.data(), body.size());
  w.u32(sum);
  const Bytes out = w.take();

  const std::string tmp = snap_path() + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  bool ok = fd >= 0;
  if (ok) {
    std::size_t off = 0;
    while (off < out.size()) {
      const ssize_t n = ::write(fd, out.data() + off, out.size() - off);
      if (n <= 0) {
        ok = false;
        break;
      }
      off += static_cast<std::size_t>(n);
    }
    if (ok) ::fsync(fd);
    ::close(fd);
  }
  if (ok && std::rename(tmp.c_str(), snap_path().c_str()) == 0) {
    // The snapshot now covers every appended record: fold them into the
    // base LSN and start the log over.
    base_lsn_ += wal_.records_appended();
    wal_.reset();
    sync_wal_counters();
    snapshot_writes_.inc();
  } else {
    RC_WARN(kMod, "%s: snapshot write failed, keeping WAL", dir_.c_str());
  }
  since_snapshot_ = 0;
  compacting_ = false;
}

void ShardStore::crash() {
  if (!wal_.is_open()) return;
  wal_.drop_unsynced();
  wal_.close();
}

}  // namespace raincore::storage
