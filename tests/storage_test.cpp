// Storage layer: WAL format edge cases (torn tails, bit flips, power cuts)
// and ShardStore snapshot+WAL recovery semantics.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "storage/shard_store.h"
#include "storage/wal.h"

namespace raincore::storage {
namespace {

namespace fs = std::filesystem;

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("raincore-storage-" + std::to_string(::getpid()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string wal_path() const { return (dir_ / "test.wal").string(); }

  static Bytes record(const std::string& s) {
    return Bytes(s.begin(), s.end());
  }
  static std::vector<std::string> replay_all(const Wal& wal) {
    std::vector<std::string> out;
    wal.replay([&out](ByteReader& r) {
      std::string s;
      while (r.remaining() > 0) s.push_back(static_cast<char>(r.u8()));
      out.push_back(std::move(s));
    });
    return out;
  }

  fs::path dir_;
};

TEST_F(StorageTest, WalRoundTrip) {
  Wal wal(wal_path());
  ASSERT_TRUE(wal.open());
  EXPECT_EQ(wal.append(record("alpha")), 1u);
  EXPECT_EQ(wal.append(record("beta")), 2u);
  EXPECT_EQ(wal.records_durable(), 0u);  // appends never sync on their own
  wal.flush();
  EXPECT_EQ(wal.append(record("")), 3u);  // zero-length payload is a record
  EXPECT_EQ(wal.records_appended(), 3u);
  EXPECT_EQ(wal.records_durable(), 2u);  // one flushed batch
  EXPECT_EQ(wal.fsyncs(), 1u);
  wal.flush();
  EXPECT_EQ(wal.records_durable(), 3u);
  wal.close();

  Wal reread(wal_path());
  ASSERT_TRUE(reread.open());
  EXPECT_EQ(reread.truncated_bytes(), 0u);
  EXPECT_EQ(replay_all(reread),
            (std::vector<std::string>{"alpha", "beta", ""}));
}

TEST_F(StorageTest, ZeroLengthLogIsValid) {
  Wal wal(wal_path());
  ASSERT_TRUE(wal.open());
  EXPECT_EQ(wal.records_appended(), 0u);
  EXPECT_EQ(replay_all(wal).size(), 0u);
  wal.close();
  // Reopening the empty file is equally fine.
  Wal again(wal_path());
  ASSERT_TRUE(again.open());
  EXPECT_EQ(again.truncated_bytes(), 0u);
  EXPECT_EQ(replay_all(again).size(), 0u);
}

TEST_F(StorageTest, TornTailRecordIsTruncatedOnOpen) {
  {
    Wal wal(wal_path());
    ASSERT_TRUE(wal.open());
    wal.append(record("first"));
    wal.append(record("second-record"));
    wal.close();
  }
  // Tear the last record mid-payload (a crash mid-write).
  const auto full = fs::file_size(wal_path());
  fs::resize_file(wal_path(), full - 5);

  Wal wal(wal_path());
  ASSERT_TRUE(wal.open());
  EXPECT_GT(wal.truncated_bytes(), 0u);
  EXPECT_EQ(replay_all(wal), (std::vector<std::string>{"first"}));
  // The tear is gone from disk: appending continues from the good prefix.
  wal.append(record("third"));
  wal.flush();
  wal.close();
  Wal reread(wal_path());
  ASSERT_TRUE(reread.open());
  EXPECT_EQ(replay_all(reread), (std::vector<std::string>{"first", "third"}));
}

TEST_F(StorageTest, BitFlippedPayloadFailsChecksumAndTruncates) {
  {
    Wal wal(wal_path());
    ASSERT_TRUE(wal.open());
    wal.append(record("good-one"));
    wal.append(record("to-be-corrupted"));
    wal.append(record("unreachable"));
    wal.close();
  }
  // Flip one payload bit inside the SECOND record: 8B header + 8B payload
  // of record one, then record two's 8B header; +3 lands in its payload.
  std::FILE* f = std::fopen(wal_path().c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 8 + 8 + 8 + 3, SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, -1, SEEK_CUR);
  std::fputc(c ^ 0x40, f);
  std::fclose(f);

  Wal wal(wal_path());
  ASSERT_TRUE(wal.open());
  // Everything from the corrupt record on is discarded — a checksum
  // mismatch is indistinguishable from a tear and must not replay.
  EXPECT_GT(wal.truncated_bytes(), 0u);
  EXPECT_EQ(replay_all(wal), (std::vector<std::string>{"good-one"}));
}

TEST_F(StorageTest, OversizedLengthPrefixIsATear) {
  {
    Wal wal(wal_path());
    ASSERT_TRUE(wal.open());
    wal.append(record("ok"));
    wal.close();
  }
  // Append garbage that parses as a huge length prefix.
  std::FILE* f = std::fopen(wal_path().c_str(), "ab");
  ASSERT_NE(f, nullptr);
  const std::uint8_t junk[8] = {0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0};
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);

  Wal wal(wal_path());
  ASSERT_TRUE(wal.open());
  EXPECT_EQ(wal.truncated_bytes(), 8u);
  EXPECT_EQ(replay_all(wal), (std::vector<std::string>{"ok"}));
}

TEST_F(StorageTest, DropUnsyncedModelsThePowerCut) {
  Wal wal(wal_path());
  ASSERT_TRUE(wal.open());
  for (int i = 0; i < 7; ++i) {
    wal.append(record("r" + std::to_string(i)));
    if (i % 3 == 2) wal.flush();  // commit barrier after every third record
  }
  EXPECT_EQ(wal.records_appended(), 7u);
  EXPECT_EQ(wal.records_durable(), 6u);  // two flushed batches of three
  wal.drop_unsynced();
  EXPECT_EQ(wal.records_appended(), 6u);
  wal.close();

  Wal reread(wal_path());
  ASSERT_TRUE(reread.open());
  EXPECT_EQ(reread.truncated_bytes(), 0u);  // clean cut at the fsync barrier
  auto got = replay_all(reread);
  ASSERT_EQ(got.size(), 6u);
  EXPECT_EQ(got.back(), "r5");
}

// --- ShardStore --------------------------------------------------------------

/// Minimal attached service: a key-value table whose journal records and
/// snapshot blob both use (str key, str value) pairs. Replay overwrites by
/// key, which makes duplicate records idempotent — the same last-writer-wins
/// contract the ReplicatedMap journals under.
struct TableStream {
  std::map<std::string, std::string> state;

  ShardStore::Hooks hooks() {
    ShardStore::Hooks h;
    h.begin_recovery = [this] { state.clear(); };
    h.snapshot = [this] {
      ByteWriter w;
      w.u32(static_cast<std::uint32_t>(state.size()));
      for (const auto& [k, v] : state) {
        w.str(k);
        w.str(v);
      }
      return w.take();
    };
    h.load_snapshot = [this](ByteReader& r) {
      const std::uint32_t n = r.u32();
      for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
        std::string k = r.str();
        state[k] = r.str();
      }
    };
    h.replay = [this](ByteReader& r) {
      std::string k = r.str();
      state[k] = r.str();
    };
    return h;
  }

  static Bytes make_record(const std::string& k, const std::string& v) {
    ByteWriter w;
    w.str(k);
    w.str(v);
    return w.take();
  }
};

TEST_F(StorageTest, ShardStorePersistsAcrossReopen) {
  StorageConfig cfg;
  const std::string sdir = (dir_ / "store").string();
  {
    TableStream t;
    ShardStore store(cfg, sdir);
    store.attach(7, t.hooks());
    ASSERT_TRUE(store.open());
    t.state["a"] = "1";
    store.append(7, TableStream::make_record("a", "1"));
    t.state["b"] = "2";
    store.append(7, TableStream::make_record("b", "2"));
    EXPECT_EQ(store.lsn(), 2u);
    EXPECT_EQ(store.durable_lsn(), 0u);
    store.flush();
    EXPECT_EQ(store.durable_lsn(), 2u);
    store.close();
  }
  TableStream t;
  ShardStore store(cfg, sdir);
  store.attach(7, t.hooks());
  ASSERT_TRUE(store.open());
  store.recover();
  EXPECT_EQ(t.state,
            (std::map<std::string, std::string>{{"a", "1"}, {"b", "2"}}));
  // LSNs continue monotonically from the recovered log.
  EXPECT_EQ(store.lsn(), 2u);
}

TEST_F(StorageTest, SnapshotNewerThanWalWins) {
  // After a compaction the snapshot holds everything and the WAL is empty;
  // recovery must come entirely from the snapshot (replayed == 0) and the
  // LSN must still count the folded records.
  StorageConfig cfg;
  const std::string sdir = (dir_ / "store").string();
  {
    TableStream t;
    ShardStore store(cfg, sdir);
    store.attach(7, t.hooks());
    ASSERT_TRUE(store.open());
    for (int i = 0; i < 5; ++i) {
      const std::string k = "k" + std::to_string(i);
      t.state[k] = "v";
      store.append(7, TableStream::make_record(k, "v"));
    }
    store.compact();
    EXPECT_EQ(store.lsn(), 5u);
    store.close();
  }
  TableStream t;
  ShardStore store(cfg, sdir);
  store.attach(7, t.hooks());
  ASSERT_TRUE(store.open());
  store.recover();
  EXPECT_EQ(t.state.size(), 5u);
  const auto snap = store.metrics().snapshot();
  EXPECT_EQ(snap.counters.at("storage.wal.replayed"), 0u);
  EXPECT_EQ(snap.counters.at("storage.snapshot.loads"), 1u);
}

TEST_F(StorageTest, DuplicateRecordReplayIsIdempotent) {
  // A joiner that journals its replay buffer can write the same logical
  // mutation twice (snapshot adoption + buffered op). Replay must converge
  // to the same state as a single application.
  StorageConfig cfg;
  const std::string sdir = (dir_ / "store").string();
  {
    TableStream t;
    ShardStore store(cfg, sdir);
    store.attach(7, t.hooks());
    ASSERT_TRUE(store.open());
    store.append(7, TableStream::make_record("x", "1"));
    store.append(7, TableStream::make_record("x", "1"));  // duplicate
    store.append(7, TableStream::make_record("x", "2"));
    store.append(7, TableStream::make_record("x", "2"));  // duplicate
    store.close();
  }
  TableStream t;
  ShardStore store(cfg, sdir);
  store.attach(7, t.hooks());
  ASSERT_TRUE(store.open());
  store.recover();
  EXPECT_EQ(t.state, (std::map<std::string, std::string>{{"x", "2"}}));
  EXPECT_EQ(store.metrics().snapshot().counters.at("storage.wal.replayed"),
            4u);
}

TEST_F(StorageTest, AutomaticCompactionAtThreshold) {
  StorageConfig cfg;
  cfg.snapshot_every = 4;
  const std::string sdir = (dir_ / "store").string();
  TableStream t;
  ShardStore store(cfg, sdir);
  store.attach(7, t.hooks());
  ASSERT_TRUE(store.open());
  for (int i = 0; i < 9; ++i) {
    const std::string k = "k" + std::to_string(i);
    t.state[k] = "v";
    store.append(7, TableStream::make_record(k, "v"));
  }
  const auto snap = store.metrics().snapshot();
  EXPECT_EQ(snap.counters.at("storage.snapshot.writes"), 2u);  // at 4 and 8
  EXPECT_EQ(store.lsn(), 9u);  // logical LSNs survive compaction
  EXPECT_EQ(store.durable_lsn(), 8u);  // the snapshot covers 8; k8 pends
  store.flush();
  EXPECT_EQ(store.durable_lsn(), 9u);
  store.close();

  TableStream t2;
  ShardStore reread(cfg, sdir);
  reread.attach(7, t2.hooks());
  ASSERT_TRUE(reread.open());
  reread.recover();
  EXPECT_EQ(t2.state.size(), 9u);
}

TEST_F(StorageTest, CrashMidBatchLosesOnlyTheUnsyncedTail) {
  StorageConfig cfg;
  const std::string sdir = (dir_ / "store").string();
  {
    TableStream t;
    ShardStore store(cfg, sdir);
    store.attach(7, t.hooks());
    ASSERT_TRUE(store.open());
    for (int i = 0; i < 6; ++i) {
      store.append(7, TableStream::make_record("k" + std::to_string(i), "v"));
      if (i == 3) store.flush();  // commit barrier: k0..k3 are durable
    }
    EXPECT_EQ(store.lsn(), 6u);
    EXPECT_EQ(store.durable_lsn(), 4u);
    store.crash();  // power cut: k4, k5 never hit the platter
  }
  TableStream t;
  ShardStore store(cfg, sdir);
  store.attach(7, t.hooks());
  ASSERT_TRUE(store.open());
  store.recover();
  EXPECT_EQ(t.state.size(), 4u);
  EXPECT_EQ(t.state.count("k4"), 0u);
  EXPECT_EQ(t.state.count("k5"), 0u);
  EXPECT_EQ(store.lsn(), 4u);
}

TEST_F(StorageTest, MultiStreamRecoveryPreservesInterleaving) {
  // Two services on one store: the recovery dispatch must route each
  // record to its stream in the original append order.
  StorageConfig cfg;
  const std::string sdir = (dir_ / "store").string();
  {
    TableStream a, b;
    ShardStore store(cfg, sdir);
    store.attach(1, a.hooks());
    store.attach(2, b.hooks());
    ASSERT_TRUE(store.open());
    store.append(1, TableStream::make_record("k", "map-1"));
    store.append(2, TableStream::make_record("k", "lock-1"));
    store.append(1, TableStream::make_record("k", "map-2"));
    store.close();
  }
  TableStream a, b;
  ShardStore store(cfg, sdir);
  store.attach(1, a.hooks());
  store.attach(2, b.hooks());
  ASSERT_TRUE(store.open());
  store.recover();
  EXPECT_EQ(a.state.at("k"), "map-2");
  EXPECT_EQ(b.state.at("k"), "lock-1");
}

TEST_F(StorageTest, Fnv1aMatchesReferenceVectors) {
  // Frozen on-disk contract: FNV-1a 32-bit with the standard basis/prime.
  const std::uint8_t empty[1] = {0};
  EXPECT_EQ(Wal::fnv1a(empty, 0), 2166136261u);
  const char* a = "a";
  EXPECT_EQ(Wal::fnv1a(reinterpret_cast<const std::uint8_t*>(a), 1),
            0xe40c292cu);
  const char* foobar = "foobar";
  EXPECT_EQ(Wal::fnv1a(reinterpret_cast<const std::uint8_t*>(foobar), 6),
            0xbf9cf968u);
}

}  // namespace
}  // namespace raincore::storage
