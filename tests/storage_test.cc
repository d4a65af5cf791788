// Tests for the storage layer: the per-shard ShardLog (in memory and on
// the durable segment log), shard routing, the sharded
// EncryptedTableStore with and without its ORAM index, and — the part
// everything else leans on — crash
// recovery: write-kill-reopen must detect torn tails and tampering,
// restore the nonce counter, and recover exactly the committed prefix
// without ever reusing a nonce.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "crypto/record_cipher.h"
#include "edb/encrypted_table.h"
#include "common/shard_router.h"
#include "edb/shard_log.h"
#include "query/parser.h"
#include "test_util.h"
#include "workload/trip_record.h"

namespace dpsync::edb {
namespace {

namespace fs = std::filesystem;
using testutil::Trip;
using workload::TripRecord;
using workload::TripSchema;

constexpr size_t kRecordSize = crypto::RecordCipher::kCiphertextSize;

/// Fresh scratch directory per test, removed on teardown.
class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static int counter = 0;  // unique scratch dir per test case
    dir_ = (fs::temp_directory_path() /
            ("dpsync-storage-test-" + std::to_string(counter++)))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  StorageConfig SegmentConfig(int num_shards = 1,
                              bool flush_every_update = true) const {
    StorageConfig cfg;
    cfg.backend = StorageBackendKind::kSegmentLog;
    cfg.num_shards = num_shards;
    cfg.dir = dir_;
    cfg.flush_every_update = flush_every_update;
    return cfg;
  }

  std::string SegPath(const std::string& table, int shard) const {
    return dir_ + "/" + table + "/" + std::to_string(shard) + ".seg";
  }

  std::string dir_;
};

Bytes TestRecord(uint8_t fill) { return Bytes(kRecordSize, fill); }

/// Stores `run` as one batch's run on `log`: written, then published.
Status StoreRun(ShardLog* log, std::vector<Bytes> run) {
  DPSYNC_RETURN_IF_ERROR(log->WriteRun(run));
  log->PublishRun(std::move(run));
  return Status::Ok();
}

/// A record whose leading bytes carry a wire-format nonce counter (Reopen
/// parses the tail's nonces to advance the recovered high-water mark).
Bytes RecordWithNonce(uint64_t nonce, uint8_t fill) {
  Bytes r(kRecordSize, fill);
  StoreLE64(r.data(), nonce);
  return r;
}

/// Multiset of pickup ids — order-insensitive row-content comparison.
std::multiset<int64_t> PickupIds(const std::vector<query::Row>& rows) {
  std::multiset<int64_t> ids;
  for (const auto& row : rows) ids.insert(TripRecord::FromRow(row).pickup_id);
  return ids;
}

// -------------------------------------------------------- In-memory shard

TEST_F(StorageTest, InMemoryAppendGetScanCount) {
  ShardLog mem(StorageConfig{}, "T", 0, kRecordSize, /*schema_hash=*/0);
  ASSERT_OK(StoreRun(&mem, {TestRecord(1)}));
  ASSERT_OK(StoreRun(&mem, {TestRecord(2)}));
  EXPECT_EQ(mem.Count(), 2);
  EXPECT_EQ(mem.SizeBytes(), static_cast<int64_t>(2 * kRecordSize));
  auto r = mem.Get(1);
  ASSERT_OK(r);
  EXPECT_EQ(r.value(), TestRecord(2));
  EXPECT_NOT_OK(mem.Get(2));
  EXPECT_NOT_OK(mem.WriteRun({Bytes(3, 0)}));  // wrong record size
  int64_t seen = 0;
  ASSERT_OK(mem.Scan(0, 2, [&](int64_t i, const Bytes& rec) {
    EXPECT_EQ(rec, TestRecord(static_cast<uint8_t>(i + 1)));
    ++seen;
    return Status::Ok();
  }));
  EXPECT_EQ(seen, 2);
}

TEST_F(StorageTest, InMemoryReopenReportsLastFlushedMark) {
  ShardLog mem(StorageConfig{}, "T", 0, kRecordSize, /*schema_hash=*/0);
  ASSERT_OK(StoreRun(&mem, {TestRecord(1)}));
  ASSERT_OK(mem.Flush(7));
  auto mark = mem.Reopen();
  ASSERT_OK(mark);
  EXPECT_EQ(mark.value().nonce_high_water, 7u);
  EXPECT_EQ(mem.Count(), 1);  // memory is the storage: nothing is lost
}

// ------------------------------------------------------ Segment-log shard

TEST_F(StorageTest, SegmentLogRoundTripAcrossInstances) {
  {
    ShardLog seg(SegmentConfig(), "T", 0, kRecordSize, 0xabcd);
    ASSERT_OK(StoreRun(&seg, {TestRecord(1)}));
    ASSERT_OK(StoreRun(&seg, {TestRecord(2)}));
    ASSERT_OK(seg.Flush(2));
  }
  ShardLog seg(SegmentConfig(), "T", 0, kRecordSize, 0xabcd);
  auto mark = seg.Reopen();
  ASSERT_OK(mark);
  EXPECT_EQ(mark.value().nonce_high_water, 2u);
  EXPECT_EQ(seg.Count(), 2);
  auto r = seg.Get(0);
  ASSERT_OK(r);
  EXPECT_EQ(r.value(), TestRecord(1));
}

TEST_F(StorageTest, SegmentFileIsHeaderThenCommittedRecords) {
  // Pins the write offsets: record i lands at kSize + i * record_size,
  // whether it came in a run of one or of several, the header at 0, and a
  // Reopen's truncated tail is overwritten in place.
  for (bool fsync_data : {false, true}) {
    SCOPED_TRACE(fsync_data ? "fsync" : "no fsync");
    StorageConfig cfg = SegmentConfig(/*num_shards=*/2);
    cfg.fsync_data = fsync_data;
    const std::string table = fsync_data ? "F" : "T";
    std::vector<Bytes> records;
    for (uint64_t n = 0; n < 7; ++n) {
      records.push_back(RecordWithNonce(n, static_cast<uint8_t>(0x10 + n)));
    }
    ShardLog seg(cfg, table, /*shard=*/1, kRecordSize, 0xfeed);
    ASSERT_OK(StoreRun(&seg, {records[0], records[1], records[2]}));
    ASSERT_OK(seg.Flush(3));
    ASSERT_OK(StoreRun(&seg, {records[3], records[4]}));  // never committed
    auto info = seg.Reopen();
    ASSERT_OK(info);
    EXPECT_EQ(info->tail_records, 2u);
    ASSERT_OK(StoreRun(&seg, {records[5]}));
    ASSERT_OK(StoreRun(&seg, {records[6]}));
    ASSERT_OK(seg.Flush(7));

    SegmentHeader h;
    h.version = SegmentHeader::kFormatVersion;
    h.record_size = static_cast<uint32_t>(kRecordSize);
    h.schema_hash = 0xfeed;
    h.committed_count = 5;
    h.nonce_high_water = 7;
    h.shard_index = 1;
    h.shard_count = 2;
    Bytes expected(SegmentHeader::kSize);
    h.EncodeTo(expected.data());
    for (size_t i : {0, 1, 2, 5, 6}) {
      expected.insert(expected.end(), records[i].begin(), records[i].end());
    }
    std::ifstream f(SegPath(table, 1), std::ios::binary);
    const Bytes actual((std::istreambuf_iterator<char>(f)),
                       std::istreambuf_iterator<char>());
    EXPECT_EQ(actual, expected);
  }
}

TEST_F(StorageTest, SegmentLogReopenLoadsEveryRecordOfALargeShard) {
  // WriteRun writes and Reopen reads in blocks of about 1 MiB; this shard,
  // one run, spans a few of them and ends mid-block.
  const uint64_t n = 3 * ((1 << 20) / kRecordSize) + 5;
  {
    ShardLog seg(SegmentConfig(), "T", 0, kRecordSize, 1);
    std::vector<Bytes> run;
    for (uint64_t i = 0; i < n; ++i) {
      run.push_back(RecordWithNonce(i, static_cast<uint8_t>(i)));
    }
    ASSERT_OK(StoreRun(&seg, std::move(run)));
    ASSERT_OK(seg.Flush(n));
  }
  ShardLog seg(SegmentConfig(), "T", 0, kRecordSize, 1);
  ASSERT_OK(seg.Reopen());
  ASSERT_EQ(seg.Count(), static_cast<int64_t>(n));
  ASSERT_OK(seg.Scan(0, seg.Count(), [](int64_t i, const Bytes& record) {
    EXPECT_EQ(record, RecordWithNonce(static_cast<uint64_t>(i),
                                      static_cast<uint8_t>(i)));
    return Status::Ok();
  }));
}

TEST_F(StorageTest, SegmentLogRefusesARunWithAWrongSizeRecordWhole) {
  // The run's sizes are checked before the first byte is written: the
  // file is not even created.
  ShardLog seg(SegmentConfig(), "T", 0, kRecordSize, 1);
  EXPECT_NOT_OK(seg.WriteRun({TestRecord(1), Bytes(3, 0)}));
  EXPECT_EQ(seg.Count(), 0);
  EXPECT_FALSE(std::filesystem::exists(SegPath("T", 0)));
}

TEST_F(StorageTest, SegmentLogRunWrittenButNotPublishedIsOverwritten) {
  // A run that reached the file but was never published (its batch
  // failed on another shard) stays invisible; the next run lands on top
  // of it, and what it left past that run is an uncommitted tail.
  {
    ShardLog seg(SegmentConfig(), "T", 0, kRecordSize, 1);
    ASSERT_OK(seg.WriteRun({RecordWithNonce(0, 1), RecordWithNonce(1, 2)}));
    EXPECT_EQ(seg.Count(), 0);
    ASSERT_OK(StoreRun(&seg, {RecordWithNonce(2, 3)}));
    ASSERT_OK(seg.Flush(3));
    auto r = seg.Get(0);
    ASSERT_OK(r);
    EXPECT_EQ(r.value(), RecordWithNonce(2, 3));
  }
  ShardLog seg(SegmentConfig(), "T", 0, kRecordSize, 1);
  auto info = seg.Reopen();
  ASSERT_OK(info);
  EXPECT_EQ(seg.Count(), 1);
  EXPECT_EQ(info->tail_records, 1u);
  EXPECT_EQ(info->tail_nonce_bound, 2u);
}

TEST_F(StorageTest, SegmentLogRequiresReopenOnExistingFile) {
  {
    ShardLog seg(SegmentConfig(), "T", 0, kRecordSize, 1);
    ASSERT_OK(StoreRun(&seg, {TestRecord(1)}));
    ASSERT_OK(seg.Flush(1));
  }
  ShardLog fresh(SegmentConfig(), "T", 0, kRecordSize, 1);
  auto st = StoreRun(&fresh, {TestRecord(2)});
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  ASSERT_OK(fresh.Reopen());
  EXPECT_OK(StoreRun(&fresh, {TestRecord(2)}));
}

TEST_F(StorageTest, SegmentLogDiscardsUncommittedTailOnReopen) {
  {
    ShardLog seg(SegmentConfig(), "T", 0, kRecordSize, 1);
    ASSERT_OK(StoreRun(&seg, {RecordWithNonce(0, 1)}));
    ASSERT_OK(seg.Flush(1));
    // Crash after two more uncommitted appends (no Flush).
    ASSERT_OK(StoreRun(&seg, {RecordWithNonce(1, 2)}));
    ASSERT_OK(StoreRun(&seg, {RecordWithNonce(2, 3)}));
  }
  ShardLog seg(SegmentConfig(), "T", 0, kRecordSize, 1);
  auto mark = seg.Reopen();
  ASSERT_OK(mark);
  // The tail is dropped, but the nonces it burned are reported alongside
  // the header mark (the store validates and applies the advance).
  EXPECT_EQ(mark.value().nonce_high_water, 1u);
  EXPECT_EQ(mark.value().tail_nonce_bound, 3u);
  EXPECT_EQ(mark.value().tail_records, 2u);
  EXPECT_EQ(seg.Count(), 1);
  // The tail was physically truncated, so a second reopen agrees.
  EXPECT_EQ(fs::file_size(SegPath("T", 0)),
            SegmentHeader::kSize + kRecordSize);
}

TEST_F(StorageTest, SegmentLogPersistMarkRaisesTheMarkAndCommitsNothing) {
  {
    ShardLog seg(SegmentConfig(), "T", 0, kRecordSize, 1);
    ASSERT_OK(StoreRun(&seg, {RecordWithNonce(0, 1)}));
    ASSERT_OK(seg.Flush(1));
    ASSERT_OK(StoreRun(&seg, {RecordWithNonce(3, 2)}));
    ASSERT_OK(seg.PersistMark(5));
  }
  ShardLog seg(SegmentConfig(), "T", 0, kRecordSize, 1);
  auto mark = seg.Reopen();
  ASSERT_OK(mark);
  EXPECT_EQ(mark.value().nonce_high_water, 5u);
  EXPECT_EQ(mark.value().tail_nonce_bound, 4u);
  EXPECT_EQ(mark.value().tail_records, 1u);
  EXPECT_EQ(seg.Count(), 1);
}

TEST_F(StorageTest, SegmentLogDetectsTornRecordTail) {
  {
    ShardLog seg(SegmentConfig(), "T", 0, kRecordSize, 1);
    ASSERT_OK(StoreRun(&seg, {TestRecord(1)}));
    ASSERT_OK(seg.Flush(1));
  }
  {
    // A torn write: half a record past the committed prefix.
    std::ofstream f(SegPath("T", 0), std::ios::binary | std::ios::app);
    Bytes half(kRecordSize / 2, 0xee);
    f.write(reinterpret_cast<const char*>(half.data()),
            static_cast<std::streamsize>(half.size()));
  }
  ShardLog seg(SegmentConfig(), "T", 0, kRecordSize, 1);
  auto mark = seg.Reopen();
  ASSERT_OK(mark);
  EXPECT_EQ(seg.Count(), 1);  // torn tail detected and dropped
  EXPECT_EQ(fs::file_size(SegPath("T", 0)),
            SegmentHeader::kSize + kRecordSize);
}

TEST_F(StorageTest, SegmentLogFailsLoudlyWhenNonceMarkBehindLength) {
  {
    ShardLog seg(SegmentConfig(), "T", 0, kRecordSize, 1);
    ASSERT_OK(StoreRun(&seg, {TestRecord(1)}));
    ASSERT_OK(StoreRun(&seg, {TestRecord(2)}));
    ASSERT_OK(seg.Flush(2));
  }
  {
    // Tamper: rewind the persisted nonce mark below the committed count.
    std::fstream f(SegPath("T", 0),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(32);
    uint8_t one[8] = {1, 0, 0, 0, 0, 0, 0, 0};
    f.write(reinterpret_cast<const char*>(one), 8);
  }
  ShardLog seg(SegmentConfig(), "T", 0, kRecordSize, 1);
  auto mark = seg.Reopen();
  ASSERT_FALSE(mark.ok());
  EXPECT_EQ(mark.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(StorageTest, SegmentLogRejectsForeignSchemaHash) {
  {
    ShardLog seg(SegmentConfig(), "T", 0, kRecordSize, /*schema_hash=*/111);
    ASSERT_OK(StoreRun(&seg, {TestRecord(1)}));
    ASSERT_OK(seg.Flush(1));
  }
  ShardLog other(SegmentConfig(), "T", 0, kRecordSize, /*schema_hash=*/222);
  EXPECT_NOT_OK(other.Reopen());
}

TEST_F(StorageTest, ReopenWithDifferentShardCountFailsLoudly) {
  // Writing with 4 shards, reopening with 1 would silently orphan shards
  // 1-3 (the single-shard store never reads their files): the topology is
  // persisted per segment and any mismatch must refuse to attach.
  const Bytes key(32, 4);
  {
    EncryptedTableStore store("T", TripSchema(), key, SegmentConfig(4));
    std::vector<Record> records;
    for (int64_t i = 0; i < 100; ++i) records.push_back(Trip(i, i));
    ASSERT_OK(store.Setup(records));
  }
  EncryptedTableStore narrow("T", TripSchema(), key, SegmentConfig(1));
  auto st = narrow.Reopen();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  // The matching topology still attaches fine.
  EncryptedTableStore store("T", TripSchema(), key, SegmentConfig(4));
  ASSERT_OK(store.Reopen());
  EXPECT_EQ(store.outsourced_count(), 100);
}

TEST_F(StorageTest, ReopenAfterEmptySetupKeepsTableUsable) {
  // Setup with an empty gamma_0 is the experiment default; a crash right
  // after it must not strand the table in "Update before Setup".
  const Bytes key(32, 6);
  {
    EncryptedTableStore store("T", TripSchema(), key, SegmentConfig(1));
    ASSERT_OK(store.Setup({}));  // auto-flush commits the (empty) table
  }
  EncryptedTableStore store("T", TripSchema(), key, SegmentConfig(1));
  ASSERT_OK(store.Reopen());
  EXPECT_OK(store.Update({Trip(1, 10)}));
  auto rows = store.DecryptAll();
  ASSERT_OK(rows);
  EXPECT_EQ(PickupIds(rows.value()), (std::multiset<int64_t>{10}));
}

// ----------------------------------------------------------- Shard router

TEST(ShardRouterTest, DeterministicAndInRange) {
  ShardRouter router(4);
  std::map<int, int> histogram;
  for (int64_t i = 0; i < 1000; ++i) {
    Bytes payload = Trip(i, i % 50).payload;
    int shard = router.Route(payload);
    EXPECT_EQ(shard, router.Route(payload));  // identity-stable
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, 4);
    histogram[shard]++;
  }
  // All four shards receive a healthy share of a 1000-record stream.
  EXPECT_EQ(histogram.size(), 4u);
  for (const auto& [shard, count] : histogram) {
    EXPECT_GT(count, 100) << "shard " << shard;
  }
}

TEST(ShardRouterTest, SingleShardRoutesEverythingToZero) {
  ShardRouter router(1);
  EXPECT_EQ(router.Route(Trip(1, 2).payload), 0);
}

// ------------------------------------------------- Sharded EncryptedTable

TEST_F(StorageTest, ShardedStoreSpreadsRecordsAndPreservesArrivalOrder) {
  StorageConfig cfg;
  cfg.num_shards = 4;
  EncryptedTableStore store("T", TripSchema(), Bytes(32, 1), cfg);
  std::vector<Record> records;
  for (int64_t i = 0; i < 200; ++i) records.push_back(Trip(i, i));
  ASSERT_OK(store.Setup(records));
  EXPECT_EQ(store.outsourced_count(), 200);
  int64_t sum = 0;
  int shards_used = 0;
  for (int s = 0; s < store.num_shards(); ++s) {
    sum += store.shard_count(s);
    if (store.shard_count(s) > 0) ++shards_used;
  }
  EXPECT_EQ(sum, 200);
  EXPECT_EQ(shards_used, 4);
  // DecryptAll reads shard-major, each shard in arrival order: the
  // records ShardRouter sends to shard 0 first, then shard 1's, and so on.
  ShardRouter router(4);
  std::vector<int64_t> expected;
  for (int s = 0; s < 4; ++s) {
    for (int64_t i = 0; i < 200; ++i) {
      if (router.Route(records[static_cast<size_t>(i)].payload) == s) {
        expected.push_back(i);
      }
    }
  }
  auto rows = store.DecryptAll();
  ASSERT_OK(rows);
  std::vector<int64_t> got;
  for (const auto& row : rows.value()) {
    got.push_back(TripRecord::FromRow(row).pickup_id);
  }
  EXPECT_EQ(got, expected);
  // A snapshot reports one committed count per shard, covering every
  // record, and its spans sum to the same total.
  auto view = store.Snapshot();
  ASSERT_OK(view);
  ASSERT_EQ(view->shard_rows.size(), 4u);
  EXPECT_EQ(view->total_rows, 200);
  size_t total = 0;
  for (const auto& span : view->spans) total += span.size;
  EXPECT_EQ(total, 200u);
}

TEST_F(StorageTest, ShardedStoreMatchesUnshardedContent) {
  std::vector<Record> records;
  for (int64_t i = 0; i < 300; ++i) records.push_back(Trip(i, i % 37));
  EncryptedTableStore flat("T", TripSchema(), Bytes(32, 1));
  StorageConfig cfg;
  cfg.num_shards = 4;
  EncryptedTableStore sharded("T", TripSchema(), Bytes(32, 1), cfg);
  ASSERT_OK(flat.Setup(records));
  ASSERT_OK(sharded.Setup(records));
  auto flat_rows = flat.DecryptAll();
  auto sharded_rows = sharded.DecryptAll();
  ASSERT_OK(flat_rows);
  ASSERT_OK(sharded_rows);
  EXPECT_EQ(PickupIds(flat_rows.value()), PickupIds(sharded_rows.value()));
  EXPECT_EQ(flat.outsourced_bytes(), sharded.outsourced_bytes());
}

TEST_F(StorageTest, OutsourcedBytesDerivedFromBackend) {
  EncryptedTableStore store("T", TripSchema(), Bytes(32, 1), SegmentConfig(2));
  ASSERT_OK(store.Setup({Trip(1, 10), Trip(2, 20), Trip(3, 30)}));
  int64_t from_backends = 0;
  for (int s = 0; s < store.num_shards(); ++s) {
    from_backends += store.shard_backend(s).SizeBytes();
  }
  EXPECT_EQ(store.outsourced_bytes(), from_backends);
  EXPECT_EQ(store.outsourced_bytes(), static_cast<int64_t>(3 * kRecordSize));
}

TEST_F(StorageTest, SegmentStoreWithoutDirFailsOnFirstUse) {
  StorageConfig cfg;
  cfg.backend = StorageBackendKind::kSegmentLog;  // dir left empty
  EncryptedTableStore store("T", TripSchema(), Bytes(32, 1), cfg);
  Status st = store.Setup({Trip(1, 10)});
  EXPECT_NOT_OK(st);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  // An empty gamma_0 appends nothing; its auto-flush is the first write.
  EncryptedTableStore empty("T", TripSchema(), Bytes(32, 1), cfg);
  EXPECT_EQ(empty.Setup({}).code(), StatusCode::kInvalidArgument);
}

// -------------------------------------------------------- Crash recovery

TEST_F(StorageTest, WriteKillReopenRecoversCommittedPrefixAndNonces) {
  const Bytes key(32, 7);
  uint64_t committed_mark = 0;
  std::set<Bytes> pre_crash_nonces;
  {
    // Manual commit points so the "kill" lands mid-Update.
    EncryptedTableStore store("T", TripSchema(), key,
                              SegmentConfig(1, /*flush_every_update=*/false));
    ASSERT_OK(store.Setup({Trip(1, 10), Trip(2, 20)}));
    ASSERT_OK(store.Update({Trip(3, 30)}));
    ASSERT_OK(store.Flush());  // commit: {10, 20, 30}
    committed_mark = store.nonce_high_water();
    // Mid-Update "kill": records appended, commit never reached.
    ASSERT_OK(store.Update({Trip(4, 40), Trip(5, 50)}));
    // Everything written so far — including the doomed tail — reached the
    // (adversarial) server; its nonces must never be paired with new
    // plaintexts.
    auto pre_cts = store.ciphertexts();
    ASSERT_OK(pre_cts);
    for (const auto& ct : pre_cts.value()) {
      pre_crash_nonces.insert(Bytes(ct.begin(), ct.begin() + 12));
    }
    // Process dies here — the store object is simply dropped.
  }

  // Restart: a fresh store (cipher counter at 0) attaches to the files.
  EncryptedTableStore store("T", TripSchema(), key, SegmentConfig(1, false));
  ASSERT_OK(store.Reopen());
  // Counter restored past BOTH the committed prefix and the two nonces the
  // dead process burned on the discarded tail (their bytes hit the disk).
  EXPECT_EQ(store.nonce_high_water(), committed_mark + 2);
  EXPECT_EQ(store.outsourced_count(), 3);
  auto rows = store.DecryptAll();
  ASSERT_OK(rows);
  EXPECT_EQ(PickupIds(rows.value()),
            (std::multiset<int64_t>{10, 20, 30}));  // committed prefix only

  // Post-recovery updates must mint fresh nonces — never one the dead
  // process already bound to a ciphertext.
  ASSERT_OK(store.Update({Trip(6, 60), Trip(7, 70)}));
  ASSERT_OK(store.Flush());
  auto cts = store.ciphertexts();
  ASSERT_OK(cts);
  std::set<Bytes> all_nonces = pre_crash_nonces;
  for (const auto& ct : cts.value()) {
    all_nonces.insert(Bytes(ct.begin(), ct.begin() + 12));
  }
  // 3 committed + 2 uncommitted (crashed) + 2 fresh = 7 distinct nonces.
  EXPECT_EQ(all_nonces.size(), 7u);
  auto recovered = store.DecryptAll();
  ASSERT_OK(recovered);
  EXPECT_EQ(PickupIds(recovered.value()),
            (std::multiset<int64_t>{10, 20, 30, 60, 70}));
}

TEST_F(StorageTest, CrashRecoveryAcrossFourShards) {
  const Bytes key(32, 9);
  std::vector<Record> committed;
  for (int64_t i = 0; i < 100; ++i) committed.push_back(Trip(i, i));
  {
    EncryptedTableStore store("T", TripSchema(), key,
                              SegmentConfig(4, /*flush_every_update=*/false));
    ASSERT_OK(store.Setup(committed));
    ASSERT_OK(store.Flush());
    ASSERT_OK(store.Update({Trip(200, 999), Trip(201, 998)}));  // lost
  }
  EncryptedTableStore store("T", TripSchema(), key, SegmentConfig(4, false));
  ASSERT_OK(store.Reopen());
  EXPECT_EQ(store.outsourced_count(), 100);
  auto rows = store.DecryptAll();
  ASSERT_OK(rows);
  std::multiset<int64_t> expect;
  for (int64_t i = 0; i < 100; ++i) expect.insert(i);
  EXPECT_EQ(PickupIds(rows.value()), expect);
  EXPECT_GE(store.nonce_high_water(), 100u);
}

TEST_F(StorageTest, DeathBetweenTwoRunsOfABatchReopensPastItsNonces) {
  // A batch's nonces follow arrival order while its runs go out shard by
  // shard. Its first record routes to shard 1 and its second to shard 0,
  // so shard 0's run, holding the later nonce, is written first; a death
  // before shard 1's run leaves a tail that skips the earlier nonce.
  const Bytes key(32, 4);
  ShardRouter router(2);
  std::optional<Record> to_shard[2];
  for (int64_t i = 100; !to_shard[0] || !to_shard[1]; ++i) {
    Record r = Trip(i, i);
    auto& slot = to_shard[router.Route(r.payload)];
    if (!slot) slot = r;
  }
  uint64_t batch_mark = 0;
  uintmax_t shard1_committed_size = 0;
  std::set<Bytes> burned;
  {
    EncryptedTableStore store("T", TripSchema(), key,
                              SegmentConfig(2, /*flush_every_update=*/false));
    ASSERT_OK(store.Setup({Trip(1, 10), Trip(2, 20), Trip(3, 30)}));
    ASSERT_OK(store.Flush());
    shard1_committed_size = fs::file_size(SegPath("T", 1));
    ASSERT_OK(store.Update({*to_shard[1], *to_shard[0]}));
    batch_mark = store.nonce_high_water();
    auto cts = store.ciphertexts();
    ASSERT_OK(cts);
    for (const auto& ct : cts.value()) {
      burned.insert(Bytes(ct.begin(), ct.begin() + 12));
    }
  }
  // The process died after shard 0's run and before shard 1's.
  fs::resize_file(SegPath("T", 1), shard1_committed_size);

  EncryptedTableStore store("T", TripSchema(), key, SegmentConfig(2, false));
  ASSERT_OK(store.Reopen());
  EXPECT_EQ(store.outsourced_count(), 3);
  EXPECT_EQ(store.nonce_high_water(), batch_mark);
  ASSERT_OK(store.Update({Trip(4, 40), Trip(5, 50)}));
  ASSERT_OK(store.Flush());
  auto cts = store.ciphertexts();
  ASSERT_OK(cts);
  std::set<Bytes> all_nonces = burned;
  for (const auto& ct : cts.value()) {
    all_nonces.insert(Bytes(ct.begin(), ct.begin() + 12));
  }
  // 3 committed + 2 burned by the dead batch + 2 fresh.
  EXPECT_EQ(all_nonces.size(), 7u);
  auto rows = store.DecryptAll();
  ASSERT_OK(rows);
  EXPECT_EQ(PickupIds(rows.value()),
            (std::multiset<int64_t>{10, 20, 30, 40, 50}));
}

TEST_F(StorageTest, TamperedCommittedRecordFailsAuthentication) {
  const Bytes key(32, 5);
  {
    EncryptedTableStore store("T", TripSchema(), key, SegmentConfig(1));
    ASSERT_OK(store.Setup({Trip(1, 10), Trip(2, 20)}));
  }
  {
    // Flip one byte inside the second committed record's ciphertext body.
    std::fstream f(SegPath("T", 0),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(SegmentHeader::kSize +
                                        kRecordSize + 20));
    char byte;
    f.seekg(f.tellp());
    f.read(&byte, 1);
    byte ^= 0x01;
    f.seekp(static_cast<std::streamoff>(SegmentHeader::kSize +
                                        kRecordSize + 20));
    f.write(&byte, 1);
  }
  EncryptedTableStore store("T", TripSchema(), key, SegmentConfig(1));
  ASSERT_OK(store.Reopen());
  auto rows = store.DecryptAll();
  EXPECT_NOT_OK(rows);  // AEAD authentication catches the flip
}

TEST_F(StorageTest, ImplausibleTailNonceFailsLoudly) {
  // The tail walk trusts nothing: a tampered tail record claiming a nonce
  // far beyond what a real crash could have burned (which would wrap the
  // counter toward reuse if honored) must be rejected, not "recovered".
  const Bytes key(32, 8);
  {
    EncryptedTableStore store("T", TripSchema(), key, SegmentConfig(1));
    ASSERT_OK(store.Setup({Trip(1, 10), Trip(2, 20)}));
  }
  {
    // Forge one whole tail record whose nonce prefix is near 2^64.
    std::ofstream f(SegPath("T", 0), std::ios::binary | std::ios::app);
    Bytes forged = RecordWithNonce(~uint64_t{0} - 1, 0xee);
    f.write(reinterpret_cast<const char*>(forged.data()),
            static_cast<std::streamsize>(forged.size()));
  }
  EncryptedTableStore store("T", TripSchema(), key, SegmentConfig(1));
  auto st = store.Reopen();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST_F(StorageTest, HugeCommittedCountFailsWithoutAllocating) {
  // A header claiming 2^62 committed records, with a nonce mark to match.
  // 2^62 records of 92 = 4 * 23 bytes wrap a 64-bit byte count to zero,
  // so the length check must divide the file size instead of multiplying
  // the count — otherwise Reopen goes on to reserve 2^62 records and the
  // process dies with std::length_error instead of a typed error.
  const Bytes key(32, 2);
  {
    EncryptedTableStore store("T", TripSchema(), key, SegmentConfig(1));
    ASSERT_OK(store.Setup({Trip(1, 10), Trip(2, 20)}));
  }
  uint8_t header[SegmentHeader::kSize];
  {
    std::fstream f(SegPath("T", 0),
                   std::ios::binary | std::ios::in | std::ios::out);
    uint8_t huge[8];
    StoreLE64(huge, uint64_t{1} << 62);
    f.seekp(24);  // committed_count
    f.write(reinterpret_cast<const char*>(huge), 8);
    f.seekp(32);  // nonce_high_water
    f.write(reinterpret_cast<const char*>(huge), 8);
    f.seekg(0);
    f.read(reinterpret_cast<char*>(header), sizeof(header));
  }
  // The shard is built with the store's schema hash, read back from the
  // header, so the count is the only field Reopen can object to.
  auto decoded = SegmentHeader::DecodeFrom(header, SegPath("T", 0));
  ASSERT_OK(decoded);
  ShardLog shard(SegmentConfig(), "T", 0, kRecordSize, decoded->schema_hash);
  auto info = shard.Reopen();
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), StatusCode::kInternal);

  EncryptedTableStore store("T", TripSchema(), key, SegmentConfig(1));
  Status st = store.Reopen();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
}

TEST_F(StorageTest, AutoFlushCommitsEveryUpdate) {
  const Bytes key(32, 3);
  {
    EncryptedTableStore store("T", TripSchema(), key, SegmentConfig(1));
    ASSERT_OK(store.Setup({Trip(1, 10)}));
    ASSERT_OK(store.Update({Trip(2, 20)}));
    // No explicit Flush: flush_every_update committed both batches.
  }
  EncryptedTableStore store("T", TripSchema(), key, SegmentConfig(1));
  ASSERT_OK(store.Reopen());
  EXPECT_EQ(store.outsourced_count(), 2);
  ASSERT_OK(store.Update({Trip(3, 30)}));
  auto rows = store.DecryptAll();
  ASSERT_OK(rows);
  EXPECT_EQ(PickupIds(rows.value()), (std::multiset<int64_t>{10, 20, 30}));
}

// ------------------------------------------------------ ORAM-indexed store

TEST(IndexedStoreTest, SnapshotTouchesEveryRecordAndReopenIsRefused) {
  // A capture touches every record the index holds, committed or not, and
  // reads only the committed prefix. The index's trees live in memory
  // only and Reopen does not rebuild them, so an indexed store refuses it
  // and keeps serving what it had.
  StorageConfig storage;
  storage.num_shards = 4;
  storage.flush_every_update = false;
  oram::OramMirrorConfig index;
  index.capacity = 512;
  EncryptedTableStore store("T", TripSchema(), Bytes(32, 3), storage, index);
  ASSERT_NE(store.mirror(), nullptr);
  EXPECT_EQ(store.mirror()->num_shards(), 4);

  std::vector<Record> init;
  for (int64_t i = 0; i < 40; ++i) init.push_back(Trip(i, i % 10));
  ASSERT_OK(store.Setup(init));
  ASSERT_OK(store.Flush());
  ASSERT_OK(store.Update({Trip(40, 1), Trip(41, 2), Trip(42, 3)}));

  auto capture = [&] {
    std::lock_guard<std::mutex> lk(store.table_mutex());
    return store.Snapshot();
  };
  auto snap = capture();
  ASSERT_OK(snap);
  EXPECT_EQ(snap->total_rows, 40);
  EXPECT_EQ(snap->oram.paths, 43);

  Status reopen = store.Reopen();
  EXPECT_EQ(reopen.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(reopen.message().find("live in memory only"), std::string::npos)
      << reopen.ToString();
  auto after = capture();
  ASSERT_OK(after);
  EXPECT_EQ(after->total_rows, 40);
}

TEST(IndexedStoreTest, ABatchThatFailsStoresAndIndexesNothing) {
  // The second record of a batch cannot be sealed, so the whole batch is
  // refused before anything is stored: the store and the index keep only
  // the setup record, every tree keeps matching its shard, and later
  // batches and captures keep working.
  oram::OramMirrorConfig index;
  index.capacity = 64;
  EncryptedTableStore store("T", TripSchema(), Bytes(32, 3), {}, index);
  ASSERT_OK(store.Setup({Trip(0, 1)}));
  Record oversized;
  oversized.payload = Bytes(crypto::RecordCipher::kPlaintextSize, 0);
  EXPECT_EQ(store.Update({Trip(1, 2), oversized}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.outsourced_count(), 1);
  EXPECT_EQ(store.mirror()->size(), 1u);

  ASSERT_OK(store.Update({Trip(2, 3)}));
  std::lock_guard<std::mutex> lk(store.table_mutex());
  auto snap = store.Snapshot();
  ASSERT_OK(snap);
  EXPECT_EQ(snap->total_rows, 2);
  EXPECT_EQ(snap->oram.paths, 2);
}

/// `n` trip records sealed by `cipher` as ingest entries, all on `shard`.
std::vector<EncryptedTableStore::CipherEntry> SealedOnShard(
    crypto::RecordCipher& cipher, int64_t n, uint32_t shard) {
  std::vector<EncryptedTableStore::CipherEntry> entries;
  for (int64_t i = 0; i < n; ++i) {
    auto ct = cipher.Encrypt(Trip(i, i % 10).payload);
    EXPECT_OK(ct);
    entries.push_back({shard, std::move(ct.value())});
  }
  return entries;
}

/// `entries` with its last ciphertext one byte short.
std::vector<EncryptedTableStore::CipherEntry> WithShortLast(
    std::vector<EncryptedTableStore::CipherEntry> entries) {
  entries.back().ciphertext.pop_back();
  return entries;
}

TEST(IngestTest, ARefusedBatchStoresNothing) {
  // The second ciphertext of an Update batch has the wrong size. The batch
  // is checked whole before the first write, so its first entry is not
  // stored either, and the next flush commits only the next good batch.
  const Bytes key(32, 6);
  EncryptedTableStore store("T", TripSchema(), key);
  crypto::RecordCipher cipher(key);
  ASSERT_OK(store.IngestCiphertexts(SealedOnShard(cipher, 2, 0),
                                    cipher.nonce_high_water(),
                                    /*setup_batch=*/true));
  Status refused = store.IngestCiphertexts(
      WithShortLast(SealedOnShard(cipher, 2, 0)), cipher.nonce_high_water(),
      /*setup_batch=*/false);
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(store.outsourced_count(), 2);

  ASSERT_OK(store.IngestCiphertexts(SealedOnShard(cipher, 2, 0),
                                    cipher.nonce_high_water(),
                                    /*setup_batch=*/false));
  std::lock_guard<std::mutex> lk(store.table_mutex());
  auto snap = store.Snapshot();
  ASSERT_OK(snap);
  EXPECT_EQ(snap->total_rows, 4);
}

TEST(IngestTest, ARefusedSetupBatchCanBeRetried) {
  // A setup batch that stored nothing leaves the table before Setup, so
  // the same batch, intact, can be sent again.
  const Bytes key(32, 6);
  EncryptedTableStore store("T", TripSchema(), key);
  crypto::RecordCipher cipher(key);
  auto entries = SealedOnShard(cipher, 2, 0);
  Status refused = store.IngestCiphertexts(WithShortLast(entries),
                                           cipher.nonce_high_water(),
                                           /*setup_batch=*/true);
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(store.outsourced_count(), 0);
  EXPECT_EQ(store.IngestCiphertexts(entries, cipher.nonce_high_water(),
                                    /*setup_batch=*/false)
                .code(),
            StatusCode::kFailedPrecondition);  // still before Setup

  ASSERT_OK(store.IngestCiphertexts(entries, cipher.nonce_high_water(),
                                    /*setup_batch=*/true));
  EXPECT_EQ(store.outsourced_count(), 2);
}

TEST(IndexedStoreTest, IngestedBlocksJoinTheTreeOfTheirNamedShard) {
  // Every ciphertext names local shard 2, a placement no hash of the
  // payloads would give: the index follows the store's placement, so tree
  // 2 holds every block and the others none.
  const Bytes key(32, 4);
  StorageConfig storage;
  storage.num_shards = 4;
  oram::OramMirrorConfig index;
  index.capacity = 512;
  EncryptedTableStore store("T", TripSchema(), key, storage, index);
  crypto::RecordCipher cipher(key);
  constexpr int64_t kRecords = 30;
  auto entries = SealedOnShard(cipher, kRecords, 2);
  ASSERT_OK(store.IngestCiphertexts(entries, cipher.nonce_high_water(),
                                    /*setup_batch=*/true));
  EXPECT_EQ(store.shard_count(2), kRecords);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(store.mirror()->tree(s).size(),
              s == 2 ? static_cast<size_t>(kRecords) : 0u)
        << "tree " << s;
  }
  std::lock_guard<std::mutex> lk(store.table_mutex());
  auto snap = store.Snapshot();
  ASSERT_OK(snap);
  EXPECT_EQ(snap->total_rows, kRecords);
  EXPECT_EQ(snap->oram.paths, kRecords);
}

TEST(IndexedStoreTest, IngestStoresATamperedCiphertextAndCaptureRejectsIt) {
  // Ingest opens no ciphertext on either storage method: a flipped byte is
  // stored, and the enclave catch-up of the next capture fails on it.
  const Bytes key(32, 5);
  oram::OramMirrorConfig index;
  index.capacity = 64;
  for (bool indexed : {true, false}) {
    SCOPED_TRACE(indexed ? "indexed" : "linear");
    EncryptedTableStore store(
        "T", TripSchema(), key, {},
        indexed ? std::optional<oram::OramMirrorConfig>(index) : std::nullopt);
    crypto::RecordCipher cipher(key);
    auto entries = SealedOnShard(cipher, 3, 0);
    entries[1].ciphertext[20] ^= 0x01;
    ASSERT_OK(store.IngestCiphertexts(entries, cipher.nonce_high_water(),
                                      /*setup_batch=*/true));
    EXPECT_EQ(store.outsourced_count(), 3);
    std::lock_guard<std::mutex> lk(store.table_mutex());
    auto snap = store.Snapshot();
    ASSERT_FALSE(snap.ok());
    EXPECT_EQ(snap.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(snap.status().message().find("AEAD authentication failed"),
              std::string::npos)
        << snap.status().ToString();
  }
}

// ------------------------------------------------- RecordCipher nonce API

TEST(NonceHighWaterTest, SaveRestoreRoundTrip) {
  crypto::RecordCipher a(Bytes(32, 1));
  ASSERT_OK(a.Encrypt(Bytes{1}));
  ASSERT_OK(a.Encrypt(Bytes{2}));
  EXPECT_EQ(a.nonce_high_water(), 2u);

  crypto::RecordCipher b(Bytes(32, 1));
  ASSERT_OK(b.RestoreNonceHighWater(a.nonce_high_water()));
  auto ct = b.Encrypt(Bytes{3});
  ASSERT_OK(ct);
  // The restored cipher's first nonce continues where `a` stopped.
  Bytes nonce(ct.value().begin(), ct.value().begin() + 12);
  EXPECT_EQ(LoadLE64(nonce.data()), 2u);
}

TEST(NonceHighWaterTest, RefusesToRewind) {
  crypto::RecordCipher cipher(Bytes(32, 1));
  ASSERT_OK(cipher.Encrypt(Bytes{1}));
  ASSERT_OK(cipher.Encrypt(Bytes{2}));
  auto st = cipher.RestoreNonceHighWater(1);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_OK(cipher.RestoreNonceHighWater(2));  // no-op restore is fine
}

// ------------------------------------------- segment header portability

TEST(SegmentHeaderTest, RoundTripMatchesHandBuiltLittleEndianBytes) {
  SegmentHeader h;
  h.version = SegmentHeader::kFormatVersion;
  h.record_size = 92;
  h.schema_hash = 0x1122334455667788ull;
  h.committed_count = 0x00000000CAFED00Dull;
  h.nonce_high_water = 0x0F0E0D0C0B0A0908ull;
  h.shard_index = 3;
  h.shard_count = 8;

  uint8_t encoded[SegmentHeader::kSize];
  h.EncodeTo(encoded);

  // Hand-build the expected image byte by byte, independent of the
  // encoder and of the host's endianness: every multi-byte field must be
  // little-endian at its documented offset, and the reserved region must
  // be zero. This is the cross-check that keeps segment files portable.
  uint8_t expect[SegmentHeader::kSize] = {};
  std::memcpy(expect, SegmentHeader::kMagic, 8);
  auto le32 = [&](size_t off, uint32_t v) {
    for (int i = 0; i < 4; ++i) expect[off + i] = uint8_t(v >> (8 * i));
  };
  auto le64 = [&](size_t off, uint64_t v) {
    for (int i = 0; i < 8; ++i) expect[off + i] = uint8_t(v >> (8 * i));
  };
  le32(8, h.version);
  le32(12, h.record_size);
  le64(16, h.schema_hash);
  le64(24, h.committed_count);
  le64(32, h.nonce_high_water);
  le32(40, h.shard_index);
  le32(44, h.shard_count);
  EXPECT_EQ(std::memcmp(encoded, expect, SegmentHeader::kSize), 0);

  auto decoded = SegmentHeader::DecodeFrom(encoded, "test.seg");
  ASSERT_OK(decoded);
  EXPECT_EQ(decoded->version, h.version);
  EXPECT_EQ(decoded->record_size, h.record_size);
  EXPECT_EQ(decoded->schema_hash, h.schema_hash);
  EXPECT_EQ(decoded->committed_count, h.committed_count);
  EXPECT_EQ(decoded->nonce_high_water, h.nonce_high_water);
  EXPECT_EQ(decoded->shard_index, h.shard_index);
  EXPECT_EQ(decoded->shard_count, h.shard_count);
}

TEST(SegmentHeaderTest, BadMagicAndVersionRejected) {
  SegmentHeader h;
  h.version = SegmentHeader::kFormatVersion;
  uint8_t encoded[SegmentHeader::kSize];
  h.EncodeTo(encoded);
  uint8_t bad[SegmentHeader::kSize];
  std::memcpy(bad, encoded, SegmentHeader::kSize);
  bad[0] ^= 0xFF;
  EXPECT_NOT_OK(SegmentHeader::DecodeFrom(bad, "test.seg"));
  std::memcpy(bad, encoded, SegmentHeader::kSize);
  bad[8] ^= 0xFF;  // version field
  EXPECT_NOT_OK(SegmentHeader::DecodeFrom(bad, "test.seg"));
}

}  // namespace
}  // namespace dpsync::edb
