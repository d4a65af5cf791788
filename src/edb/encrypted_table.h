/// \file encrypted_table.h
/// Server-side storage for one outsourced table: an append-only collection
/// of fixed-size AEAD ciphertexts (atomic record encryption, §4.1). Every
/// engine table is one of these stores; it implements the owner-facing
/// Setup/Update protocols and the enclave/decryption-side full scan.
///
/// Since the storage-spine refactor the store is a *sharded container*: a
/// ShardRouter hashes each record's identity onto one of N shards, each
/// shard owning a ShardLog (an in-memory record array, written through to
/// a durable segment file when configured — see shard_log.h /
/// docs/STORAGE.md) plus its own enclave-resident plaintext mirror. A
/// record's address is its (shard, offset within the shard). The store is
/// the one place in a process that decides it (IngestCiphertexts takes the
/// shard each entry names), and every reader walks the shards in order
/// (shard-major), each in arrival order. Full scans fan out across shards
/// on the shared thread pool.
///
/// The store also tracks a per-table **CommitEpoch** (advanced by Flush —
/// DP-Sync's commit point: records become query-visible when a strategy
/// flushes them) and can capture the committed prefix as an immutable
/// `SnapshotView` (see snapshot.h / docs/CONCURRENCY.md): the mirrors live
/// in fixed-capacity, address-stable row chunks, so a capture is O(#chunks)
/// and the resulting view is safe to scan with no lock held while the
/// owner keeps appending.
///
/// ObliDB's indexed storage method adds an oblivious index to the store:
/// an oram::OramMirror with one Path ORAM per storage shard, fed every
/// ciphertext the append loop stores under the record's own address (its
/// shard's tree, its offset as block id) and touched in full by every
/// Snapshot (see docs/ORAM.md).
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "crypto/record_cipher.h"
#include "edb/encrypted_database.h"
#include "common/shard_router.h"
#include "edb/shard_log.h"
#include "edb/snapshot.h"
#include "edb/view.h"
#include "oram/oram_mirror.h"
#include "query/schema.h"

namespace dpsync::edb {

/// One outsourced, encrypted, append-only table.
class EncryptedTableStore : public EdbTable {
 public:
  /// \param key 32-byte AEAD key shared owner<->enclave (never the server)
  /// \param storage backend kind, shard count and (for the segment log)
  ///        the on-disk location. The default reproduces the original
  ///        single-shard in-memory store exactly.
  /// \param index when set, the store keeps an ORAM index built from it
  ///        (ObliDB's indexed storage method), with one tree per storage
  ///        shard.
  EncryptedTableStore(std::string name, query::Schema schema, Bytes key,
                      StorageConfig storage = {},
                      std::optional<oram::OramMirrorConfig> index = {});

  // --- owner-facing SOGDB protocols -------------------------------------
  Status Setup(const std::vector<Record>& gamma0) override;
  Status Update(const std::vector<Record>& gamma) override;
  /// Both derived from the shards (sums of per-shard records and stored
  /// bytes), so the reported metrics cannot drift from what they hold.
  int64_t outsourced_count() const override;
  int64_t outsourced_bytes() const override;
  const std::string& table_name() const override { return name_; }

  /// One pre-encrypted, pre-routed record for IngestCiphertexts: the
  /// distributed coordinator already applied the table cipher and the
  /// global ShardRouter, so a shard server only places the ciphertext.
  struct CipherEntry {
    uint32_t shard = 0;  ///< local shard index, < num_shards()
    Bytes ciphertext;    ///< RecordCipher output (nonce || ct || tag)
  };

  /// Appends coordinator-encrypted ciphertexts at their pre-routed shard
  /// positions — the server half of the distributed ingest path, where
  /// plaintext never reaches this store. `nonce_high_water` is the global
  /// cipher's counter after the batch; it is restored into the local
  /// cipher (never rewound) BEFORE the auto-flush so the persisted mark
  /// tracks the global stream. Follows the Setup/Update state machine via
  /// `setup_batch` and stores and auto-flushes exactly like Setup/Update:
  /// every entry's shard and size is checked before the first write, and
  /// a batch refused by a check or a failed run write stores nothing (a
  /// refused setup batch can be retried). A batch whose flush or index
  /// append fails is stored, and the error is returned all the same.
  /// Nothing is decrypted here: on an indexed store each block
  /// joins its entry's shard's tree, and a ciphertext that fails
  /// authentication is stored and fails the next Snapshot's enclave
  /// catch-up, on either storage method.
  Status IngestCiphertexts(std::vector<CipherEntry> entries,
                           uint64_t nonce_high_water, bool setup_batch);

  // --- durability --------------------------------------------------------
  /// Commits every shard and persists the cipher's nonce high-water mark.
  /// Called automatically after Setup/Update unless
  /// StorageConfig::flush_every_update is false.
  ///
  /// Thread-safety: Setup/Update/Flush/Reopen serialize on table_mutex()
  /// internally. The read side (Snapshot/DecryptAll/accessors) does NOT
  /// lock — callers reading a table that may be appended to concurrently
  /// hold table_mutex() across the call; a Snapshot's spans then stay
  /// valid with no lock held (the edb engines do exactly this).
  Status Flush();

  /// Re-attaches to the shards' durable state (simulating a restart):
  /// every shard recovers its committed prefix, the enclave mirrors are
  /// dropped, and the cipher's nonce counter is restored from the
  /// persisted high-water mark. Fails loudly if the persisted mark is
  /// behind the committed record count (nonce reuse). An indexed store
  /// refuses with FailedPrecondition and changes nothing: its ORAM trees
  /// live in memory only, and Reopen does not rebuild them.
  Status Reopen();

  // --- trusted-side access ----------------------------------------------
  const query::Schema& schema() const { return schema_; }

  /// Decrypts every stored ciphertext into rows, bypassing the enclave
  /// mirrors: a direct check of what the store holds, which only tests
  /// use (queries read through Snapshot()). Rows come back shard-major,
  /// each shard in arrival order; the decryption work fans out across the
  /// shared thread pool for large tables. Fails if any ciphertext fails
  /// authentication.
  StatusOr<std::vector<query::Row>> DecryptAll() const;

  /// The one read capture every scan and join runs: the committed prefix
  /// as an immutable SnapshotView. On an indexed store every mirrored
  /// record, committed or not, is first touched through its shard's ORAM
  /// (OramMirror::TouchAll, one pool task per tree) because each access
  /// rewrites tree state; the view's `oram` field reports that work. The
  /// enclave mirrors then catch up incrementally: only ciphertexts
  /// appended since the last capture are decrypted. Real SGX engines keep
  /// the working table in enclave memory across queries; this mirrors
  /// that, so repeated queries cost O(delta) real time (the *virtual* QET
  /// still charges the full oblivious scan — see cost_model.h). NOT
  /// internally locked: callers hold table_mutex() across the call, and
  /// only across the call — the returned view is safe to scan with NO
  /// lock held while appends race: every captured span bound is ≤ the
  /// committed count at capture time, chunks never move rows, and later
  /// writes land strictly beyond the bounds. Repeated captures at an
  /// unchanged epoch return views over the same chunks (no copying either
  /// way).
  StatusOr<SnapshotView> Snapshot();

  // --- materialized views (see view.h / docs/CONCURRENCY.md) ------------
  /// Registers an incremental aggregate view for `plan` (idempotent per
  /// fingerprint) and warm-folds it current through the present
  /// CommitEpoch, so the very next Execute can answer from it. From then
  /// on every Flush that commits rows folds the newly committed delta into
  /// the view under the same table mutex that publishes the epoch; Reopen
  /// invalidates it (lazy rebuild at the next fold). A store with an ORAM
  /// index keeps no views, because every scan of it must pay its
  /// oblivious touches: it returns FailedPrecondition before any
  /// catch-up. Locks table_mutex().
  Status RegisterView(std::shared_ptr<const query::QueryPlan> plan);

  /// One O(1) view answer plus the committed row count it covers — what
  /// the scan path would report as records_scanned and charge the cost
  /// model with.
  struct ViewAnswer {
    query::QueryResult result;
    int64_t committed_rows = 0;
  };

  /// Answers `fingerprint` from its registered view iff the view exists,
  /// its plan text matches, and its state is current through the present
  /// CommitEpoch; std::nullopt otherwise (caller falls back to the scan
  /// path: cold start, post-Reopen, fingerprint never registered). Locks
  /// table_mutex() briefly — the copy out is O(answer), never O(rows).
  std::optional<ViewAnswer> TryViewAnswer(uint64_t fingerprint,
                                          const std::string& canonical_text);

  /// Number of registered views (tests). Locks table_mutex().
  size_t registered_views();

  /// Wires the per-fold counter (ServerStats::view_folds) of the owning
  /// server into this store. Call before queries run.
  void set_view_fold_counter(std::atomic<int64_t>* counter) {
    views_.set_fold_counter(counter);
  }

  /// CommitEpoch: monotone generation counter of the committed (flushed,
  /// query-visible) prefix. Advanced by every Flush that committed new
  /// records — including the automatic flush inside Setup/Update when
  /// StorageConfig::flush_every_update is set — and by Reopen. Safe to
  /// read from any thread.
  uint64_t commit_epoch() const override {
    return commit_epoch_.load(std::memory_order_acquire);
  }

  /// Rows in the committed prefix (what a Snapshot would expose). Safe to
  /// read from any thread; pair with commit_epoch() for a consistent
  /// reading under the table mutex.
  int64_t committed_rows() const {
    return committed_total_.load(std::memory_order_acquire);
  }

  /// Materializes the server-visible ciphertexts shard-major, each shard
  /// in arrival order (copies; for tests probing indistinguishability).
  StatusOr<std::vector<Bytes>> ciphertexts() const;

  /// The cipher's nonce high-water mark (next nonce to be consumed);
  /// crash-recovery tests assert it survives Reopen().
  uint64_t nonce_high_water() const { return cipher_.nonce_high_water(); }

  /// Shard count; every per-shard accessor below takes an index
  /// < num_shards().
  int num_shards() const { return static_cast<int>(shards_.size()); }
  /// Records currently held by one shard (per-shard scan work; the cost
  /// model consumes the sum, which equals outsourced_count()).
  int64_t shard_count(int shard) const { return shards_[shard].Count(); }
  const ShardLog& shard_backend(int shard) const { return shards_[shard]; }

  /// The ORAM index, or nullptr for a linear store. Read it under
  /// table_mutex() while the table may change.
  const oram::OramMirror* mirror() const { return mirror_.get(); }

 private:
  /// One shard's enclave-resident plaintext mirror: an append-only list of
  /// address-stable chunks (see snapshot.h) plus the decrypted-row count.
  struct ShardMirror {
    std::vector<std::shared_ptr<RowChunk>> chunks;
    size_t rows = 0;
  };

  /// Seals every record of a Setup/Update batch, routes it, and stores
  /// the batch (StoreBatch). A payload too large to seal refuses the
  /// whole batch before any nonce is consumed.
  Status AppendEncrypted(const std::vector<Record>& records,
                         bool setup_batch);
  /// The common tail of every batch: `runs[s]` holds shard s's records in
  /// arrival order. A batch with runs on more than one shard first
  /// persists the cipher's mark in one shard header
  /// (ShardLog::PersistMark); then each non-empty run is written to its
  /// shard (ShardLog::WriteRun). A batch that fails there is not stored,
  /// indexed or counted. Only when every write succeeded are the runs
  /// published, a setup batch marked done, and the batch auto-flushed (if
  /// configured) and indexed: from then on the batch is stored, and a
  /// failed flush or index append is returned with the batch in place.
  /// It joins the ORAM index even if its flush failed, so every tree
  /// keeps matching its shard.
  Status StoreBatch(std::vector<std::vector<Bytes>> runs, bool setup_batch);
  /// Unlocked body of Flush() (`all`) and of the auto-flush, which
  /// commits only the shards the last batches appended to, so per-update
  /// commit cost scales with shards touched, not num_shards. Callers hold
  /// table_mutex().
  Status FlushShards(bool all);
  Status CatchUpShard(int shard);
  /// Incremental catch-up of every shard mirror (parallel past the
  /// fan-out threshold).
  Status CatchUpAllShards();
  /// Records that `shard` now has `count` committed rows; returns true if
  /// that changed the committed prefix.
  bool MarkCommitted(size_t shard, int64_t count);
  /// Publishes a new CommitEpoch + committed total (call after one or
  /// more MarkCommitted returned true).
  void AdvanceCommitEpoch();
  /// Builds a view over the first `committed_[s]` rows of each mirror.
  /// Mirrors must be caught up at least that far.
  SnapshotView CaptureView() const;
  /// Folds the newly committed rows into every registered view (no-op
  /// when none are). Called under table_mutex() right after
  /// AdvanceCommitEpoch(), so view state and epoch publish atomically.
  Status FoldViews();
  /// Row source over the enclave mirrors for view folds (mirrors must be
  /// caught up through the requested range).
  ViewRowSource MirrorRowSource() const;

  std::string name_;
  query::Schema schema_;
  crypto::RecordCipher cipher_;
  StorageConfig storage_;
  ShardRouter router_;
  std::vector<ShardLog> shards_;
  std::vector<uint8_t> dirty_;  ///< shards appended to since their last flush
  bool setup_done_ = false;
  // Enclave-resident plaintext mirrors (lazy, incremental, one per shard).
  std::vector<ShardMirror> enclave_;
  /// The ORAM index (indexed storage method only).
  std::unique_ptr<oram::OramMirror> mirror_;
  /// Sticky first index failure: once the index diverges from the store
  /// (e.g. a tree hit capacity) every later append and capture reports
  /// this cause.
  Status mirror_status_;
  /// Per-shard committed (flushed) record counts — the snapshot-visible
  /// prefix. Guarded by table_mutex(); the atomics below publish the
  /// derived epoch/total for lock-free readers.
  std::vector<int64_t> committed_;
  std::atomic<uint64_t> commit_epoch_{0};
  std::atomic<int64_t> committed_total_{0};
  /// Incremental aggregate views registered on this table. Guarded by
  /// table_mutex() like committed_ (the registry itself is not locked).
  ViewRegistry views_;
};

}  // namespace dpsync::edb
