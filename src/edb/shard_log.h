/// \file shard_log.h
/// Physical storage for one shard of an encrypted table. The
/// EncryptedTableStore owns encryption, sharding and enclave views; a
/// ShardLog only keeps opaque fixed-size ciphertext records: an in-memory
/// record array and, when StorageConfig selects the segment log, a
/// write-through segment file (`<dir>/<table>/<shard>.seg`) holding a
/// fixed-size header followed by the same records, so record offsets are
/// pure arithmetic. Records arrive in runs, one per shard per batch: a run
/// reaches the file in one positioned write (WriteRun), and the caller
/// publishes it in memory (PublishRun) only once every run of its batch
/// has been written. See docs/STORAGE.md for the contract and the crash
/// model.
///
/// Segment wire format (all integers little-endian):
///   offset  size  field
///   0       8     magic "DPSYNCSG"
///   8       4     format version (1)
///   12      4     record_size
///   16      8     schema_hash
///   24      8     committed_count   (records covered by the last Flush)
///   32      8     nonce_high_water  (cipher counter at the last Flush)
///   40      4     shard_index       (this file's place in the table)
///   44      4     shard_count       (the table's shard topology)
///   48      16    reserved (zero)
///   64      ...   records: committed_count * record_size committed bytes,
///                 possibly followed by an uncommitted / torn tail that
///                 Reopen discards.
///
/// The schema hash binds the file to its table layout. shard_index and
/// shard_count bind it to the table topology: reopening a table with a
/// different shard count would silently orphan the shard files the new
/// configuration never reads, so Reopen rejects any mismatch loudly.
///
/// Crash model: runs are written through; Flush persists the header
/// naming the committed prefix. A crash between a run's write and the
/// next Flush leaves extra (whole or torn) records past committed_count —
/// Reopen truncates them, but first reports every nonce the tail consumed
/// (each record leads with its nonce), so re-encryption after recovery
/// never reuses a nonce even for records the crash destroyed. PersistMark
/// raises the header's mark without committing anything, for a batch
/// whose runs would otherwise leave tails that skip a nonce.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace dpsync::edb {

/// Which storage keeps each shard's records.
enum class StorageBackendKind {
  kInMemory,    ///< the in-memory record array only; no durability
  kSegmentLog,  ///< plus an append-only segment file; crash-recoverable
};

std::string StorageBackendKindName(StorageBackendKind kind);

/// Storage knobs threaded from the experiment config down to each table.
struct StorageConfig {
  StorageBackendKind backend = StorageBackendKind::kInMemory;
  /// Number of shards per table; records are routed by identity hash.
  int num_shards = 1;
  /// Root directory for segment files, which live at
  /// `<dir>/<table>/<shard>.seg`. Required for kSegmentLog: without it
  /// the table's first write fails with InvalidArgument.
  std::string dir;
  /// Commit (Flush) after every Setup/Update batch, so each completed
  /// Pi_Update is durable. Disable to control commit points manually
  /// (crash-recovery tests do).
  bool flush_every_update = true;
  /// Issue a real fsync on every segment-log commit. Off by default: the
  /// simulation's crash model is process death, which every write that
  /// reached the kernel already survives, and per-update fsyncs dominate
  /// experiment wall time.
  bool fsync_data = false;
};

/// The decoded form of the 64-byte segment header above. Encode/Decode go
/// through the little-endian helpers of common/bytes.h — never raw struct
/// memory — so segment files are byte-portable across hosts. DecodeFrom
/// validates magic and version; the field-vs-store comparisons (record
/// size, schema hash, topology) stay with the shard, which knows what this
/// file is supposed to be.
struct SegmentHeader {
  static constexpr size_t kSize = 64;
  static constexpr uint32_t kFormatVersion = 1;
  static constexpr char kMagic[9] = "DPSYNCSG";  // 8 bytes on the wire

  uint32_t version = 0;
  uint32_t record_size = 0;
  uint64_t schema_hash = 0;
  uint64_t committed_count = 0;
  uint64_t nonce_high_water = 0;
  uint32_t shard_index = 0;
  uint32_t shard_count = 0;

  /// Writes magic + every field at its documented offset into
  /// `out[0, kSize)`; the reserved region is zeroed.
  void EncodeTo(uint8_t* out) const;

  /// Parses `in[0, kSize)`. Internal error on bad magic or an
  /// unsupported version.
  static StatusOr<SegmentHeader> DecodeFrom(const uint8_t* in,
                                            const std::string& path);
};

/// Append-only record storage for one shard. Writes are single-threaded;
/// reads (Get/Scan/Count/SizeBytes) are served from memory and are safe
/// from concurrent threads once writes are quiescent — that is what the
/// scan fan-out relies on.
class ShardLog {
 public:
  /// Shard `shard` of table `table`. Under StorageBackendKind::kSegmentLog
  /// the shard writes through to its segment file; if that file exists
  /// the constructor leaves it untouched and Reopen() attaches to it
  /// (WriteRun or Flush before Reopen on an existing file fails). A
  /// missing file is created with a fresh header on the first
  /// WriteRun/Flush.
  /// \param record_size the size every appended record must have
  /// \param schema_hash binds segment files to their table schema
  ShardLog(const StorageConfig& storage, const std::string& table, int shard,
           size_t record_size, uint64_t schema_hash);
  ~ShardLog();
  ShardLog(ShardLog&&) noexcept;

  /// Writes `run`, records of exactly the shard's record size in order,
  /// right after the records already stored: on a segment shard in one
  /// positioned write (one per MiB of a larger run), straight to the
  /// kernel. Nothing becomes readable here. A run that is written and
  /// never published sits past the stored records, where the next run
  /// overwrites it and Reopen discards it (reporting its nonces). A run
  /// with a record of the wrong size is refused before anything is
  /// written.
  Status WriteRun(const std::vector<Bytes>& run);

  /// Appends a run that WriteRun wrote to the in-memory record array,
  /// where Get/Scan/Count read it and the next Flush commits it.
  void PublishRun(std::vector<Bytes> run);

  /// Persists `nonce_high_water` as the segment header's mark, keeping the
  /// committed count the header names: nothing is committed. Reopen then
  /// restores the counter past every nonce below the mark, whichever tail
  /// records reached the file. A no-op on an in-memory shard, whose
  /// Reopen keeps every record.
  Status PersistMark(uint64_t nonce_high_water);

  /// Returns record `index` (0-based, in append order within this shard).
  StatusOr<Bytes> Get(int64_t index) const;

  /// Invokes `fn(index, record)` for every record in [begin, end) in
  /// order, stopping at the first non-OK return.
  Status Scan(int64_t begin, int64_t end,
              const std::function<Status(int64_t, const Bytes&)>& fn) const;

  /// Number of records currently stored.
  int64_t Count() const { return static_cast<int64_t>(records_.size()); }

  /// Bytes of record data currently stored (excluding the segment header —
  /// the outsourced payload the experiment metrics report).
  int64_t SizeBytes() const {
    return Count() * static_cast<int64_t>(record_size_);
  }

  /// What Reopen() recovered.
  struct ReopenInfo {
    /// The nonce high-water mark persisted by the last Flush.
    uint64_t nonce_high_water = 0;
    /// One past the highest nonce found in the discarded uncommitted tail
    /// (0 if there was no tail). The *caller* decides whether to advance
    /// the counter past it: tail bytes are attacker-writable, so the store
    /// cross-checks them against the table-wide tail volume before
    /// trusting them (see EncryptedTableStore::Reopen).
    uint64_t tail_nonce_bound = 0;
    /// Number of (whole) records the discarded tail held.
    uint64_t tail_records = 0;
    /// True if durable state from a previous incarnation was attached
    /// (lets the store distinguish "recovered table" from "fresh table"
    /// even when the recovered table is empty).
    bool attached_existing = false;
  };

  /// Commits all appended records and the caller's nonce high-water mark
  /// (durably, on a segment shard). Records appended after the last Flush
  /// are not guaranteed to survive Reopen.
  Status Flush(uint64_t nonce_high_water);

  /// Re-attaches to the durable state (simulating a restart). A segment
  /// shard reloads the committed prefix from its file, discards any
  /// uncommitted tail, and fails loudly if the persisted counter is
  /// behind the committed length — restoring it would reuse nonces. An
  /// in-memory shard has no file: process memory *is* the storage, so it
  /// keeps every appended record and reports the *last flushed* mark — a
  /// never-flushed shard reports a mark behind its length and the store
  /// fails loudly, same as for a tampered segment header.
  StatusOr<ReopenInfo> Reopen();

 private:
  class SegmentFile;  // shard_log.cc

  size_t record_size_;
  /// Every stored record, in append order. On a segment shard this is the
  /// write-through mirror of the file's records (Reopen rebuilds it).
  std::vector<Bytes> records_;
  /// The mark of the last Flush, which an in-memory shard's Reopen reports.
  uint64_t flushed_nonce_high_water_ = 0;
  /// The segment file; null on an in-memory shard.
  std::unique_ptr<SegmentFile> segment_;
};

}  // namespace dpsync::edb
