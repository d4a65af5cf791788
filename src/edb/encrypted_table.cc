#include "edb/encrypted_table.h"

#include <algorithm>

#include "common/parallel.h"
#include "common/thread_pool.h"

namespace dpsync::edb {

namespace {

/// Below this many pending records a scan stays on the calling thread —
/// fan-out overhead beats the decryption work for small deltas.
constexpr size_t kParallelScanThreshold = 4096;

/// Rows per enclave mirror chunk. Chunks reserve this capacity up front
/// and never reallocate, so row addresses stay stable for every
/// outstanding SnapshotView (see snapshot.h).
constexpr size_t kMirrorChunkRows = 4096;

uint64_t SchemaHash(const query::Schema& schema) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& f : schema.fields()) {
    h = Fnv1a64(reinterpret_cast<const uint8_t*>(f.name.data()),
                f.name.size(), h);
    uint8_t type_tag = static_cast<uint8_t>(f.type);
    h = Fnv1a64(&type_tag, 1, h);
  }
  return h;
}

}  // namespace

EncryptedTableStore::EncryptedTableStore(
    std::string name, query::Schema schema, Bytes key, StorageConfig storage,
    std::optional<oram::OramMirrorConfig> index)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      cipher_(std::move(key)),
      storage_(std::move(storage)),
      router_(std::max(1, storage_.num_shards)) {
  uint64_t schema_hash = SchemaHash(schema_);
  shards_.reserve(static_cast<size_t>(router_.num_shards()));
  for (int s = 0; s < router_.num_shards(); ++s) {
    shards_.emplace_back(storage_, name_, s,
                         crypto::RecordCipher::kCiphertextSize, schema_hash);
  }
  enclave_.resize(static_cast<size_t>(router_.num_shards()));
  dirty_.assign(static_cast<size_t>(router_.num_shards()), 0);
  committed_.assign(static_cast<size_t>(router_.num_shards()), 0);
  if (index) {
    mirror_ = std::make_unique<oram::OramMirror>(router_.num_shards(), *index);
  }
}

bool EncryptedTableStore::MarkCommitted(size_t shard, int64_t count) {
  if (committed_[shard] == count) return false;
  committed_[shard] = count;
  return true;
}

void EncryptedTableStore::AdvanceCommitEpoch() {
  int64_t total = 0;
  for (int64_t c : committed_) total += c;
  committed_total_.store(total, std::memory_order_release);
  commit_epoch_.fetch_add(1, std::memory_order_acq_rel);
}

Status EncryptedTableStore::AppendEncrypted(const std::vector<Record>& records,
                                            bool setup_batch) {
  // Check every payload before sealing any, so a refused batch consumes
  // no nonce and every nonce sealed reaches a segment file.
  for (const Record& r : records) {
    if (r.payload.size() > crypto::RecordCipher::kMaxPayloadSize) {
      return Status::InvalidArgument(
          "record payload exceeds fixed record size");
    }
  }
  std::vector<std::vector<Bytes>> runs(shards_.size());
  for (const Record& r : records) {
    auto ct = cipher_.Encrypt(r.payload);
    if (!ct.ok()) return ct.status();
    runs[static_cast<size_t>(router_.Route(r.payload))].push_back(
        std::move(ct.value()));
  }
  return StoreBatch(std::move(runs), setup_batch);
}

Status EncryptedTableStore::StoreBatch(std::vector<std::vector<Bytes>> runs,
                                       bool setup_batch) {
  // Nonces follow arrival order but the runs go out shard by shard, so a
  // death between two runs can leave a tail holding a nonce above one it
  // skipped, past Reopen's one-nonce-per-tail-record window. A batch with
  // more than one run therefore first persists the mark past all its
  // nonces in the header of its first shard. That shard is dirty, so the
  // commit rewrites the header with the same mark: committed files keep
  // their bytes, at one more positioned write per multi-shard batch.
  size_t first = 0;
  size_t touched = 0;
  for (size_t s = 0; s < runs.size(); ++s) {
    if (runs[s].empty()) continue;
    if (touched++ == 0) first = s;
  }
  if (touched > 1) {
    DPSYNC_RETURN_IF_ERROR(
        shards_[first].PersistMark(cipher_.nonce_high_water()));
  }
  // Every run reaches its file before any becomes readable: a batch whose
  // write fails publishes nothing, and the runs it did write sit past the
  // stored records, where later runs overwrite them and Reopen discards
  // what is left.
  for (size_t s = 0; s < runs.size(); ++s) {
    DPSYNC_RETURN_IF_ERROR(shards_[s].WriteRun(runs[s]));
  }
  std::vector<oram::OramMirror::Entry> indexed;
  for (size_t s = 0; s < runs.size(); ++s) {
    if (runs[s].empty()) continue;
    if (mirror_) {
      for (const Bytes& ct : runs[s]) {
        indexed.push_back({static_cast<int>(s), ct});
      }
    }
    shards_[s].PublishRun(std::move(runs[s]));
    dirty_[s] = 1;
  }
  if (setup_batch) setup_done_ = true;

  Status flushed;
  if (storage_.flush_every_update) {
    // Setup commits every shard so the table's full topology is
    // materialized on disk even for shards gamma_0 never touched;
    // steady-state updates only pay for the shards they wrote.
    flushed = FlushShards(/*all=*/setup_batch);
  }
  if (!mirror_) return flushed;
  // The batch is stored even if its flush failed, so the index takes it:
  // every tree keeps matching its shard. A mirror that failed once stays
  // failed: the store has records the index will never hold, so the
  // indexed contract is unrecoverable and every later operation reports
  // the original cause instead of a confusing secondary symptom.
  if (mirror_status_.ok()) {
    Status index = mirror_->Append(std::move(indexed));
    if (!index.ok()) {
      mirror_status_ = Status(
          index.code(),
          "oblivious index failed and is out of sync with the store (size "
          "the ORAM capacity with headroom for shard imbalance — "
          "docs/ORAM.md): " +
              index.message());
    }
  }
  return flushed.ok() ? mirror_status_ : flushed;
}

Status EncryptedTableStore::Setup(const std::vector<Record>& gamma0) {
  std::lock_guard<std::mutex> lk(table_mutex());
  if (setup_done_) return Status::FailedPrecondition("Setup already run");
  return AppendEncrypted(gamma0, /*setup_batch=*/true);
}

Status EncryptedTableStore::Update(const std::vector<Record>& gamma) {
  std::lock_guard<std::mutex> lk(table_mutex());
  if (!setup_done_) return Status::FailedPrecondition("Update before Setup");
  return AppendEncrypted(gamma, /*setup_batch=*/false);
}

Status EncryptedTableStore::IngestCiphertexts(std::vector<CipherEntry> entries,
                                              uint64_t nonce_high_water,
                                              bool setup_batch) {
  std::lock_guard<std::mutex> lk(table_mutex());
  if (setup_batch) {
    if (setup_done_) return Status::FailedPrecondition("Setup already run");
  } else {
    if (!setup_done_) return Status::FailedPrecondition("Update before Setup");
  }
  // Check every entry before the first write: a refused batch stores
  // nothing.
  for (const CipherEntry& e : entries) {
    if (e.shard >= shards_.size()) {
      return Status::OutOfRange("ingest entry routed to shard " +
                                std::to_string(e.shard) + " of " +
                                std::to_string(shards_.size()));
    }
    if (e.ciphertext.size() != crypto::RecordCipher::kCiphertextSize) {
      return Status::InvalidArgument("ingest ciphertext has wrong size");
    }
  }
  std::vector<std::vector<Bytes>> runs(shards_.size());
  for (CipherEntry& e : entries) {
    runs[e.shard].push_back(std::move(e.ciphertext));
  }
  // Track the global nonce stream before flushing so the persisted mark
  // is never behind the ciphertexts it covers. Never rewind: a stale
  // batch mark must not pull the counter back under already-stored
  // nonces.
  if (nonce_high_water > cipher_.nonce_high_water()) {
    DPSYNC_RETURN_IF_ERROR(cipher_.RestoreNonceHighWater(nonce_high_water));
  }
  return StoreBatch(std::move(runs), setup_batch);
}

int64_t EncryptedTableStore::outsourced_count() const {
  int64_t total = 0;
  for (const ShardLog& shard : shards_) total += shard.Count();
  return total;
}

int64_t EncryptedTableStore::outsourced_bytes() const {
  int64_t total = 0;
  for (const ShardLog& shard : shards_) total += shard.SizeBytes();
  return total;
}

Status EncryptedTableStore::Flush() {
  std::lock_guard<std::mutex> lk(table_mutex());
  return FlushShards(/*all=*/true);
}

Status EncryptedTableStore::FlushShards(bool all) {
  bool committed_grew = false;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (!all && !dirty_[s]) continue;
    DPSYNC_RETURN_IF_ERROR(shards_[s].Flush(cipher_.nonce_high_water()));
    dirty_[s] = 0;
    committed_grew |= MarkCommitted(s, shards_[s].Count());
  }
  // A flush that committed nothing new (idle table) keeps the epoch: an
  // unchanged epoch is the readers' license to keep reusing a snapshot —
  // and to keep answering from a materialized view stamped with it.
  if (committed_grew) {
    AdvanceCommitEpoch();
    DPSYNC_RETURN_IF_ERROR(FoldViews());
  }
  return Status::Ok();
}

Status EncryptedTableStore::Reopen() {
  std::lock_guard<std::mutex> lk(table_mutex());
  if (mirror_) {
    return Status::FailedPrecondition(
        "table " + name_ +
        " has an ORAM index, whose trees live in memory only: Reopen does "
        "not rebuild them");
  }
  // Drop the mirrors (fresh chunks will be decrypted on demand). Chunks
  // referenced by outstanding SnapshotViews stay alive through their
  // shared_ptrs — a pinned pre-Reopen scan finishes on pre-Reopen data.
  for (auto& mirror : enclave_) mirror = ShardMirror{};
  std::fill(dirty_.begin(), dirty_.end(), 0);

  uint64_t persisted = 0;
  uint64_t tail_bound = 0;
  uint64_t total_tail_records = 0;
  int64_t total = 0;
  bool attached_existing = false;
  for (size_t s = 0; s < shards_.size(); ++s) {
    auto info = shards_[s].Reopen();
    if (!info.ok()) return info.status();
    persisted = std::max(persisted, info.value().nonce_high_water);
    tail_bound = std::max(tail_bound, info.value().tail_nonce_bound);
    total_tail_records += info.value().tail_records;
    attached_existing |= info.value().attached_existing;
    total += shards_[s].Count();
  }
  // Every committed record consumed exactly one nonce, so the persisted
  // counter can never be behind the committed total. If it is, a header
  // was tampered with or commit ordering broke — resuming would reissue
  // nonces already bound to ciphertexts. Fail loudly.
  if (persisted < static_cast<uint64_t>(total)) {
    return Status::FailedPrecondition(
        "persisted nonce high-water mark (" + std::to_string(persisted) +
        ") is behind the committed record count (" + std::to_string(total) +
        ") for table " + name_);
  }
  // Discarded tails burned real nonces, so the restored counter must move
  // past them — but tail bytes are attacker-writable, so their claim is
  // only honored if it is plausible: the dead process consumed at most one
  // nonce per tail record beyond the newest persisted mark. An
  // out-of-range claim (e.g. a tampered prefix near 2^64 that would wrap
  // the counter back into reuse) is rejected loudly, like any other
  // tampering.
  if (tail_bound > persisted + total_tail_records) {
    return Status::FailedPrecondition(
        "uncommitted tail names nonce " + std::to_string(tail_bound - 1) +
        ", beyond the " + std::to_string(total_tail_records) +
        " nonces a real crash could have burned past mark " +
        std::to_string(persisted) + " — tampered tail for table " + name_);
  }
  persisted = std::max(persisted, tail_bound);
  // Restore, but never rewind: an in-process reopen keeps the live counter,
  // which may already be past the mark (encrypt-then-crash-before-flush).
  if (persisted > cipher_.nonce_high_water()) {
    DPSYNC_RETURN_IF_ERROR(cipher_.RestoreNonceHighWater(persisted));
  }
  // Recovered durable state implies Setup ran in some incarnation (even if
  // gamma_0 was empty — the files only exist because the first commit
  // happened); without it, keep whatever this instance already knew.
  setup_done_ = setup_done_ || attached_existing || total > 0;
  // Everything recovered is by definition committed (uncommitted tails
  // were truncated above), and the visibility regime changed: advance the
  // epoch unconditionally so no pre-Reopen snapshot is mistaken for
  // current.
  for (size_t s = 0; s < shards_.size(); ++s) {
    MarkCommitted(s, shards_[s].Count());
  }
  AdvanceCommitEpoch();
  // Reopen advanced the epoch WITHOUT committing new rows, and the
  // recovered prefix (truncated tails) need not be the pre-Reopen
  // prefix. A view that treated "epoch advanced" as
  // "delta to fold" would serve stale or double-folded state — so views
  // invalidate here and rebuild lazily: the next commit fold re-folds the
  // whole committed prefix from row zero, and until then every query
  // falls back to the snapshot-scan path.
  views_.InvalidateAll();
  return Status::Ok();
}

Status EncryptedTableStore::CatchUpShard(int shard) {
  ShardMirror& mirror = enclave_[static_cast<size_t>(shard)];
  const ShardLog& log = shards_[static_cast<size_t>(shard)];
  return log.Scan(
      static_cast<int64_t>(mirror.rows), log.Count(),
      [&](int64_t, const Bytes& ct) -> Status {
        auto payload = cipher_.Decrypt(ct);
        if (!payload.ok()) return payload.status();
        auto row = query::DeserializeRow(payload.value());
        if (!row.ok()) return row.status();
        // Append into the open chunk; roll a fresh one when full. Chunks
        // never reallocate (RowChunk::Append enforces the capacity bound
        // instead of trusting this site), so rows already inside an
        // outstanding SnapshotView's bounds never move.
        if (mirror.chunks.empty() || mirror.chunks.back()->full()) {
          // The schema gives each chunk a columnar projection of the same
          // rows; the vectorized scan path folds those arrays directly.
          mirror.chunks.push_back(
              std::make_shared<RowChunk>(kMirrorChunkRows, &schema_));
        }
        DPSYNC_RETURN_IF_ERROR(
            mirror.chunks.back()->Append(std::move(row.value())));
        ++mirror.rows;
        return Status::Ok();
      });
}

Status EncryptedTableStore::CatchUpAllShards() {
  size_t pending = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    pending += static_cast<size_t>(shards_[s].Count()) - enclave_[s].rows;
  }
  if (pending >= kParallelScanThreshold && shards_.size() > 1) {
    // Fan the per-shard catch-up across the pool: shards touch disjoint
    // mirrors, so the only coordination is the final status reduction
    // (first failing shard wins, deterministically).
    return ParallelShardStatus(
        shards_.size(),
        [&](size_t s) { return CatchUpShard(static_cast<int>(s)); });
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    DPSYNC_RETURN_IF_ERROR(CatchUpShard(static_cast<int>(s)));
  }
  return Status::Ok();
}

SnapshotView EncryptedTableStore::CaptureView() const {
  SnapshotView view;
  view.epoch = commit_epoch();
  view.shard_rows.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    const ShardMirror& mirror = enclave_[s];
    size_t visible = static_cast<size_t>(committed_[s]);
    view.shard_rows.push_back(static_cast<int64_t>(visible));
    view.total_rows += static_cast<int64_t>(visible);
    for (const auto& chunk : mirror.chunks) {
      if (visible == 0) break;
      size_t take = std::min(visible, chunk->rows.size());
      query::RowSpan span;
      span.data = chunk->rows.data();
      span.size = take;
      // Freeze the columnar projection's raw pointers alongside the row
      // pointer, under the same table mutex: both obey the never-moves
      // rule, and readers stay inside [0, take) of either representation.
      if (chunk->columns) span.columns = chunk->columns->CaptureSpans(take);
      view.spans.push_back(std::move(span));
      view.retained.push_back(chunk);
      visible -= take;
    }
  }
  return view;
}

ViewRowSource EncryptedTableStore::MirrorRowSource() const {
  return [this](size_t shard, int64_t begin, int64_t end,
                const ViewRowVisitor& fn) {
    const ShardMirror& mirror = enclave_[shard];
    for (int64_t i = begin; i < end; ++i) {
      const auto& chunk =
          mirror.chunks[static_cast<size_t>(i) / kMirrorChunkRows];
      fn(chunk->rows[static_cast<size_t>(i) % kMirrorChunkRows]);
    }
  };
}

Status EncryptedTableStore::FoldViews() {
  if (views_.size() == 0) return Status::Ok();
  // O(delta) decrypt: the mirrors catch up to the rows this flush just
  // committed, then each view folds only its un-folded suffix.
  DPSYNC_RETURN_IF_ERROR(CatchUpAllShards());
  views_.FoldAll(schema_, committed_, commit_epoch(), MirrorRowSource());
  return Status::Ok();
}

Status EncryptedTableStore::RegisterView(
    std::shared_ptr<const query::QueryPlan> plan) {
  std::lock_guard<std::mutex> lk(table_mutex());
  if (mirror_) {
    return Status::FailedPrecondition(
        "table " + name_ +
        " has an ORAM index: every scan must pay its oblivious touches, so "
        "it keeps no views");
  }
  DPSYNC_RETURN_IF_ERROR(CatchUpAllShards());
  views_.Register(std::move(plan), schema_, committed_, commit_epoch(),
                  MirrorRowSource());
  return Status::Ok();
}

std::optional<EncryptedTableStore::ViewAnswer>
EncryptedTableStore::TryViewAnswer(uint64_t fingerprint,
                                   const std::string& canonical_text) {
  std::lock_guard<std::mutex> lk(table_mutex());
  auto result = views_.Answer(fingerprint, canonical_text, commit_epoch());
  if (!result.has_value()) return std::nullopt;
  return ViewAnswer{std::move(result.value()),
                    committed_total_.load(std::memory_order_acquire)};
}

size_t EncryptedTableStore::registered_views() {
  std::lock_guard<std::mutex> lk(table_mutex());
  return views_.size();
}

StatusOr<SnapshotView> EncryptedTableStore::Snapshot() {
  oram::OramTouchCost touched;
  if (mirror_) {
    // Indexed mode: every mirrored record pays its oblivious path access.
    DPSYNC_RETURN_IF_ERROR(mirror_status_);
    auto cost = mirror_->TouchAll();
    if (!cost.ok()) return cost.status();
    touched = cost.value();
  }
  // Both storage methods then catch up fully (cheap — O(delta) decrypt)
  // and clip the view to the committed counts; any uncommitted tail rows
  // sit beyond every span bound, invisible to the snapshot's readers.
  DPSYNC_RETURN_IF_ERROR(CatchUpAllShards());
  SnapshotView view = CaptureView();
  view.oram = touched;
  return view;
}

StatusOr<std::vector<query::Row>> EncryptedTableStore::DecryptAll() const {
  auto cts = ciphertexts();
  if (!cts.ok()) return cts.status();
  const size_t n = cts->size();
  std::vector<query::Row> rows(n);
  size_t max_chunks = n >= kParallelScanThreshold
                          ? SharedPool()->num_threads()
                          : size_t{1};
  std::vector<Status> statuses(std::max<size_t>(1, max_chunks));
  SharedPool()->ParallelFor(n, max_chunks,
                            [&](size_t chunk, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      auto payload = cipher_.Decrypt((*cts)[i]);
      if (!payload.ok()) {
        statuses[chunk] = payload.status();
        return;
      }
      auto row = query::DeserializeRow(payload.value());
      if (!row.ok()) {
        statuses[chunk] = row.status();
        return;
      }
      rows[i] = std::move(row.value());
    }
  });
  for (const auto& st : statuses) DPSYNC_RETURN_IF_ERROR(st);
  return rows;
}

StatusOr<std::vector<Bytes>> EncryptedTableStore::ciphertexts() const {
  std::vector<Bytes> out;
  out.reserve(static_cast<size_t>(outsourced_count()));
  for (const ShardLog& shard : shards_) {
    DPSYNC_RETURN_IF_ERROR(
        shard.Scan(0, shard.Count(), [&](int64_t, const Bytes& ct) -> Status {
          out.push_back(ct);
          return Status::Ok();
        }));
  }
  return out;
}

}  // namespace dpsync::edb
