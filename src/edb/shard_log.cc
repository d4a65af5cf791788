#include "edb/shard_log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <system_error>

namespace dpsync::edb {

namespace fs = std::filesystem;

namespace {

Status IoError(const std::string& op, const std::string& path) {
  return Status::Internal("segment log " + op + " failed for " + path + ": " +
                          std::strerror(errno));
}

}  // namespace

std::string StorageBackendKindName(StorageBackendKind kind) {
  switch (kind) {
    case StorageBackendKind::kInMemory:
      return "memory";
    case StorageBackendKind::kSegmentLog:
      return "segment-log";
  }
  return "?";
}

void SegmentHeader::EncodeTo(uint8_t* out) const {
  std::memset(out, 0, kSize);
  std::memcpy(out, kMagic, 8);
  StoreLE32(out + 8, version);
  StoreLE32(out + 12, record_size);
  StoreLE64(out + 16, schema_hash);
  StoreLE64(out + 24, committed_count);
  StoreLE64(out + 32, nonce_high_water);
  StoreLE32(out + 40, shard_index);
  StoreLE32(out + 44, shard_count);
}

StatusOr<SegmentHeader> SegmentHeader::DecodeFrom(const uint8_t* in,
                                                  const std::string& path) {
  if (std::memcmp(in, kMagic, 8) != 0) {
    return Status::Internal("bad segment magic: " + path);
  }
  SegmentHeader h;
  h.version = LoadLE32(in + 8);
  if (h.version != kFormatVersion) {
    return Status::Internal("unsupported segment version: " + path);
  }
  h.record_size = LoadLE32(in + 12);
  h.schema_hash = LoadLE64(in + 16);
  h.committed_count = LoadLE64(in + 24);
  h.nonce_high_water = LoadLE64(in + 32);
  h.shard_index = LoadLE32(in + 40);
  h.shard_count = LoadLE32(in + 44);
  return h;
}

/// The segment file behind a kSegmentLog shard: one positioned write per
/// run and per header rewrite (every commit, and the mark a multi-shard
/// batch persists before its runs), and Reopen's validation and tail
/// walk. The records themselves live in the owning ShardLog.
class ShardLog::SegmentFile {
 public:
  SegmentFile(std::string path, size_t record_size, uint64_t schema_hash,
              uint32_t shard_index, uint32_t shard_count, bool fsync_on_flush)
      : path_(std::move(path)),
        record_size_(record_size),
        schema_hash_(schema_hash),
        shard_index_(shard_index),
        shard_count_(shard_count),
        fsync_on_flush_(fsync_on_flush) {}
  ~SegmentFile() { Close(); }
  SegmentFile(const SegmentFile&) = delete;
  SegmentFile& operator=(const SegmentFile&) = delete;

  /// Writes `run` as the shard's records `first_index`, `first_index + 1`,
  /// ... — one positioned write per RecordsPerIo() records.
  Status WriteRun(const std::vector<Bytes>& run, uint64_t first_index);
  /// Rewrites the header to name `committed_count` records and the mark.
  Status Commit(uint64_t committed_count, uint64_t nonce_high_water);
  /// Rewrites the header with the committed count it already names and
  /// the new mark.
  Status PersistMark(uint64_t nonce_high_water);
  /// Re-attaches to the file, loading its committed records into
  /// `records` (which the caller cleared).
  StatusOr<ReopenInfo> Reopen(std::vector<Bytes>* records);

 private:
  Status Create();
  /// Reopen's body on the freshly opened descriptor.
  StatusOr<ReopenInfo> Attach(std::vector<Bytes>* records);
  Status WriteHeader(uint64_t committed_count, uint64_t nonce_high_water);
  /// One pwrite/pread of exactly `size` bytes at `offset`; a short or
  /// failed transfer is an Internal error naming `op`.
  Status WriteAt(const uint8_t* data, size_t size, uint64_t offset,
                 const char* op);
  Status ReadAt(uint8_t* data, size_t size, uint64_t offset, const char* op);
  void Close();
  /// Records per positioned transfer: WriteRun and Attach move about
  /// 1 MiB at a time, so neither pays a syscall per record.
  size_t RecordsPerIo() const {
    return std::max<size_t>(1, (size_t{1} << 20) / record_size_);
  }

  /// Empty when the table has no StorageConfig::dir.
  std::string path_;
  size_t record_size_;
  uint64_t schema_hash_;
  uint32_t shard_index_;
  uint32_t shard_count_;
  bool fsync_on_flush_;
  /// Descriptor for appends and header rewrites, held for the shard's
  /// lifetime once the file is known to exist with a valid header
  /// (per-record open/close would dominate segment wall time under
  /// flush_every_update). -1 until then.
  int fd_ = -1;
  /// The committed count the header on the file names.
  uint64_t header_committed_ = 0;
};

Status ShardLog::SegmentFile::WriteAt(const uint8_t* data, size_t size,
                                      uint64_t offset, const char* op) {
  if (::pwrite(fd_, data, size, static_cast<off_t>(offset)) !=
      static_cast<ssize_t>(size)) {
    return IoError(op, path_);
  }
  return Status::Ok();
}

Status ShardLog::SegmentFile::ReadAt(uint8_t* data, size_t size,
                                     uint64_t offset, const char* op) {
  if (::pread(fd_, data, size, static_cast<off_t>(offset)) !=
      static_cast<ssize_t>(size)) {
    return IoError(op, path_);
  }
  return Status::Ok();
}

void ShardLog::SegmentFile::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

Status ShardLog::SegmentFile::WriteHeader(uint64_t committed_count,
                                          uint64_t nonce_high_water) {
  SegmentHeader h;
  h.version = SegmentHeader::kFormatVersion;
  h.record_size = static_cast<uint32_t>(record_size_);
  h.schema_hash = schema_hash_;
  h.committed_count = committed_count;
  h.nonce_high_water = nonce_high_water;
  h.shard_index = shard_index_;
  h.shard_count = shard_count_;
  uint8_t header[SegmentHeader::kSize];
  h.EncodeTo(header);
  DPSYNC_RETURN_IF_ERROR(
      WriteAt(header, SegmentHeader::kSize, 0, "header write"));
  header_committed_ = committed_count;
  if (fsync_on_flush_ && ::fsync(fd_) != 0) return IoError("fsync", path_);
  return Status::Ok();
}

Status ShardLog::SegmentFile::Create() {
  // The only place a segment file comes into being, so the one place a
  // missing directory is refused — before any file-system call.
  if (path_.empty()) {
    return Status::InvalidArgument(
        "segment-log storage requires StorageConfig.dir");
  }
  std::error_code ec;
  fs::path p(path_);
  if (p.has_parent_path()) {
    fs::create_directories(p.parent_path(), ec);
    if (ec) {
      return Status::Internal("cannot create segment directory " +
                              p.parent_path().string() + ": " + ec.message());
    }
  }
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
  if (fd_ < 0) {
    // A pre-existing file may hold committed records and a nonce mark
    // this instance knows nothing about; silently appending to it could
    // reuse nonces. The caller must Reopen() first.
    if (errno == EEXIST) {
      return Status::FailedPrecondition(
          "segment file already exists; Reopen() before writing: " + path_);
    }
    return IoError("create", path_);
  }
  Status st = WriteHeader(0, 0);
  if (!st.ok()) Close();
  return st;
}

Status ShardLog::SegmentFile::WriteRun(const std::vector<Bytes>& run,
                                       uint64_t first_index) {
  if (fd_ < 0) DPSYNC_RETURN_IF_ERROR(Create());
  // Straight to the kernel before the records become readable, with no
  // buffer kept across calls: the crash model is process death, and a
  // record stranded in a buffer would vanish with the process *after* its
  // nonce was consumed — Reopen's tail walk can only recover nonces that
  // reached the file.
  const size_t per_write = RecordsPerIo();
  Bytes block;
  for (size_t first = 0; first < run.size(); first += per_write) {
    const size_t n = std::min(per_write, run.size() - first);
    block.resize(n * record_size_);
    for (size_t i = 0; i < n; ++i) {
      std::memcpy(block.data() + i * record_size_, run[first + i].data(),
                  record_size_);
    }
    DPSYNC_RETURN_IF_ERROR(
        WriteAt(block.data(), block.size(),
                SegmentHeader::kSize + (first_index + first) * record_size_,
                "append"));
  }
  return Status::Ok();
}

Status ShardLog::SegmentFile::Commit(uint64_t committed_count,
                                     uint64_t nonce_high_water) {
  if (fd_ < 0) DPSYNC_RETURN_IF_ERROR(Create());
  return WriteHeader(committed_count, nonce_high_water);
}

Status ShardLog::SegmentFile::PersistMark(uint64_t nonce_high_water) {
  return Commit(header_committed_, nonce_high_water);
}

StatusOr<ShardLog::ReopenInfo> ShardLog::SegmentFile::Reopen(
    std::vector<Bytes>* records) {
  Close();

  std::error_code ec;
  if (path_.empty() || !fs::exists(path_, ec)) {
    // Nothing persisted yet: attach fresh. Create writes a zero header (or
    // refuses a table without a directory).
    DPSYNC_RETURN_IF_ERROR(Create());
    return ReopenInfo{};  // zero marks, no tail, attached_existing=false
  }
  fd_ = ::open(path_.c_str(), O_RDWR | O_CLOEXEC);
  if (fd_ < 0) return IoError("open", path_);
  auto info = Attach(records);
  // A file that failed validation stays detached, so the next write
  // refuses it instead of appending to it.
  if (!info.ok()) Close();
  return info;
}

StatusOr<ShardLog::ReopenInfo> ShardLog::SegmentFile::Attach(
    std::vector<Bytes>* records) {
  struct stat st;
  if (::fstat(fd_, &st) != 0) return IoError("stat", path_);
  const auto file_size = static_cast<uint64_t>(st.st_size);
  if (file_size < SegmentHeader::kSize) {
    return Status::Internal("segment file truncated below header: " + path_);
  }

  uint8_t header[SegmentHeader::kSize];
  DPSYNC_RETURN_IF_ERROR(
      ReadAt(header, SegmentHeader::kSize, 0, "header read"));
  auto decoded = SegmentHeader::DecodeFrom(header, path_);
  if (!decoded.ok()) return decoded.status();
  const SegmentHeader& h = decoded.value();
  if (h.record_size != record_size_) {
    return Status::Internal("segment record size mismatch: " + path_);
  }
  if (h.schema_hash != schema_hash_) {
    return Status::Internal(
        "segment schema hash mismatch (file belongs to another table "
        "layout): " +
        path_);
  }
  // Topology check: a shard-count mismatch means this configuration
  // would silently never read some committed shard files (or interleave
  // two topologies in one directory). Refuse rather than lose data.
  if (h.shard_index != shard_index_ || h.shard_count != shard_count_) {
    return Status::FailedPrecondition(
        "segment shard topology mismatch (file is shard " +
        std::to_string(h.shard_index) + "/" + std::to_string(h.shard_count) +
        ", store expects " + std::to_string(shard_index_) + "/" +
        std::to_string(shard_count_) + "): " + path_);
  }
  const uint64_t committed = h.committed_count;

  // Divide the file, never multiply the count: a tampered count times
  // the record size can wrap to a small product and pass this check.
  if (committed > (file_size - SegmentHeader::kSize) / record_size_) {
    return Status::Internal(
        "segment shorter than its committed record count: " + path_);
  }
  // The paper-level invariant: every committed record consumed one nonce,
  // so a persisted counter behind the committed length means the header
  // was tampered with or the flush ordering broke — re-encrypting from
  // such a counter would reuse nonces. Fail loudly, never "repair".
  if (h.nonce_high_water < committed) {
    return Status::FailedPrecondition(
        "persisted nonce high-water mark is behind the committed segment "
        "length (would reuse nonces): " +
        path_);
  }

  header_committed_ = committed;
  // Load the committed prefix RecordsPerIo() records at a time.
  const uint64_t per_read = RecordsPerIo();
  Bytes block;
  records->reserve(committed);
  for (uint64_t first = 0; first < committed; first += per_read) {
    const uint64_t n = std::min(per_read, committed - first);
    block.resize(n * record_size_);
    DPSYNC_RETURN_IF_ERROR(ReadAt(block.data(), block.size(),
                                  SegmentHeader::kSize + first * record_size_,
                                  "record read"));
    for (uint64_t i = 0; i < n; ++i) {
      const uint8_t* record = block.data() + i * record_size_;
      records->emplace_back(record, record + record_size_);
    }
  }

  // The uncommitted tail is about to be discarded, but the dead process
  // already *consumed* a nonce per tail record — and the server saw the
  // bytes. Each record leads with its nonce counter (wire format:
  // nonce || ct || tag), so walk the tail and report every nonce it
  // managed to write. Only *report*: tail bytes are attacker-writable
  // (a tampered prefix could name a nonce near 2^64 and wrap the
  // counter into reuse), so the store validates the reported bound
  // against the table-wide tail volume before restoring from it. A torn
  // fragment shorter than the 8 counter bytes never carried keystream
  // under its nonce and reports nothing.
  const uint64_t keep = SegmentHeader::kSize + committed * record_size_;
  uint64_t tail_nonce_bound = 0;
  uint64_t tail_records = 0;
  for (uint64_t offset = keep; offset + 8 <= file_size;
       offset += record_size_) {
    uint8_t prefix[8];
    DPSYNC_RETURN_IF_ERROR(ReadAt(prefix, 8, offset, "tail read"));
    tail_nonce_bound = std::max(tail_nonce_bound, LoadLE64(prefix) + 1);
    ++tail_records;
  }

  // Truncate the tail so the file and the restored state agree.
  if (file_size > keep && ::ftruncate(fd_, static_cast<off_t>(keep)) != 0) {
    return Status::Internal("cannot truncate uncommitted tail of " + path_ +
                            ": " + std::strerror(errno));
  }
  return ReopenInfo{h.nonce_high_water, tail_nonce_bound, tail_records,
                    /*attached_existing=*/true};
}

ShardLog::ShardLog(const StorageConfig& storage, const std::string& table,
                   int shard, size_t record_size, uint64_t schema_hash)
    : record_size_(record_size) {
  if (storage.backend != StorageBackendKind::kSegmentLog) return;
  // Without a directory the path stays empty, and the first write fails.
  std::string path;
  if (!storage.dir.empty()) {
    path = storage.dir + "/" + table + "/" + std::to_string(shard) + ".seg";
  }
  segment_ = std::make_unique<SegmentFile>(
      std::move(path), record_size, schema_hash, static_cast<uint32_t>(shard),
      static_cast<uint32_t>(std::max(1, storage.num_shards)),
      storage.fsync_data);
}

ShardLog::~ShardLog() = default;
ShardLog::ShardLog(ShardLog&&) noexcept = default;

Status ShardLog::WriteRun(const std::vector<Bytes>& run) {
  for (const Bytes& record : run) {
    if (record.size() != record_size_) {
      return Status::InvalidArgument("shard record has wrong size");
    }
  }
  if (!segment_ || run.empty()) return Status::Ok();
  return segment_->WriteRun(run, static_cast<uint64_t>(records_.size()));
}

void ShardLog::PublishRun(std::vector<Bytes> run) {
  records_.insert(records_.end(), std::make_move_iterator(run.begin()),
                  std::make_move_iterator(run.end()));
}

StatusOr<Bytes> ShardLog::Get(int64_t index) const {
  if (index < 0 || index >= Count()) {
    return Status::OutOfRange("shard record index out of range");
  }
  return records_[static_cast<size_t>(index)];
}

Status ShardLog::Scan(
    int64_t begin, int64_t end,
    const std::function<Status(int64_t, const Bytes&)>& fn) const {
  if (begin < 0 || end > Count() || begin > end) {
    return Status::OutOfRange("shard scan range out of range");
  }
  for (int64_t i = begin; i < end; ++i) {
    DPSYNC_RETURN_IF_ERROR(fn(i, records_[static_cast<size_t>(i)]));
  }
  return Status::Ok();
}

Status ShardLog::Flush(uint64_t nonce_high_water) {
  if (segment_) {
    DPSYNC_RETURN_IF_ERROR(segment_->Commit(
        static_cast<uint64_t>(records_.size()), nonce_high_water));
  }
  flushed_nonce_high_water_ = nonce_high_water;
  return Status::Ok();
}

Status ShardLog::PersistMark(uint64_t nonce_high_water) {
  if (!segment_) return Status::Ok();
  return segment_->PersistMark(nonce_high_water);
}

StatusOr<ShardLog::ReopenInfo> ShardLog::Reopen() {
  if (segment_) {
    records_.clear();
    return segment_->Reopen(&records_);
  }
  // No file: every append survives "reopen" and the committed prefix is
  // everything. The persisted mark is whatever the last Flush recorded.
  // Nothing pre-existing is ever *attached* (the caller's own state is the
  // truth), so attached_existing stays false.
  return ReopenInfo{flushed_nonce_high_water_, /*tail_nonce_bound=*/0,
                    /*tail_records=*/0, /*attached_existing=*/false};
}

}  // namespace dpsync::edb
