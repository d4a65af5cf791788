#include "spans.h"

#include <fstream>

#include "common/shard_router.h"

namespace perfbench {

bool WriteSpansCsv(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  out << "id,parent,name,start_ns,end_ns\n";
  for (const Span& s : spans) {
    out << s.id << ',' << s.parent << ',' << s.name << ',' << s.start_ns << ','
        << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

TimingBackend::TimingBackend(dpsync::edb::EdbTable* inner, OwnerContext* ctx,
                             int ranks, int global_shards)
    : inner_(inner), ctx_(ctx), global_shards_(global_shards) {
  log_.ranks = ranks;
}

dpsync::Status TimingBackend::Setup(const std::vector<dpsync::Record>& gamma0) {
  return Forward(gamma0, /*setup=*/true);
}

dpsync::Status TimingBackend::Update(const std::vector<dpsync::Record>& gamma) {
  return Forward(gamma, /*setup=*/false);
}

dpsync::Status TimingBackend::Forward(const std::vector<dpsync::Record>& batch,
                                      bool setup) {
  SpanRecorder* rec = ctx_->recorder;
  const uint64_t id = rec ? rec->NextId() : 0;
  const int64_t start = rec ? NowNs() : 0;
  commits_started_.fetch_add(1, std::memory_order_acq_rel);
  dpsync::Status status = setup ? inner_->Setup(batch) : inner_->Update(batch);
  if (status.ok()) commits_done_.fetch_add(1, std::memory_order_acq_rel);
  if (rec) {
    rec->Record({id, ctx_->tick_span.load(std::memory_order_acquire),
                 "edb.update", start, NowNs()});
  }
  if (!status.ok()) return status;
  // Oracle bookkeeping, after the timed call.
  const size_t ranks = static_cast<size_t>(log_.ranks);
  if (ranks > 1) log_.rank_records.resize(log_.rank_records.size() + ranks, 0);
  const dpsync::ShardRouter router(global_shards_);
  for (const auto& r : batch) {
    size_t rank = 0;
    if (ranks > 1) {
      // The coordinator's placement: global shard by payload hash, rank k
      // owning shards [S*k/K, S*(k+1)/K).
      const auto shard = static_cast<size_t>(router.Route(r.payload));
      const auto shards = static_cast<size_t>(global_shards_);
      while (shards * (rank + 1) / ranks <= shard) ++rank;
      ++log_.rank_records[log_.rank_records.size() - ranks + rank];
    }
    if (r.is_dummy) continue;
    log_.real_times.push_back(r.arrival_time);
    if (ranks > 1) log_.real_rank.push_back(static_cast<uint8_t>(rank));
    log_.user_bytes += static_cast<int64_t>(r.payload.size());
  }
  log_.outsourced_after.push_back(inner_->outsourced_count());
  log_.real_end.push_back(log_.real_times.size());
  log_.records_posted += static_cast<int64_t>(batch.size());
  if (setup) {
    log_.setup_records += static_cast<int64_t>(batch.size());
  } else {
    ++log_.updates;
  }
  return status;
}

}  // namespace perfbench
