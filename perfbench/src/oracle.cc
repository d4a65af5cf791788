#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>

#include "query/executor.h"
#include "query/parser.h"

namespace perfbench {

using dpsync::workload::TripRecord;

namespace {

constexpr int64_t kZones = 265;
constexpr int64_t kQ1Lo = 50, kQ1Hi = 100;

/// Per-pickup-zone aggregates of a committed prefix. Every shape the
/// workloads issue is a range or group over pickupID, so these answer all
/// of them exactly.
struct ZoneState {
  std::vector<int64_t> count = std::vector<int64_t>(kZones + 1, 0);
  std::vector<int64_t> sum_dropoff = std::vector<int64_t>(kZones + 1, 0);
  std::vector<double> min_fare = std::vector<double>(kZones + 1, 0);
  std::vector<double> max_fare = std::vector<double>(kZones + 1, 0);

  void Add(const TripRecord& r) {
    const auto z = static_cast<size_t>(r.pickup_id);
    if (count[z] == 0 || r.fare < min_fare[z]) min_fare[z] = r.fare;
    if (count[z] == 0 || r.fare > max_fare[z]) max_fare[z] = r.fare;
    ++count[z];
    sum_dropoff[z] += r.dropoff_id;
  }
};

/// Equi-join count on pickTime between the two committed prefixes.
struct JoinState {
  std::vector<uint32_t> yellow_at, green_at;
  int64_t pairs = 0;

  static void Bump(std::vector<uint32_t>* at, int64_t t) {
    if (static_cast<size_t>(t) >= at->size()) at->resize(t * 2 + 1, 0);
    ++(*at)[static_cast<size_t>(t)];
  }
  static uint32_t At(const std::vector<uint32_t>& at, int64_t t) {
    return static_cast<size_t>(t) < at.size() ? at[static_cast<size_t>(t)] : 0;
  }
  void AddYellow(int64_t t) {
    pairs += At(green_at, t);
    Bump(&yellow_at, t);
  }
  void AddGreen(int64_t t) {
    pairs += At(yellow_at, t);
    Bump(&green_at, t);
  }
};

struct Expected {
  double scalar = 0;
  uint64_t group_hash = 0;
};

Expected Evaluate(const Request& r, const ZoneState& z, const JoinState& j) {
  Expected e;
  const int64_t lo = std::max<int64_t>(r.lo, 1);
  const int64_t hi = std::min<int64_t>(r.hi, kZones);
  switch (r.shape) {
    case Shape::kQ1:
      for (int64_t k = kQ1Lo; k <= kQ1Hi; ++k) e.scalar += z.count[k];
      break;
    case Shape::kQ2: {
      GroupHasher h;
      for (int64_t k = 1; k <= kZones; ++k) {
        if (z.count[k] > 0) h.Add(k, static_cast<double>(z.count[k]));
      }
      e.group_hash = h.hash();
      break;
    }
    case Shape::kFilteredSum: {
      int64_t sum = 0;
      for (int64_t k = lo; k <= hi; ++k) sum += z.sum_dropoff[k];
      e.scalar = static_cast<double>(sum);
      break;
    }
    case Shape::kMin:
    case Shape::kMax: {
      bool seen = false;
      for (int64_t k = lo; k <= hi; ++k) {
        if (z.count[k] == 0) continue;
        const double v = r.shape == Shape::kMin ? z.min_fare[k] : z.max_fare[k];
        if (!seen || (r.shape == Shape::kMin ? v < e.scalar : v > e.scalar)) {
          e.scalar = v;
        }
        seen = true;
      }
      break;
    }
    case Shape::kQ3:
      e.scalar = static_cast<double>(j.pairs);
      break;
  }
  return e;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

/// A commit in [lo, hi] whose post-update count is `rows`, or -1 (commits
/// with equal counts name the same rows).
int64_t FindCommit(const CommitLog& log, int64_t rows, int64_t lo,
                   int64_t hi) {
  const auto& v = log.outsourced_after;
  lo = std::max<int64_t>(lo, 0);
  hi = std::min<int64_t>(hi, static_cast<int64_t>(v.size()) - 1);
  for (int64_t k = lo; k <= hi; ++k) {
    if (v[static_cast<size_t>(k)] == rows) return k;
  }
  return -1;
}

/// A committed state a read may have seen: every rank at commit `base`,
/// and — distributed tables only — rank `ahead_rank` further on, at commit
/// `ahead` (-1: no rank ahead).
struct View {
  int64_t base = -1;
  int64_t ahead = -1;
  size_t ahead_rank = 0;
};

/// Every committed state within the request's commit window whose
/// outsourced count is its `records_scanned`. Single-process tables commit
/// atomically, so that is one commit. Distributed ranks commit
/// independently and a scatter-gather read may reach the two ranks at
/// different commits of the window (an RPC can queue behind another on its
/// channel), so every pair of per-rank commits in the window is a state.
std::vector<View> ViewsWithCount(const CommitLog& log,
                                 const std::vector<std::vector<int64_t>>& cum,
                                 const Request& r) {
  std::vector<View> views;
  if (log.ranks != 2) {
    const int64_t k = FindCommit(log, r.records_scanned, r.commit_lo, r.commit_hi);
    if (k >= 0) views.push_back({k});
    return views;
  }
  const int64_t lo = std::max<int64_t>(r.commit_lo, 0);
  const int64_t hi =
      std::min<int64_t>(r.commit_hi, static_cast<int64_t>(cum[0].size()) - 1);
  std::vector<std::pair<int64_t, int64_t>> seen;  // per-rank counts
  for (int64_t k0 = lo; k0 <= hi; ++k0) {
    for (int64_t k1 = lo; k1 <= hi; ++k1) {
      const int64_t c0 = cum[0][static_cast<size_t>(k0)];
      const int64_t c1 = cum[1][static_cast<size_t>(k1)];
      if (c0 + c1 != r.records_scanned) continue;
      if (std::find(seen.begin(), seen.end(), std::make_pair(c0, c1)) != seen.end()) {
        continue;  // equal per-rank counts name the same rows
      }
      seen.emplace_back(c0, c1);
      if (k0 == k1) {
        views.push_back({k0});
      } else {
        views.push_back({std::min(k0, k1), std::max(k0, k1), k0 > k1 ? 0u : 1u});
      }
    }
  }
  return views;
}

/// L1 distance between a committed answer and the answer over the rows
/// received by issue time. Committed: the logical prefix [0, a) plus the
/// `partial` rows; received: the prefix [0, b). Both share the shorter
/// prefix, so only the rows between them (and the partial rows) differ.
double L1ToReceived(Shape shape, const std::vector<TripRecord>& rows, size_t a,
                    const std::vector<size_t>& partial, size_t b) {
  std::map<int64_t, int64_t> diff;  // committed - received, per zone
  for (size_t i : partial) ++diff[rows[i].pickup_id];
  if (b >= a) {
    for (size_t i = a; i < b; ++i) --diff[rows[i].pickup_id];
  } else {
    for (size_t i = b; i < a; ++i) ++diff[rows[i].pickup_id];
  }
  int64_t l1 = 0;
  for (const auto& [zone, d] : diff) {
    if (shape == Shape::kQ2) {
      l1 += d < 0 ? -d : d;
    } else if (zone >= kQ1Lo && zone <= kQ1Hi) {
      l1 += d;
    }
  }
  return std::fabs(static_cast<double>(l1));
}

/// The FIFO identity the oracle relies on: the i-th real record committed
/// is the i-th row of the logical sequence.
bool CheckFifo(const OracleTable& t, std::string* error) {
  const auto& times = t.log->real_times;
  if (times.size() > t.logical->rows.size()) {
    *error = "more real records committed than the owner received";
    return false;
  }
  for (size_t i = 0; i < times.size(); ++i) {
    if (times[i] != t.logical->arrival[i]) {
      *error = "committed real record " + std::to_string(i) +
               " is not the next logical row";
      return false;
    }
  }
  return true;
}

dpsync::query::Table PrefixTable(const std::string& name,
                                 const LogicalTable& logical, size_t rows) {
  dpsync::query::Table t;
  t.name = name;
  t.schema = dpsync::workload::TripSchema();
  t.rows.reserve(rows);
  for (size_t i = 0; i < rows; ++i) t.rows.push_back(logical.rows[i].ToRow());
  return t;
}

/// Runs every shape through query::Executor over a prefix of each table's
/// committed rows and compares with the zone-state answers for the same
/// prefixes — the zone algebra is data-size independent, so a bounded
/// prefix keeps the plaintext copy small.
bool ValidateAgainstExecutor(const OracleTable& yellow,
                             const OracleTable& green, std::string* error) {
  constexpr size_t kValidateRows = 1 << 15;
  const size_t yellow_rows =
      std::min(yellow.log->real_times.size(), kValidateRows);
  ZoneState zones;
  JoinState join;
  dpsync::query::Table y = PrefixTable("YellowCab", *yellow.logical, yellow_rows);
  dpsync::query::Table g;
  dpsync::query::Catalog catalog;
  catalog.AddTable(&y);
  if (green.logical != nullptr) {
    const size_t green_rows =
        std::min(green.log->real_times.size(), kValidateRows);
    g = PrefixTable("GreenTaxi", *green.logical, green_rows);
    catalog.AddTable(&g);
    for (size_t i = 0; i < green_rows; ++i) {
      join.AddGreen(green.logical->rows[i].pick_time);
    }
  }
  for (size_t i = 0; i < yellow_rows; ++i) {
    zones.Add(yellow.logical->rows[i]);
    join.AddYellow(yellow.logical->rows[i].pick_time);
  }
  dpsync::query::Executor executor(&catalog);
  std::vector<Request> probes = {
      {Shape::kQ1},
      {Shape::kQ2},
      {Shape::kFilteredSum, QueryClass::kDashboard, 100, 200},
      {Shape::kMin, QueryClass::kAdhoc, 30, 180},
      {Shape::kMax, QueryClass::kAdhoc, 30, 180},
      {Shape::kMin, QueryClass::kAdhoc, 7, 7},
  };
  if (green.logical != nullptr) probes.push_back({Shape::kQ3});
  for (const Request& p : probes) {
    const std::string sql = ShapeSql(p.shape, p.lo, p.hi);
    auto parsed = dpsync::query::ParseSelect(sql);
    if (!parsed.ok()) {
      *error = "oracle probe does not parse: " + sql;
      return false;
    }
    auto got = executor.Execute(parsed.value());
    if (!got.ok()) {
      *error = "executor failed on oracle probe: " + got.status().ToString();
      return false;
    }
    const Expected want = Evaluate(p, zones, join);
    bool same;
    if (p.shape == Shape::kQ2) {
      GroupHasher h;
      for (const auto& [key, value] : got->groups) h.Add(key.AsInt(), value);
      same = h.hash() == want.group_hash;
    } else {
      same = SameBits(got->scalar, want.scalar);
    }
    if (!same) {
      *error = "zone-state oracle disagrees with query::Executor on: " + sql;
      return false;
    }
  }
  return true;
}

}  // namespace

std::string ShapeSql(Shape shape, int64_t lo, int64_t hi) {
  const std::string range = " WHERE pickupID BETWEEN " + std::to_string(lo) +
                            " AND " + std::to_string(hi);
  switch (shape) {
    case Shape::kQ1:
      return "SELECT COUNT(*) FROM YellowCab WHERE pickupID BETWEEN 50 AND 100";
    case Shape::kQ2:
      return "SELECT pickupID, COUNT(*) AS PickupCnt FROM YellowCab GROUP BY "
             "pickupID";
    case Shape::kFilteredSum:
      return "SELECT SUM(dropoffID) FROM YellowCab" + range;
    case Shape::kMin:
      return "SELECT MIN(fare) FROM YellowCab" + range;
    case Shape::kMax:
      return "SELECT MAX(fare) FROM YellowCab" + range;
    case Shape::kQ3:
      return "SELECT COUNT(*) FROM YellowCab INNER JOIN GreenTaxi ON "
             "YellowCab.pickTime = GreenTaxi.pickTime";
  }
  return "";
}

void GroupHasher::Add(int64_t key, double value) {
  uint64_t words[2];
  std::memcpy(&words[0], &key, sizeof(key));
  std::memcpy(&words[1], &value, sizeof(value));
  for (uint64_t w : words) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (w >> (8 * b)) & 0xff;
      h_ *= 1099511628211ULL;
    }
  }
}

void LogicalTable::AddPreload(const TripRecord& trip) {
  rows.push_back(trip);
  arrival.push_back(trip.pick_time);  // ToRecord stamps the pick time
  ++preload;
}

void LogicalTable::AddStream(const TripRecord& trip, int64_t tick) {
  rows.push_back(trip);
  arrival.push_back(tick);  // DpSyncEngine::TickBatch stamps the tick
}

size_t LogicalTable::ReceivedAfter(int64_t ticks) const {
  auto it = std::upper_bound(arrival.begin() + static_cast<long>(preload),
                             arrival.end(), ticks);
  return static_cast<size_t>(it - arrival.begin());
}

OracleReport CheckRequests(const OracleTable& yellow, const OracleTable& green,
                           std::vector<Request>* requests) {
  OracleReport report;
  auto fail = [&report](Request* r, const std::string& why) {
    r->correct = false;
    ++report.failed;
    if (report.first_error.empty()) report.first_error = why;
  };
  std::string error;
  const bool has_green = green.logical != nullptr;
  if (!CheckFifo(yellow, &error) || (has_green && !CheckFifo(green, &error))) {
    for (Request& r : *requests) {
      if (r.ok) fail(&r, error);
    }
    report.checked = static_cast<int64_t>(requests->size());
    return report;
  }

  // Per-rank cumulative record counts of each commit (distributed only).
  const CommitLog& ylog = *yellow.log;
  std::vector<std::vector<int64_t>> cum(static_cast<size_t>(ylog.ranks));
  if (ylog.ranks > 1) {
    const auto ranks = static_cast<size_t>(ylog.ranks);
    for (size_t k = 0; k < ylog.outsourced_after.size(); ++k) {
      for (size_t r = 0; r < ranks; ++r) {
        cum[r].push_back((k ? cum[r][k - 1] : 0) + ylog.rank_records[k * ranks + r]);
      }
    }
  }

  // Every committed state each request may have read (a probe per state).
  struct Probe {
    View view;
    int64_t kg = -1;  ///< GreenTaxi commit (joins)
    size_t index = 0;
  };
  std::vector<Probe> probes;
  std::vector<char> resolved(requests->size(), 0);
  for (size_t i = 0; i < requests->size(); ++i) {
    Request& r = (*requests)[i];
    ++report.checked;
    if (!r.ok) continue;  // counted as failed by the caller
    if (r.shape == Shape::kQ3) {
      if (!has_green) {
        fail(&r, "join issued without a GreenTaxi table");
        continue;
      }
      int64_t yrows = r.yellow_rows, grows = r.green_rows;
      if (grows < 0) {  // interleaved workloads: GreenTaxi is static
        if (green.log->updates != 0) {
          fail(&r, "join over two growing tables needs exact counts");
          continue;
        }
        grows = green.log->outsourced_after.back();
        yrows = r.records_scanned - grows;
      }
      const int64_t ky = FindCommit(ylog, yrows, r.commit_lo, r.commit_hi);
      const int64_t kg = FindCommit(
          *green.log, grows, 0,
          static_cast<int64_t>(green.log->outsourced_after.size()) - 1);
      if (yrows + grows != r.records_scanned || ky < 0 || kg < 0) {
        fail(&r, "join records_scanned matches no committed prefixes");
        continue;
      }
      probes.push_back({{ky}, kg, i});
      continue;
    }
    if (r.yellow_rows >= 0 && r.yellow_rows != r.records_scanned) {
      fail(&r, "records_scanned is not the committed count at issue");
      continue;
    }
    const auto views = ViewsWithCount(ylog, cum, r);
    if (views.empty()) {
      fail(&r, "records_scanned matches no commit the read could have seen");
      continue;
    }
    for (const View& v : views) probes.push_back({v, -1, i});
  }
  report.states = static_cast<int64_t>(probes.size());
  std::sort(probes.begin(), probes.end(), [](const Probe& a, const Probe& b) {
    return a.view.base != b.view.base ? a.view.base < b.view.base : a.kg < b.kg;
  });

  // Sweep the committed states in order of their base commit; a request
  // is correct when its answer matches one of its states.
  ZoneState zones;
  JoinState join;
  size_t yellow_at = 0, green_at = 0;
  int64_t green_commit = -1;
  const auto& yrows = yellow.logical->rows;
  std::vector<size_t> partial;
  for (const Probe& p : probes) {
    Request& r = (*requests)[p.index];
    if (r.correct) continue;
    const size_t base_end = ylog.real_end[static_cast<size_t>(p.view.base)];
    for (; yellow_at < base_end; ++yellow_at) {
      zones.Add(yrows[yellow_at]);
      if (has_green) join.AddYellow(yrows[yellow_at].pick_time);
    }
    if (p.kg >= 0) {
      if (p.kg < green_commit) {
        fail(&r, "join prefixes are not monotone across requests");
        resolved[p.index] = 1;
        continue;
      }
      green_commit = p.kg;
      const size_t want_g = green.log->real_end[static_cast<size_t>(p.kg)];
      for (; green_at < want_g; ++green_at) {
        join.AddGreen(green.logical->rows[green_at].pick_time);
      }
    }
    partial.clear();
    const ZoneState* state = &zones;
    ZoneState mixed;
    if (p.view.ahead >= 0) {
      mixed = zones;
      const size_t ahead_end = ylog.real_end[static_cast<size_t>(p.view.ahead)];
      for (size_t i = base_end; i < ahead_end; ++i) {
        if (ylog.real_rank[i] != p.view.ahead_rank) continue;
        mixed.Add(yrows[i]);
        partial.push_back(i);
      }
      state = &mixed;
    }
    const Expected e = Evaluate(r, *state, join);
    const bool same = r.shape == Shape::kQ2 ? r.group_hash == e.group_hash
                                            : SameBits(r.scalar, e.scalar);
    if (!same) continue;
    r.correct = true;
    if (r.shape == Shape::kQ1 || r.shape == Shape::kQ2) {
      r.l1 = L1ToReceived(r.shape, yrows, base_end, partial,
                          yellow.logical->ReceivedAfter(r.issue_tick));
    }
  }
  for (const Probe& p : probes) {
    Request& r = (*requests)[p.index];
    if (r.correct || resolved[p.index]) continue;
    resolved[p.index] = 1;
    fail(&r, "answer differs from the oracle for: " +
                 ShapeSql(r.shape, r.lo, r.hi));
  }
  if (!probes.empty() && !ValidateAgainstExecutor(yellow, green, &error)) {
    for (Request& r : *requests) {
      if (r.correct) {
        r.correct = false;
        ++report.failed;
      }
    }
    if (report.first_error.empty()) report.first_error = error;
  }
  return report;
}

}  // namespace perfbench
