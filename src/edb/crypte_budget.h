/// \file crypte_budget.h
/// The Crypt-eps analyst budget and its noise stream, one implementation
/// for every server that answers Crypt-eps queries.
#pragma once

#include <cstdint>
#include <mutex>

#include "common/rng.h"
#include "common/status.h"
#include "query/result.h"

namespace dpsync::edb {

struct CryptEpsConfig;  // crypte_engine.h

/// The analyst's Crypt-eps budget and its Laplace noise stream. Each
/// server that answers Crypt-eps queries owns one: `CryptEpsServer`, which
/// wraps ObliDB's linear ExecutePlan in it, and
/// `dist::DistributedEdbServer` in Crypt-eps mode. Every answered query
/// spends exactly `query_epsilon`: the server reserves it before any work,
/// then releases the exact answer through `Release`, or drops the
/// reservation on failure, which gives the epsilon back.
///
/// The limit is a count of releases, not a running sum of doubles:
/// `total_budget_limit` allows floor(limit / query_epsilon) of them, a
/// ratio within a relative 1e-9 of an integer counting as that integer
/// (epsilon 0.1 with limit 0.3 allows 3, although 0.3 / 0.1 is just
/// below 3 in binary). Reservations count against the limit, so
/// concurrent queries can never jointly overdraw it.
class CryptEpsBudget {
 public:
  /// One reserved `query_epsilon`. Dropped unreleased, it gives the
  /// epsilon back.
  class Reservation {
   public:
    Reservation(Reservation&& other) noexcept;
    Reservation& operator=(Reservation&&) = delete;
    ~Reservation();

   private:
    friend class CryptEpsBudget;
    explicit Reservation(CryptEpsBudget* budget) : budget_(budget) {}
    CryptEpsBudget* budget_;  ///< null once released or moved from
  };

  /// Spends `config.query_epsilon` per query within
  /// `config.total_budget_limit` (<= 0: unlimited), drawing noise seeded
  /// from `config.master_seed`.
  explicit CryptEpsBudget(const CryptEpsConfig& config);

  /// Reserves one query's epsilon, or fails with PermissionDenied once
  /// every release the limit allows is reserved or spent.
  StatusOr<Reservation> Reserve();

  /// Spends `reservation` on `result`: adds Lap(1/query_epsilon) to the
  /// scalar, or to each group independently (disjoint partitions compose
  /// in parallel, so the release costs query_epsilon), and clamps each
  /// value at 0. Draws come from one stream seeded with
  /// `master_seed ^ 0xfeedface`, under the budget's lock, so a sequential
  /// query sequence releases the same bits on every server kind.
  void Release(Reservation reservation, query::QueryResult* result);

  /// Epsilon spent so far: releases x query_epsilon.
  double consumed() const;

 private:
  void GiveBack();

  const double epsilon_;
  const int64_t max_releases_;
  mutable std::mutex mu_;
  Rng rng_;                ///< guarded by mu_
  int64_t reserved_ = 0;   ///< guarded by mu_: reserved, not yet released
  int64_t released_ = 0;   ///< guarded by mu_
};

}  // namespace dpsync::edb
