#include "edb/crypte_budget.h"

#include <cmath>
#include <limits>
#include <utility>

#include "dp/laplace.h"
#include "edb/crypte_engine.h"

namespace dpsync::edb {

namespace {

/// Whether `config` can release at all: a finite epsilon > 0 and a limit
/// that is a number.
Status ValidateBudget(const CryptEpsConfig& config) {
  DPSYNC_RETURN_IF_ERROR(dp::ValidateEpsilon(config.query_epsilon));
  if (std::isnan(config.total_budget_limit)) {
    return Status::InvalidArgument("total_budget_limit must not be NaN");
  }
  return Status::Ok();
}

/// How many releases `limit` allows at `epsilon` each: floor(limit /
/// epsilon), except that a ratio within a relative 1e-9 of an integer
/// counts as that integer. A limit <= 0, or a ratio beyond 2^62, is
/// unlimited.
int64_t MaxReleases(double epsilon, double limit) {
  constexpr int64_t kUnlimited = std::numeric_limits<int64_t>::max();
  if (!(limit > 0)) return kUnlimited;
  const double ratio = limit / epsilon;
  if (!(ratio < 0x1p62)) return kUnlimited;
  const double nearest = std::nearbyint(ratio);
  if (std::fabs(ratio - nearest) <= 1e-9 * nearest) {
    return static_cast<int64_t>(nearest);
  }
  return static_cast<int64_t>(std::floor(ratio));
}

}  // namespace

CryptEpsBudget::Reservation::Reservation(Reservation&& other) noexcept
    : budget_(std::exchange(other.budget_, nullptr)) {}

CryptEpsBudget::Reservation::~Reservation() {
  if (budget_ != nullptr) budget_->GiveBack();
}

CryptEpsBudget::CryptEpsBudget(const CryptEpsConfig& config)
    : epsilon_(config.query_epsilon),
      config_status_(ValidateBudget(config)),
      max_releases_(
          MaxReleases(config.query_epsilon, config.total_budget_limit)),
      rng_(config.master_seed ^ 0xfeedface) {}

StatusOr<CryptEpsBudget::Reservation> CryptEpsBudget::Reserve() {
  if (!config_status_.ok()) return config_status_;
  std::lock_guard<std::mutex> lk(mu_);
  if (reserved_ + released_ >= max_releases_) {
    return Status::PermissionDenied("analyst query budget exhausted");
  }
  ++reserved_;
  return Reservation(this);
}

void CryptEpsBudget::Release(Reservation reservation,
                             query::QueryResult* result) {
  reservation.budget_ = nullptr;  // spent: never given back
  std::lock_guard<std::mutex> lk(mu_);
  --reserved_;
  ++released_;
  dp::LaplaceMechanism release(epsilon_);
  if (result->grouped) {
    for (auto& [key, value] : result->groups) {
      value = release.Perturb(value, &rng_);
      if (value < 0) value = 0;  // post-processing: counts are nonnegative
    }
  } else {
    result->scalar = release.Perturb(result->scalar, &rng_);
    if (result->scalar < 0) result->scalar = 0;
  }
}

double CryptEpsBudget::consumed() const {
  std::lock_guard<std::mutex> lk(mu_);
  // An epsilon Reserve refuses never releases, and 0 x NaN would read NaN.
  return released_ == 0 ? 0.0 : static_cast<double>(released_) * epsilon_;
}

void CryptEpsBudget::GiveBack() {
  std::lock_guard<std::mutex> lk(mu_);
  --reserved_;
}

}  // namespace dpsync::edb
