// Concurrency tests for the Query API v2: admission-controller semantics
// (FIFO, limits, deadlines), async Submit/Wait, and a mixed-query stress
// run against one server while the owner keeps appending — the suite the
// CI TSan job leans on to prove the per-table locking discipline.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "edb/admission.h"
#include "edb/crypte_engine.h"
#include "edb/oblidb_engine.h"
#include "query/parser.h"
#include "test_util.h"
#include "workload/trip_record.h"

namespace dpsync::edb {
namespace {

using testutil::Trip;
using workload::TripSchema;

// ----------------------------------------------------- AdmissionController

TEST(AdmissionControllerTest, GrantsUpToLimitThenQueues) {
  AdmissionController ctl(AdmissionConfig{2, 8});
  ASSERT_OK(ctl.Acquire(std::nullopt));
  ASSERT_OK(ctl.Acquire(std::nullopt));
  // Third acquire must wait; give it a short deadline so the test
  // terminates without a releasing thread.
  auto s = ctl.Acquire(std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(20));
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  ctl.Release();
  // A slot is free again: immediate grant.
  ASSERT_OK(ctl.Acquire(std::nullopt));
  ctl.Release();
  ctl.Release();
  auto stats = ctl.stats();
  EXPECT_EQ(stats.admitted, 3);
  EXPECT_EQ(stats.deadlines_exceeded, 1);
  EXPECT_EQ(stats.peak_in_flight, 2);
}

TEST(AdmissionControllerTest, RejectsWhenOverflowQueueFull) {
  AdmissionController ctl(AdmissionConfig{1, 0});
  ASSERT_OK(ctl.Acquire(std::nullopt));
  auto s = ctl.Acquire(std::chrono::steady_clock::now());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  ctl.Release();
  EXPECT_EQ(ctl.stats().rejected_queue_full, 1);
}

TEST(AdmissionControllerTest, ReleaseHandsSlotToOldestWaiter) {
  AdmissionController ctl(AdmissionConfig{1, 8});
  ASSERT_OK(ctl.Acquire(std::nullopt));
  std::atomic<int> order{0};
  int first_rank = -1, second_rank = -1;
  std::thread first([&] {
    ASSERT_OK(ctl.Acquire(std::nullopt));
    first_rank = order.fetch_add(1);
    ctl.Release();
  });
  // Wait until `first` is queued before `second` joins the queue, and
  // until both are queued before the slot frees up.
  while (ctl.queue_depth() < 1) std::this_thread::yield();
  std::thread second([&] {
    ASSERT_OK(ctl.Acquire(std::nullopt));
    second_rank = order.fetch_add(1);
    ctl.Release();
  });
  while (ctl.queue_depth() < 2) std::this_thread::yield();
  ctl.Release();
  first.join();
  second.join();
  EXPECT_LT(first_rank, second_rank);  // FIFO among waiters
  EXPECT_EQ(ctl.stats().peak_in_flight, 1);
}

// -------------------------------------------------------- Session plumbing

class SessionConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ObliDbConfig cfg;
    cfg.admission.max_in_flight = 2;
    cfg.admission.max_queue = 1024;
    server_ = std::make_unique<ObliDbServer>(cfg);
    auto t = server_->CreateTable("YellowCab", TripSchema());
    ASSERT_TRUE(t.ok());
    yellow_ = t.value();
    std::vector<Record> records;
    for (int64_t i = 0; i < 200; ++i) records.push_back(Trip(i, i % 40));
    ASSERT_OK(yellow_->Setup(records));
  }

  std::unique_ptr<ObliDbServer> server_;
  EdbTable* yellow_ = nullptr;
};

TEST_F(SessionConcurrencyTest, SubmitWaitMatchesSyncExecute) {
  auto session = server_->CreateSession();
  auto q = session->Prepare(
      "SELECT COUNT(*) FROM YellowCab WHERE pickupID BETWEEN 5 AND 14");
  ASSERT_TRUE(q.ok());
  auto sync = session->Execute(q.value());
  ASSERT_TRUE(sync.ok());
  auto ticket = session->Submit(q.value());
  ASSERT_TRUE(ticket.ok());
  auto async = session->Wait(ticket.value());
  ASSERT_TRUE(async.ok());
  EXPECT_DOUBLE_EQ(async->result.scalar, sync->result.scalar);
  EXPECT_DOUBLE_EQ(async->stats.virtual_seconds, sync->stats.virtual_seconds);
  // A ticket can only be redeemed once.
  EXPECT_EQ(session->Wait(ticket.value()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SessionConcurrencyTest, UnpreparedQueryRejected) {
  auto session = server_->CreateSession();
  PreparedQuery empty;
  EXPECT_EQ(session->Execute(empty).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session->Submit(empty).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SessionConcurrencyTest, AdmissionLimitEnforcedUnderFanOut) {
  auto session = server_->CreateSession();
  auto q = session->Prepare("SELECT COUNT(*) FROM YellowCab");
  ASSERT_TRUE(q.ok());
  std::vector<QueryTicket> tickets;
  for (int i = 0; i < 64; ++i) {
    auto ticket = session->Submit(q.value());
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(ticket.value());
  }
  for (const auto& ticket : tickets) {
    auto r = session->Wait(ticket);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_DOUBLE_EQ(r->result.scalar, 200.0);
  }
  auto stats = server_->stats();
  EXPECT_LE(stats.peak_in_flight, 2);
  EXPECT_GE(stats.peak_in_flight, 1);
  EXPECT_EQ(stats.queries_executed, 64);
}

// ------------------------------------------------------------- Stress runs

/// N analyst threads x mixed prepared queries (range count, group-by,
/// join) against one server while the owner keeps appending — every
/// response must be OK, and the final count must equal everything the
/// owner ever appended.
TEST(ConcurrencyStressTest, MixedQueriesAgainstConcurrentAppends) {
  ObliDbConfig cfg;
  cfg.admission.max_in_flight = 4;
  cfg.admission.max_queue = 4096;
  cfg.storage.num_shards = 4;
  ObliDbServer server(cfg);
  auto yellow = server.CreateTable("YellowCab", TripSchema());
  auto green = server.CreateTable("GreenTaxi", TripSchema());
  ASSERT_TRUE(yellow.ok());
  ASSERT_TRUE(green.ok());
  ASSERT_OK(yellow.value()->Setup({Trip(0, 1)}));
  ASSERT_OK(green.value()->Setup({Trip(0, 2)}));

  const std::vector<std::string> kQueries = {
      "SELECT COUNT(*) FROM YellowCab WHERE pickupID BETWEEN 1 AND 20",
      "SELECT pickupID, COUNT(*) AS c FROM YellowCab GROUP BY pickupID",
      "SELECT COUNT(*) FROM GreenTaxi",
      "SELECT COUNT(*) FROM YellowCab INNER JOIN GreenTaxi ON "
      "YellowCab.pickTime = GreenTaxi.pickTime",
  };

  constexpr int kAnalysts = 4;
  constexpr int kQueriesPerAnalyst = 24;
  constexpr int kOwnerBatches = 48;
  std::atomic<int> failures{0};

  std::thread owner([&] {
    for (int b = 1; b <= kOwnerBatches; ++b) {
      std::vector<Record> batch = {Trip(b, b % 40), Trip(b, (b + 7) % 40)};
      if (!yellow.value()->Update(batch).ok()) ++failures;
      if (!green.value()->Update({Trip(b, (b + 3) % 40)}).ok()) ++failures;
    }
  });

  std::vector<std::thread> analysts;
  for (int a = 0; a < kAnalysts; ++a) {
    analysts.emplace_back([&, a] {
      auto session = server.CreateSession();
      std::vector<PreparedQuery> prepared;
      for (const auto& sql : kQueries) {
        auto q = session->Prepare(sql);
        if (!q.ok()) {
          ++failures;
          return;
        }
        prepared.push_back(std::move(q.value()));
      }
      for (int i = 0; i < kQueriesPerAnalyst; ++i) {
        const auto& q = prepared[(a + i) % prepared.size()];
        if (i % 3 == 0) {
          auto ticket = session->Submit(q);
          if (!ticket.ok() || !session->Wait(ticket.value()).ok()) ++failures;
        } else {
          if (!session->Execute(q).ok()) ++failures;
        }
      }
    });
  }
  owner.join();
  for (auto& t : analysts) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Quiescent final state: the count sees every append.
  auto session = server.CreateSession();
  auto q = session->Prepare("SELECT COUNT(*) FROM YellowCab");
  ASSERT_TRUE(q.ok());
  auto r = session->Execute(q.value());
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->result.scalar, 1.0 + 2.0 * kOwnerBatches);
  auto stats = server.stats();
  EXPECT_LE(stats.peak_in_flight, 4);
  EXPECT_EQ(stats.queries_rejected, 0);
}

/// Same discipline through the ORAM-indexed path: every scan touches the
/// per-shard trees while the owner's catch-up keeps writing them.
TEST(ConcurrencyStressTest, IndexedScansAgainstConcurrentAppends) {
  ObliDbConfig cfg;
  cfg.use_oram_index = true;
  cfg.oram_capacity = 4096;
  cfg.storage.num_shards = 4;
  cfg.admission.max_in_flight = 4;
  ObliDbServer server(cfg);
  auto t = server.CreateTable("YellowCab", TripSchema());
  ASSERT_TRUE(t.ok());
  ASSERT_OK(t.value()->Setup({Trip(0, 1)}));

  std::atomic<int> failures{0};
  std::thread owner([&] {
    for (int b = 1; b <= 40; ++b) {
      if (!t.value()->Update({Trip(b, b % 20)}).ok()) ++failures;
    }
  });
  std::vector<std::thread> analysts;
  for (int a = 0; a < 3; ++a) {
    analysts.emplace_back([&] {
      auto session = server.CreateSession();
      auto q = session->Prepare(
          "SELECT COUNT(*) FROM YellowCab WHERE pickupID BETWEEN 0 AND 19");
      if (!q.ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < 12; ++i) {
        if (!session->Execute(q.value()).ok()) ++failures;
      }
    });
  }
  owner.join();
  for (auto& th : analysts) th.join();
  EXPECT_EQ(failures.load(), 0);

  auto session = server.CreateSession();
  auto q = session->Prepare("SELECT COUNT(*) FROM YellowCab");
  ASSERT_TRUE(q.ok());
  auto r = session->Execute(q.value());
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->result.scalar, 41.0);
  EXPECT_TRUE(server.oram_health().enabled);
}

/// Concurrent queries must never jointly overdraw the analyst budget: with
/// a limit of two queries' worth, exactly two of six parallel queries
/// succeed. The 1e-10 case is the one an absolute slop on the limit used
/// to overdraw.
TEST(ConcurrencyStressTest, CryptEpsBudgetNeverOverdrawnConcurrently) {
  struct Budget {
    double epsilon;
    double limit;
  };
  for (const Budget& b : {Budget{3.0, 6.0}, Budget{1e-10, 2e-10}}) {
    SCOPED_TRACE("epsilon " + std::to_string(b.epsilon));
    CryptEpsConfig cfg;
    cfg.query_epsilon = b.epsilon;
    cfg.total_budget_limit = b.limit;
    cfg.admission.max_in_flight = 6;
    CryptEpsServer server(cfg);
    auto t = server.CreateTable("YellowCab", TripSchema());
    ASSERT_TRUE(t.ok());
    ASSERT_OK(t.value()->Setup({Trip(1, 60), Trip(2, 70)}));

    std::atomic<int> ok_count{0}, denied_count{0}, other_count{0};
    std::vector<std::thread> analysts;
    for (int a = 0; a < 6; ++a) {
      analysts.emplace_back([&] {
        auto session = server.CreateSession();
        auto q = session->Prepare("SELECT COUNT(*) FROM YellowCab");
        if (!q.ok()) {
          ++other_count;
          return;
        }
        auto r = session->Execute(q.value());
        if (r.ok()) {
          ++ok_count;
        } else if (r.status().code() == StatusCode::kPermissionDenied) {
          ++denied_count;
        } else {
          ++other_count;
        }
      });
    }
    for (auto& th : analysts) th.join();
    EXPECT_EQ(ok_count.load(), 2);
    EXPECT_EQ(denied_count.load(), 4);
    EXPECT_EQ(other_count.load(), 0);
    EXPECT_EQ(server.consumed_query_budget(), 2 * b.epsilon);
  }
}

}  // namespace
}  // namespace dpsync::edb
