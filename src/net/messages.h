/// \file messages.h
/// Typed wire messages for the distributed plan-shipping protocol. Each
/// message is one struct with its kind and one field list, the only place
/// its byte layout is written; codec.h turns field lists into bytes and
/// back (`Encode(msg)`, `Decode<T>(payload)`). Adding a message means one
/// struct, one field list, one MsgKind (and its PeekKind case), and one
/// golden vector in tests/wire_test.cc.
///
/// Layering: this header depends only on common + query (schema fields,
/// values, aggregate state), so net never depends on edb.
///
/// Confidentiality invariant: record payloads cross the wire ONLY as
/// AEAD ciphertexts inside WireIngest / WireReplicate — there is no
/// message that carries a plaintext row.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "net/codec.h"
#include "query/ast.h"
#include "query/executor.h"
#include "query/schema.h"
#include "query/value.h"

namespace dpsync::net {

/// One-byte message kind tag leading every frame payload. Values are part
/// of the wire format: never renumber a kind. 2, 5, 6, 8, 18 and 20 are
/// retired and stay unassigned.
enum class MsgKind : uint8_t {
  // Requests (coordinator -> shard server).
  kCreateTable = 1,
  kExecute = 3,
  kIngest = 4,
  // Replication requests (coordinator -> follower / leader).
  kReplicate = 7,
  kReplicaState = 9,
  kPromote = 10,
  // Replies (shard server -> coordinator).
  kStatusReply = 16,
  kPartialReply = 17,
  kReplicaStateReply = 19,
};

/// Reads the kind tag of an encoded payload without consuming it.
StatusOr<MsgKind> PeekKind(const Bytes& payload);

// ---- Field lists of the query types that travel nested ------------------

template <>
struct FieldsOf<query::Field> {
  template <typename M, typename C>
  static void Visit(M& f, C& c) {
    c(String{}, f.name);
    c(EnumTag<query::ValueType::kNull, query::ValueType::kString>{}, f.type);
  }
};

/// Aggregate state travels exactly — doubles as bit patterns — so Merge()
/// over decoded state equals Merge() over the in-process accumulators.
template <>
struct FieldsOf<query::AggAccumulator::State> {
  template <typename M, typename C>
  static void Visit(M& s, C& c) {
    c(VarInt{}, s.count);
    c(Fixed64{}, s.sum);
    c(Fixed64{}, s.min);
    c(Fixed64{}, s.max);
    c(Bool{}, s.seen);
  }
};

// ---- Messages -----------------------------------------------------------

/// Typed Status carried over the wire; the reply to every mutating RPC
/// and the error reply to any RPC. Round-trips code + message exactly so
/// a shard-side FailedPrecondition stays a FailedPrecondition at the
/// coordinator.
struct WireStatus {
  static constexpr MsgKind kKind = MsgKind::kStatusReply;
  StatusCode code = StatusCode::kOk;
  std::string message;

  Status ToStatus() const { return Status(code, message); }

  template <typename M, typename C>
  static void Fields(M& m, C& c) {
    c(EnumTag<StatusCode::kOk, StatusCode::kUnavailable>{}, m.code);
    c(String{}, m.message);
  }
};

/// A shipped query plan: the canonical text (re-planned shard-side with
/// the shard's own schema lookup) plus the coordinator's fingerprint,
/// which keys the shard's plan cache, so only a text's first Execute on
/// a server re-plans it.
struct WireExecute {
  static constexpr MsgKind kKind = MsgKind::kExecute;
  uint64_t fingerprint = 0;
  std::string canonical_text;

  template <typename M, typename C>
  static void Fields(M& m, C& c) {
    c(Fixed64{}, m.fingerprint);
    c(String{}, m.canonical_text);
  }
};

/// Schema shipment for CreateTable: table name plus (name, type) fields.
struct WireCreateTable {
  static constexpr MsgKind kKind = MsgKind::kCreateTable;
  std::string table;
  std::vector<query::Field> fields;

  template <typename M, typename C>
  static void Fields(M& m, C& c) {
    c(String{}, m.table);
    c(List<Nested>{}, m.fields);
  }
};

/// One pre-routed encrypted record: the owner-side coordinator already
/// applied the global FNV-1a ShardRouter, so the shard server only maps
/// `shard` (local index within the server's range) to its storage shard.
struct WireCipherRecord {
  uint32_t shard = 0;
  Bytes ciphertext;  // RecordCipher output: nonce || ct || tag

  template <typename M, typename C>
  static void Fields(M& m, C& c) {
    c(VarUInt{}, m.shard);
    c(Blob{}, m.ciphertext);
  }
};

/// Encrypted ingest batch. `nonce_high_water` is the coordinator cipher's
/// nonce counter AFTER encrypting this batch; the shard store persists it
/// so reopen-time freshness checks keep working against the global
/// stream. `batch_seq` is the coordinator's per-(table, rank) replication
/// sequence number (monotone from 1): the server applies seq
/// applied_seq+1, treats seq <= applied_seq as an idempotent no-op (a
/// post-failover retry of a batch the promoted server already has), and
/// rejects gaps and 0 — so a retried ingest can neither duplicate nor
/// lose records.
struct WireIngest {
  static constexpr MsgKind kKind = MsgKind::kIngest;
  std::string table;
  bool setup_batch = false;
  uint64_t batch_seq = 0;
  uint64_t nonce_high_water = 0;
  std::vector<WireCipherRecord> entries;

  template <typename M, typename C>
  static void Fields(M& m, C& c) {
    c(String{}, m.table);
    c(Bool{}, m.setup_batch);
    c(Fixed64{}, m.batch_seq);
    c(Fixed64{}, m.nonce_high_water);
    c(List<Nested>{}, m.entries);
  }
};

/// One acked ingest batch relayed to a follower: WireIngest's fields
/// under their own kind, so a follower applies exactly the ciphertexts,
/// nonce HWM and batch_seq its leader applied (never plaintext), under
/// the same contiguous-sequence rule. The coordinator sends it once.
struct WireReplicate : WireIngest {
  static constexpr MsgKind kKind = MsgKind::kReplicate;
};

/// Replica-state probe (health + lag assessment + promotion precheck).
/// It has no fields — the kind byte is the whole message.
struct WireReplicaStateRequest {
  static constexpr MsgKind kKind = MsgKind::kReplicaState;

  template <typename M, typename C>
  static void Fields(M&, C&) {}
};

/// One hosted table's replication position on a server.
struct WireTableReplicaState {
  std::string table;
  uint64_t applied_seq = 0;
  uint64_t commit_epoch = 0;

  template <typename M, typename C>
  static void Fields(M& m, C& c) {
    c(String{}, m.table);
    c(Fixed64{}, m.applied_seq);
    c(Fixed64{}, m.commit_epoch);
  }
};

/// The kReplicaStateReply body: every hosted table's position plus the
/// server's role. A live reply — any reply — is the health signal.
struct WireReplicaState {
  static constexpr MsgKind kKind = MsgKind::kReplicaStateReply;
  bool follower = false;
  std::vector<WireTableReplicaState> tables;

  template <typename M, typename C>
  static void Fields(M& m, C& c) {
    c(Bool{}, m.follower);
    c(List<Nested>{}, m.tables);
  }
};

/// Cutover: promotes a follower to leader at a tagged boundary. For every
/// hosted table the follower re-verifies — atomically, under its own
/// locks — that its applied_seq and CommitEpoch still equal the probed
/// values; any mismatch (a race, a lost batch) rejects the promotion with
/// FailedPrecondition and the coordinator moves to the next candidate.
struct WirePromoteTable {
  std::string table;
  uint64_t expected_seq = 0;
  uint64_t commit_epoch = 0;

  template <typename M, typename C>
  static void Fields(M& m, C& c) {
    c(String{}, m.table);
    c(Fixed64{}, m.expected_seq);
    c(Fixed64{}, m.commit_epoch);
  }
};

struct WirePromote {
  static constexpr MsgKind kKind = MsgKind::kPromote;
  std::vector<WirePromoteTable> tables;

  template <typename M, typename C>
  static void Fields(M& m, C& c) {
    c(List<Nested>{}, m.tables);
  }
};

/// One group of a grouped span cell.
struct WireGroup {
  query::Value key;
  query::AggAccumulator::State state;

  template <typename M, typename C>
  static void Fields(M& m, C& c) {
    c(Scalar{}, m.key);
    c(Nested{}, m.state);
  }
};

/// One storage shard's aggregate cell: ungrouped total or grouped map
/// (entries in ascending key order — std::map order — so the
/// coordinator's fold is deterministic).
struct WireSpanPartial {
  query::AggAccumulator::State total;
  std::vector<WireGroup> groups;

  template <typename M, typename C>
  static void Fields(M& m, C& c) {
    c(Nested{}, m.total);
    c(List<Nested>{}, m.groups);
  }
};

/// A shard server's partial aggregate for one Execute: one cell per
/// non-empty local shard, in local shard order (a contiguous slice of
/// the global shard order). FP aggregation is non-associative, so cells
/// ship individually rather than pre-merged per server: the coordinator
/// concatenates rank-ordered cell lists and folds them in global shard
/// order, replaying the single-process scan's exact merge tree. The
/// per-shard execution counters the coordinator folds into QueryStats
/// ride along server-aggregated (they are exact integers).
struct WirePartial {
  static constexpr MsgKind kKind = MsgKind::kPartialReply;
  query::AggFunc func = query::AggFunc::kNone;
  bool grouped = false;
  std::vector<WireSpanPartial> spans;
  int64_t records_scanned = 0;
  int64_t oram_paths = 0;
  int64_t oram_buckets = 0;

  template <typename M, typename C>
  static void Fields(M& m, C& c) {
    c(EnumTag<query::AggFunc::kNone, query::AggFunc::kMax>{}, m.func);
    c(Bool{}, m.grouped);
    c(List<Nested>{}, m.spans);
    c(VarInt{}, m.records_scanned);
    c(VarInt{}, m.oram_paths);
    c(VarInt{}, m.oram_buckets);
  }
};

}  // namespace dpsync::net
