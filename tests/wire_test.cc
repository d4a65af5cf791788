// Tests for the wire layer (src/net/): the CRC32 check value, the codec's
// encodings (varint edge cases including the 10-byte maximum and zigzag
// negatives, explicit little-endian fixed widths, exact double bit
// patterns), and frames over a real socket, where truncated, bit-flipped
// or oversized frames fail with a typed Status instead of parsing garbage
// and a deadline past poll()'s int range still waits. A channel whose
// reply missed its deadline closes, so no later Call reads that reply.
//
// The golden table pins the bytes of every message kind: one sample per
// kind and the hex its payload encodes to. For every kind the sample
// encodes to its hex, decoding the hex and encoding again reproduces it,
// and every truncation, one trailing byte, and decoding the bytes as any
// other kind are rejected. Decoders allocate no more than a payload
// holds, and the encoder refuses a message over the frame bound.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <future>
#include <limits>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/byte_io.h"
#include "net/codec.h"
#include "net/messages.h"
#include "net/socket.h"
#include "net/wire.h"
#include "query/schema.h"
#include "test_util.h"

namespace dpsync::net {
namespace {

/// Set while a test measures what the decoders allocate; the replaced
/// global operator new below then records the largest single request.
std::atomic<bool> g_track_allocations{false};
std::atomic<size_t> g_largest_allocation{0};

}  // namespace
}  // namespace dpsync::net

void* operator new(size_t n) {
  if (dpsync::net::g_track_allocations.load()) {
    size_t seen = dpsync::net::g_largest_allocation.load();
    while (n > seen &&
           !dpsync::net::g_largest_allocation.compare_exchange_weak(seen, n)) {
    }
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }

namespace dpsync::net {
namespace {

using testutil::Hex;

Bytes ToBytes(const std::string& s) {
  return Bytes(s.begin(), s.end());
}

// ----------------------------------------------------------------- CRC32

TEST(Crc32Test, StandardCheckValue) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(check.data()), check.size()),
            0xCBF43926u);
}

TEST(Crc32Test, EmptyAndSensitivity) {
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  Bytes a = ToBytes("frame payload");
  Bytes b = a;
  b[3] ^= 0x01;
  EXPECT_NE(Crc32(a), Crc32(b));
}

// --------------------------------------------------------------- varints

TEST(VarintTest, UnsignedEdgeValuesRoundTrip) {
  const std::vector<uint64_t> values = {
      0,       1,
      127,     128,  // 1-byte / 2-byte boundary
      16383,   16384,
      (1ull << 32) - 1,
      (1ull << 63),
      std::numeric_limits<uint64_t>::max()};  // 10-byte encoding
  Writer out;
  for (uint64_t v : values) out(VarUInt{}, v);
  Reader in(out.payload());
  for (uint64_t v : values) {
    uint64_t got = 0;
    in(VarUInt{}, got);
    EXPECT_EQ(got, v);
  }
  ASSERT_OK(in.status());
  EXPECT_EQ(in.remaining(), 0u);
}

TEST(VarintTest, MaxValueUsesTenBytes) {
  Writer out;
  out(VarUInt{}, std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(out.payload().size(), static_cast<size_t>(kMaxVarintBytes));
}

TEST(VarintTest, OverlongEncodingRejected) {
  uint64_t v = 0;
  // Eleven continuation bytes: no valid uint64 varint is this long.
  const Bytes overlong(11, 0x80);
  Reader eleven(overlong);
  eleven(VarUInt{}, v);
  EXPECT_NOT_OK(eleven.status());
  // A 10th byte carrying more than the final bit overflows uint64.
  Bytes overflow(9, 0xFF);
  overflow.push_back(0x02);
  Reader tenth(overflow);
  tenth(VarUInt{}, v);
  EXPECT_NOT_OK(tenth.status());
}

TEST(VarintTest, NarrowFieldRejectsWideValue) {
  Writer out;
  out(VarUInt{}, uint64_t{1} << 32);
  Reader in(out.payload());
  uint32_t narrow = 0;
  in(VarUInt{}, narrow);
  EXPECT_NOT_OK(in.status());
}

TEST(VarintTest, SignedZigzagEdgeValuesRoundTrip) {
  const std::vector<int64_t> values = {
      0,  -1, 1,  -2, 63, -64,  // zigzag keeps small magnitudes short
      std::numeric_limits<int64_t>::min(),
      std::numeric_limits<int64_t>::max()};
  Writer out;
  for (int64_t v : values) out(VarInt{}, v);
  Reader in(out.payload());
  for (int64_t v : values) {
    int64_t got = 0;
    in(VarInt{}, got);
    EXPECT_EQ(got, v);
  }
  ASSERT_OK(in.status());
}

TEST(VarintTest, SmallNegativeStaysShort) {
  Writer out;
  out(VarInt{}, -1);  // zigzag -> 1 -> one byte
  EXPECT_EQ(out.payload().size(), 1u);
}

// --------------------------------------------- fixed-width + double bits

TEST(FixedWidthTest, ExplicitLittleEndianLayout) {
  uint8_t buf[8];
  StoreLE32(buf, 0x04030201u);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[1], 0x02);
  EXPECT_EQ(buf[2], 0x03);
  EXPECT_EQ(buf[3], 0x04);
  EXPECT_EQ(LoadLE32(buf), 0x04030201u);

  StoreLE64(buf, 0x0807060504030201ull);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[7], 0x08);
  EXPECT_EQ(LoadLE64(buf), 0x0807060504030201ull);
}

TEST(FixedWidthTest, DoubleTravelsAsExactBitPattern) {
  const std::vector<double> values = {0.0,
                                      -0.0,
                                      1.0,
                                      -2.5,
                                      0.1,  // not exactly representable
                                      std::numeric_limits<double>::infinity(),
                                      std::numeric_limits<double>::denorm_min(),
                                      std::numeric_limits<double>::max()};
  Writer out;
  for (double v : values) out(Fixed64{}, v);
  Reader in(out.payload());
  for (double v : values) {
    double got = 0.0;
    in(Fixed64{}, got);
    uint64_t want_bits, got_bits;
    std::memcpy(&want_bits, &v, sizeof(v));
    std::memcpy(&got_bits, &got, sizeof(double));
    EXPECT_EQ(got_bits, want_bits);
  }
  ASSERT_OK(in.status());
}

// ---------------------------------------------------------------- frames

Bytes EncodeFrame(const Bytes& payload) {
  Bytes wire;
  VectorWriteBuffer out(&wire);
  EXPECT_OK(WriteFrame(out, payload));
  return wire;
}

/// Delivers `wire` to ReadFrame over a socketpair whose sending side then
/// closes, as a peer that wrote exactly these bytes and died would.
StatusOr<Bytes> ReadFrameFrom(const Bytes& wire) {
  auto fds = SocketPair();
  if (!fds.ok()) return fds.status();
  FdWriteBuffer out(fds.value().a);
  Status sent = out.Write(wire);
  if (sent.ok()) sent = out.Flush();
  ::shutdown(fds.value().a, SHUT_WR);
  FdReadBuffer in(fds.value().b, /*timeout_seconds=*/10.0);
  StatusOr<Bytes> got = sent.ok() ? ReadFrame(in) : StatusOr<Bytes>(sent);
  CloseFd(fds.value().a);
  CloseFd(fds.value().b);
  return got;
}

TEST(FrameTest, RoundTrip) {
  Bytes payload = ToBytes("the payload");
  Bytes wire = EncodeFrame(payload);
  EXPECT_EQ(wire.size(), payload.size() + kFrameHeaderBytes);
  auto got = ReadFrameFrom(wire);
  ASSERT_OK(got);
  EXPECT_EQ(got.value(), payload);
}

TEST(FrameTest, TruncatedFrameIsTypedError) {
  Bytes wire = EncodeFrame(ToBytes("the payload"));
  for (size_t keep : {size_t{0}, size_t{3}, size_t{7}, wire.size() - 1}) {
    Bytes torn(wire.begin(), wire.begin() + static_cast<long>(keep));
    auto got = ReadFrameFrom(torn);
    ASSERT_FALSE(got.ok()) << "kept " << keep << " bytes";
    EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
  }
}

TEST(FrameTest, EveryBitFlipFailsCrc) {
  Bytes wire = EncodeFrame(ToBytes("x"));
  // Flip each payload/crc byte in turn; flipping the length field either
  // fails the bound check or truncates — every corruption is typed.
  for (size_t i = 4; i < wire.size(); ++i) {
    Bytes bad = wire;
    bad[i] ^= 0x40;
    auto got = ReadFrameFrom(bad);
    ASSERT_FALSE(got.ok()) << "flipped byte " << i;
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(FrameTest, OversizedLengthRejectedWithoutAllocating) {
  Bytes wire(kFrameHeaderBytes, 0);
  StoreLE32(wire.data(), kMaxFrameBytes + 1);
  auto got = ReadFrameFrom(wire);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

TEST(FrameTest, DeadlinePastPollRangeWaitsForALateFrame) {
  // poll() takes int milliseconds, which end near 24.8 days. A longer
  // deadline, +inf included, waits that long; it must not wrap around to
  // a 1-ms one.
  for (double timeout : {3e6, std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(timeout);
    auto fds = SocketPair();
    ASSERT_OK(fds);
    std::thread peer([fd = fds.value().a] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      FdWriteBuffer out(fd);
      EXPECT_OK(WriteFrame(out, ToBytes("late frame")));
    });
    FdReadBuffer in(fds.value().b, timeout);
    auto got = ReadFrame(in);
    peer.join();
    CloseFd(fds.value().a);
    CloseFd(fds.value().b);
    ASSERT_OK(got);
    EXPECT_EQ(got.value(), ToBytes("late frame"));
  }
}

// -------------------------------------------------------------- channels

TEST(ChannelTest, LateReplyNeverAnswersTheNextCall) {
  // The peer answers the first request only after the channel gave up
  // waiting for it, then answers the second. Had the connection stayed
  // open, the second Call would read the first request's reply as its
  // own.
  auto fds = SocketPair();
  ASSERT_OK(fds);
  Channel channel(fds.value().b, /*timeout_seconds=*/0.05);
  std::promise<void> first_failed;
  std::promise<void> late_reply_sent;
  std::future<void> first_failed_seen = first_failed.get_future();
  std::future<void> late_reply_seen = late_reply_sent.get_future();
  std::thread peer([&, fd = fds.value().a] {
    FdReadBuffer in(fd, /*timeout_seconds=*/0);
    FdWriteBuffer out(fd);
    if (ReadFrame(in).ok()) {
      first_failed_seen.wait();
      // Fails once the channel has closed its end.
      (void)WriteFrame(out, ToBytes("first reply"));
    }
    late_reply_sent.set_value();
    if (ReadFrame(in).ok()) {
      (void)WriteFrame(out, ToBytes("second reply"));
    }
    CloseFd(fd);
  });

  auto first = channel.Call(ToBytes("first request"));
  EXPECT_FALSE(first.ok());
  first_failed.set_value();
  late_reply_seen.wait();
  auto second = channel.Call(ToBytes("second request"));
  channel.Close();
  peer.join();
  ASSERT_FALSE(second.ok())
      << "the second Call returned \""
      << std::string(second.value().begin(), second.value().end()) << "\"";
  EXPECT_EQ(second.status().code(), StatusCode::kUnavailable);
}

// ---------------------------------------------------------- golden bytes

/// One row per message kind: a sample, the hex its payload encodes to,
/// and a decode-then-encode of arbitrary bytes as the sample's type.
struct Golden {
  const char* kind;
  std::string hex;
  StatusOr<Bytes> encoded;
  std::function<StatusOr<Bytes>(const Bytes&)> reencode;
};

template <typename T>
Golden Row(const char* kind, const T& sample, std::string hex) {
  return {kind, std::move(hex), Encode(sample),
          [](const Bytes& payload) -> StatusOr<Bytes> {
            auto msg = Decode<T>(payload);
            if (!msg.ok()) return msg.status();
            return Encode(msg.value());
          }};
}

/// The hex strings pin the wire format, and changing one changes the
/// protocol. They were captured from the hand-written encoders this
/// codec replaced, except kReplicate and kReplicaStateReply, which were
/// re-pinned from this codec after fields were removed from them.
std::vector<Golden> GoldenTable() {
  std::vector<Golden> rows;
  {
    WireCreateTable m;
    m.table = "YellowCab";
    m.fields = {{"pickTime", query::ValueType::kInt},
                {"fare", query::ValueType::kDouble},
                {"zone", query::ValueType::kString},
                {"isDummy", query::ValueType::kInt}};
    rows.push_back(Row("kCreateTable", m,
                       "010959656c6c6f7743616204087069636b54696d65010466"
                       "61726502047a6f6e650307697344756d6d7901"));
  }
  {
    WireExecute m;
    m.fingerprint = 0x0123456789abcdefull;
    m.canonical_text = "SELECT SUM(fare) FROM T";
    rows.push_back(Row("kExecute", m,
                       "03efcdab89674523011753454c4543542053554d28666172"
                       "65292046524f4d2054"));
  }
  {
    WireIngest m;
    m.table = "T";
    m.setup_batch = true;
    m.batch_seq = 41;
    m.nonce_high_water = 1234567;
    m.entries.push_back({0, Bytes{0xa0, 0xa1, 0xa2, 0xa3}});
    m.entries.push_back({300, Bytes{0x01, 0x02, 0x03}});
    rows.push_back(Row("kIngest", m,
                       "04015401290000000000000087d6120000000000020004a0"
                       "a1a2a3ac0203010203"));
  }
  {
    WireReplicate m;
    m.table = "T";
    m.batch_seq = 17;
    m.nonce_high_water = 123456789;
    m.entries.push_back({2, Bytes{0xc0, 0xc1}});
    rows.push_back(Row("kReplicate", m,
                       "07015400110000000000000015cd5b0700000000010202c0"
                       "c1"));
  }
  rows.push_back(Row("kReplicaState", WireReplicaStateRequest{}, "09"));
  {
    WirePromote m;
    m.tables.push_back({"YellowCab", 12, 3});
    m.tables.push_back({"G", 0, 0});
    rows.push_back(Row("kPromote", m,
                       "0a020959656c6c6f774361620c0000000000000003000000"
                       "00000000014700000000000000000000000000000000"));
  }
  rows.push_back(Row("kStatusReply",
                     WireStatus{StatusCode::kFailedPrecondition,
                                "replication gap"},
                     "10030f7265706c69636174696f6e20676170"));
  {
    // Grouped cells with int, double, null and string keys; -0.0 and
    // 1e300 must survive as exact bit patterns.
    WirePartial m;
    m.func = query::AggFunc::kSum;
    m.grouped = true;
    WireSpanPartial cell0;
    cell0.total = {42, 108.25, -7.5, 1e300, true};
    cell0.groups.push_back(
        {query::Value(int64_t{-5}), {1, 0.1, 0.1, 0.1, true}});
    cell0.groups.push_back({query::Value(2.5), {2, -0.0, -1.0, 1.0, true}});
    WireSpanPartial cell1;
    cell1.total = {7, 0.3, 0.1, 0.2, true};
    cell1.groups.push_back({query::Value(), {1, 0.0, 0.0, 0.0, false}});
    cell1.groups.push_back(
        {query::Value(std::string("zone")), {0, 0.0, 0.0, 0.0, false}});
    m.spans = {cell0, cell1};
    m.records_scanned = 12345;
    m.oram_paths = 17;
    m.oram_buckets = 170;
    rows.push_back(Row("kPartialReply", m,
                       "11020102540000000000105b400000000000001ec09c7500"
                       "883ce4377e01020109029a9999999999b93f9a9999999999"
                       "b93f9a9999999999b93f0102000000000000044004000000"
                       "0000000080000000000000f0bf000000000000f03f010e33"
                       "3333333333d33f9a9999999999b93f9a9999999999c93f01"
                       "020002000000000000000000000000000000000000000000"
                       "0000000003047a6f6e650000000000000000000000000000"
                       "000000000000000000000000f2c00122d402"));
  }
  {
    WireReplicaState m;
    m.follower = true;
    m.tables.push_back({"YellowCab", 12, 3});
    m.tables.push_back({"G", 0, 0});
    rows.push_back(Row("kReplicaStateReply", m,
                       "1301020959656c6c6f774361620c00000000000000030000"
                       "0000000000014700000000000000000000000000000000"));
  }
  return rows;
}

TEST(GoldenBytesTest, EveryKindEncodesToItsPinnedBytes) {
  std::set<MsgKind> kinds;
  for (const Golden& row : GoldenTable()) {
    SCOPED_TRACE(row.kind);
    ASSERT_OK(row.encoded);
    EXPECT_EQ(ToHex(row.encoded.value()), row.hex);
    const Bytes golden = Hex(row.hex);
    auto again = row.reencode(golden);
    ASSERT_OK(again);
    EXPECT_EQ(ToHex(again.value()), row.hex);
    auto kind = PeekKind(golden);
    ASSERT_OK(kind);
    kinds.insert(kind.value());
  }
  EXPECT_EQ(kinds.size(), 9u) << "one golden row per message kind";
}

TEST(GoldenBytesTest, EveryTruncationAndATrailingByteRejected) {
  for (const Golden& row : GoldenTable()) {
    SCOPED_TRACE(row.kind);
    const Bytes golden = Hex(row.hex);
    for (size_t keep = 0; keep < golden.size(); ++keep) {
      Bytes torn(golden.begin(), golden.begin() + static_cast<long>(keep));
      EXPECT_NOT_OK(row.reencode(torn)) << "kept " << keep << " bytes";
    }
    Bytes padded = golden;
    padded.push_back(0x00);
    EXPECT_NOT_OK(row.reencode(padded));
  }
}

TEST(GoldenBytesTest, DecodingAsAnotherKindRejected) {
  const std::vector<Golden> rows = GoldenTable();
  for (const Golden& bytes_of : rows) {
    const Bytes golden = Hex(bytes_of.hex);
    for (const Golden& decode_as : rows) {
      if (decode_as.kind == bytes_of.kind) continue;
      EXPECT_NOT_OK(decode_as.reencode(golden))
          << bytes_of.kind << " bytes decoded as " << decode_as.kind;
    }
  }
}

// ------------------------------------------------------ other messages

TEST(MessageTest, StatusCodesRoundTripAndUnknownCodesRejected) {
  for (auto code : {StatusCode::kOk, StatusCode::kInvalidArgument,
                    StatusCode::kFailedPrecondition, StatusCode::kNotFound,
                    StatusCode::kResourceExhausted,
                    StatusCode::kUnavailable}) {
    Status original(code, code == StatusCode::kOk ? "" : "what went wrong");
    auto encoded = Encode(WireStatus{original.code(), original.message()});
    ASSERT_OK(encoded);
    auto decoded = Decode<WireStatus>(encoded.value());
    ASSERT_OK(decoded);
    Status back = decoded.value().ToStatus();
    EXPECT_EQ(back.code(), original.code());
    EXPECT_EQ(back.message(), original.message());
  }
  // The code byte is an enum tag: one past kUnavailable is malformed.
  constexpr uint8_t kPastLast = static_cast<int>(StatusCode::kUnavailable) + 1;
  EXPECT_NOT_OK(Decode<WireStatus>(Bytes{0x10, kPastLast, 0x00}));
}

TEST(MessageTest, PeekKindRejectsEmptyAndUnknownKinds) {
  EXPECT_NOT_OK(PeekKind(Bytes{}));
  // 5, 6 and 18 were kinds nothing sent, 2 shipped plans that each
  // kExecute ships anyway, and 8 and 20 fed a lagging follower from its
  // leader's spans, which nothing called; their numbers stay unassigned.
  for (uint8_t retired : {2, 5, 6, 8, 18, 20}) {
    EXPECT_NOT_OK(PeekKind(Bytes{retired}));
  }
}

// ---------------------------------------------------- resource bounds

/// The largest single allocation made while decoding `payload` as a T,
/// which must be rejected.
template <typename T>
size_t LargestAllocationDecoding(const Bytes& payload) {
  g_largest_allocation = 0;
  g_track_allocations = true;
  const bool rejected = !Decode<T>(payload).ok();
  g_track_allocations = false;
  EXPECT_TRUE(rejected);
  return g_largest_allocation.load();
}

TEST(AllocationBoundTest, LengthAndCountLiesAllocateNothingLarge) {
  // A few bytes that claim a huge list or string (the varint ff ff ff 07
  // is 16,777,215, ff ff ff 1f is 67,108,863) must be rejected before
  // anything near the claimed size is allocated; the error message is
  // the largest allocation left.
  EXPECT_LT(LargestAllocationDecoding<WireReplicaState>(
                {0x13, 0x00, 0xff, 0xff, 0xff, 0x07}),
            1024u);
  EXPECT_LT(LargestAllocationDecoding<WirePartial>(
                {0x11, 0x02, 0x01, 0xff, 0xff, 0xff, 0x07}),
            1024u);
  EXPECT_LT(LargestAllocationDecoding<WireStatus>(
                {0x10, 0x03, 0xff, 0xff, 0xff, 0x1f}),
            1024u);
}

TEST(FrameBoundTest, EncoderRefusesMessagesOverTheFrameBound) {
  WireIngest ingest;
  ingest.table = "T";
  ingest.entries.push_back({0, Bytes(kMaxFrameBytes, 0xEE)});
  auto over = Encode(ingest);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);

  // Exactly kMaxFrameBytes still encodes: kind, table, flag, two fixed64s,
  // the entry count, the shard and a 4-byte ciphertext length.
  constexpr size_t kOverhead = 1 + 2 + 1 + 8 + 8 + 1 + 1 + 4;
  ingest.entries[0].ciphertext.resize(kMaxFrameBytes - kOverhead);
  auto fits = Encode(ingest);
  ASSERT_OK(fits);
  EXPECT_EQ(fits.value().size(), size_t{kMaxFrameBytes});
}

}  // namespace
}  // namespace dpsync::net
