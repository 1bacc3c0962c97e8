// Frame protocol round-trips and rejection diagnostics: every message type
// survives encode -> decode bit-exactly, and every malformed frame class
// (magic, length, checksum, type, body bounds, count-prefix abuse) is
// rejected with a precise diagnostic.
#include "fabric/protocol.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

namespace xmap::fabric {
namespace {

net::Ipv6Address addr(const char* s) { return *net::Ipv6Address::parse(s); }

WireRecord sample_record(int i) {
  WireRecord rec;
  rec.response.kind = static_cast<scan::ResponseKind>(
      i % (static_cast<int>(scan::ResponseKind::kOther) + 1));
  rec.response.responder = addr("2001:db8::1");
  rec.response.probe_dst = addr("2001:db8:ffff::2");
  rec.response.icmp_code = static_cast<std::uint8_t>(i);
  rec.response.hop_limit = static_cast<std::uint8_t>(64 - i % 8);
  rec.when = 1000 + static_cast<std::uint64_t>(i) * 17;
  rec.raw_slot = 4096 + static_cast<std::uint64_t>(i);
  return rec;
}

void expect_roundtrip(const Message& msg) {
  const std::string frame = encode_frame(msg);
  auto decoded = decode_frame(frame);
  ASSERT_TRUE(decoded.message.has_value()) << decoded.error;
  const Message& got = *decoded.message;
  EXPECT_EQ(got.type, msg.type);
  EXPECT_EQ(got.seq, msg.seq);
  EXPECT_EQ(got.worker, msg.worker);
  EXPECT_EQ(got.ack_seq, msg.ack_seq);
  EXPECT_EQ(got.shard, msg.shard);
  EXPECT_EQ(got.epoch, msg.epoch);
  EXPECT_EQ(got.shards_total, msg.shards_total);
  EXPECT_EQ(got.budget_cut, msg.budget_cut);
  EXPECT_EQ(got.fingerprint, msg.fingerprint);
  EXPECT_EQ(got.has_resume, msg.has_resume);
  EXPECT_EQ(got.has_lease, msg.has_lease);
  EXPECT_EQ(got.cursor.frontier_slot, msg.cursor.frontier_slot);
  EXPECT_EQ(got.cursor.spec_steps, msg.cursor.spec_steps);
  EXPECT_EQ(got.stats, msg.stats);
  EXPECT_EQ(got.diagnostic, msg.diagnostic);
  ASSERT_EQ(got.records.size(), msg.records.size());
  for (std::size_t i = 0; i < msg.records.size(); ++i) {
    EXPECT_EQ(got.records[i].response.kind, msg.records[i].response.kind);
    EXPECT_EQ(got.records[i].response.responder,
              msg.records[i].response.responder);
    EXPECT_EQ(got.records[i].response.probe_dst,
              msg.records[i].response.probe_dst);
    EXPECT_EQ(got.records[i].response.icmp_code,
              msg.records[i].response.icmp_code);
    EXPECT_EQ(got.records[i].response.hop_limit,
              msg.records[i].response.hop_limit);
    EXPECT_EQ(got.records[i].when, msg.records[i].when);
    EXPECT_EQ(got.records[i].raw_slot, msg.records[i].raw_slot);
  }
}

TEST(FabricProtocol, RoundTripsEveryMessageType) {
  Message hello;
  hello.type = MsgType::kHello;
  hello.seq = 1;
  hello.worker = 7;
  expect_roundtrip(hello);

  Message assign;
  assign.type = MsgType::kAssign;
  assign.seq = 3;
  assign.shard = 5;
  assign.epoch = 2;
  assign.shards_total = 8;
  assign.budget_cut = 123456;
  assign.fingerprint = 0xdeadbeefcafef00dULL;
  assign.has_resume = true;
  assign.cursor.frontier_slot = 977;
  assign.cursor.spec_steps = {12, 0, 55, 7};
  expect_roundtrip(assign);

  // The no-resume variant round-trips too (fixed Assign layout: the cursor
  // travels either way, has_resume gates whether the worker honours it).
  assign.has_resume = false;
  expect_roundtrip(assign);

  Message refuse;
  refuse.type = MsgType::kRefuse;
  refuse.seq = 2;
  refuse.shard = 5;
  refuse.epoch = 2;
  refuse.diagnostic =
      "shard 5: scan fingerprint mismatch (stored 0x1, computed 0x2)";
  expect_roundtrip(refuse);

  Message heartbeat;
  heartbeat.type = MsgType::kHeartbeat;
  heartbeat.worker = 3;
  expect_roundtrip(heartbeat);

  Message ack;
  ack.type = MsgType::kAck;
  ack.ack_seq = 42;
  expect_roundtrip(ack);

  Message records;
  records.type = MsgType::kRecords;
  records.seq = 9;
  records.shard = 1;
  records.epoch = 1;
  for (int i = 0; i < 200; ++i) records.records.push_back(sample_record(i));
  expect_roundtrip(records);

  Message ckpt;
  ckpt.type = MsgType::kCheckpoint;
  ckpt.seq = 10;
  ckpt.shard = 1;
  ckpt.epoch = 1;
  ckpt.cursor.frontier_slot = 512;
  ckpt.cursor.spec_steps = {1, 2, 3};
  ckpt.stats.sent = 100;
  ckpt.stats.received = 80;
  ckpt.stats.validated = 75;
  expect_roundtrip(ckpt);

  Message done;
  done.type = MsgType::kShardDone;
  done.seq = 11;
  done.shard = 1;
  done.epoch = 1;
  done.stats.sent = 480;
  done.stats.targets_generated = 480;
  done.stats.provenance_misses = 3;
  expect_roundtrip(done);

  Message bye;
  bye.type = MsgType::kBye;
  expect_roundtrip(bye);

  Message rejoin;
  rejoin.type = MsgType::kRejoin;
  rejoin.worker = 4;
  rejoin.fingerprint = 0x0123456789abcdefULL;
  rejoin.has_lease = true;
  rejoin.shard = 6;
  rejoin.epoch = 3;
  expect_roundtrip(rejoin);

  // The no-lease variant: shard/epoch travel zeroed, has_lease gates them.
  rejoin.has_lease = false;
  rejoin.shard = 0;
  rejoin.epoch = 0;
  expect_roundtrip(rejoin);

  Message rejoin_ok;
  rejoin_ok.type = MsgType::kRejoinOk;
  rejoin_ok.worker = 4;
  expect_roundtrip(rejoin_ok);

  Message rejoin_refused;
  rejoin_refused.type = MsgType::kRejoinRefused;
  rejoin_refused.worker = 4;
  rejoin_refused.diagnostic =
      "stale lease on shard 6 (held epoch 3, current epoch 5)";
  expect_roundtrip(rejoin_refused);
}

// The wire size of one record is load-bearing: the decoder validates count
// prefixes against it before allocating, so it must match what put_record
// actually writes. A 128-record batch (the default flush size) must decode.
TEST(FabricProtocol, RecordBatchSizeMatchesWireConstant) {
  Message batch;
  batch.type = MsgType::kRecords;
  batch.seq = 1;
  for (int i = 0; i < 128; ++i) batch.records.push_back(sample_record(i));
  const std::string one = encode_frame([] {
    Message m;
    m.type = MsgType::kRecords;
    m.seq = 1;
    return m;
  }());
  const std::string many = encode_frame(batch);
  EXPECT_EQ(many.size() - one.size(), 128 * kWireRecordBytes);
  auto decoded = decode_frame(many);
  ASSERT_TRUE(decoded.message.has_value()) << decoded.error;
  EXPECT_EQ(decoded.message->records.size(), 128u);
}

TEST(FabricProtocol, RejectsBadMagic) {
  Message msg;
  msg.type = MsgType::kHeartbeat;
  std::string frame = encode_frame(msg);
  frame[0] = 'Z';
  auto decoded = decode_frame(frame);
  EXPECT_FALSE(decoded.message.has_value());
  EXPECT_NE(decoded.error.find("magic"), std::string::npos) << decoded.error;
}

TEST(FabricProtocol, RejectsShortAndTruncatedFrames) {
  EXPECT_FALSE(decode_frame("").message.has_value());
  EXPECT_FALSE(decode_frame("XFB").message.has_value());

  Message msg;
  msg.type = MsgType::kHello;
  msg.seq = 1;
  msg.worker = 2;
  const std::string frame = encode_frame(msg);
  for (std::size_t len = 0; len < frame.size(); ++len) {
    auto decoded = decode_frame(frame.substr(0, len));
    EXPECT_FALSE(decoded.message.has_value()) << "length " << len;
    EXPECT_FALSE(decoded.error.empty()) << "length " << len;
  }
}

TEST(FabricProtocol, RejectsTrailingBytes) {
  Message msg;
  msg.type = MsgType::kAck;
  msg.ack_seq = 1;
  auto decoded = decode_frame(encode_frame(msg) + "x");
  EXPECT_FALSE(decoded.message.has_value());
}

TEST(FabricProtocol, RejectsChecksumMismatchWithStoredAndComputed) {
  Message msg;
  msg.type = MsgType::kHeartbeat;
  msg.worker = 1;
  std::string frame = encode_frame(msg);
  frame[frame.size() - 1] ^= 0x01;  // corrupt the stored checksum
  auto decoded = decode_frame(frame);
  ASSERT_FALSE(decoded.message.has_value());
  EXPECT_NE(decoded.error.find("checksum mismatch"), std::string::npos)
      << decoded.error;
  EXPECT_NE(decoded.error.find("stored"), std::string::npos);
  EXPECT_NE(decoded.error.find("computed"), std::string::npos);
}

TEST(FabricProtocol, RejectsUnknownType) {
  // Build a frame whose only defect is an out-of-range type byte: payload
  // must be re-checksummed so the checksum check passes and the type check
  // is what fires.
  Message msg;
  msg.type = MsgType::kHeartbeat;
  msg.worker = 1;
  std::string frame = encode_frame(msg);
  const std::size_t payload_len = frame.size() - kFrameOverhead;
  // 15 is the first value past kRejoinRefused — the smallest out-of-range
  // type.
  for (std::uint8_t bad : {std::uint8_t{0}, std::uint8_t{15},
                           std::uint8_t{255}}) {
    std::string doctored = frame;
    doctored[8] = static_cast<char>(bad);
    const std::uint64_t sum =
        frame_checksum(std::string_view(doctored).substr(8, payload_len));
    std::memcpy(doctored.data() + 8 + payload_len, &sum, 8);
    auto decoded = decode_frame(doctored);
    EXPECT_FALSE(decoded.message.has_value()) << "type " << int(bad);
    EXPECT_NE(decoded.error.find("type"), std::string::npos) << decoded.error;
  }
}

// A hostile count prefix (huge record count over a small body) must be
// rejected by the pre-allocation bound check, not drive a giant reserve.
TEST(FabricProtocol, RejectsLyingRecordCountPrefix) {
  Message msg;
  msg.type = MsgType::kRecords;
  msg.seq = 1;
  msg.shard = 0;
  msg.epoch = 0;
  std::string frame = encode_frame(msg);  // zero records
  const std::size_t payload_len = frame.size() - kFrameOverhead;
  // The count prefix is the last u32 of the payload (no record bytes
  // follow). Rewrite it to claim 2^31 records and fix the checksum.
  const std::uint32_t lie = 1u << 31;
  std::memcpy(frame.data() + 8 + payload_len - 4, &lie, 4);
  const std::uint64_t sum =
      frame_checksum(std::string_view(frame).substr(8, payload_len));
  std::memcpy(frame.data() + 8 + payload_len, &sum, 8);
  auto decoded = decode_frame(frame);
  ASSERT_FALSE(decoded.message.has_value());
  EXPECT_NE(decoded.error.find("exceeds remaining"), std::string::npos)
      << decoded.error;
}

TEST(FabricProtocol, RejectsOversizedLengthPrefix) {
  Message msg;
  msg.type = MsgType::kHeartbeat;
  std::string frame = encode_frame(msg);
  const std::uint32_t huge = static_cast<std::uint32_t>(kMaxPayload + 1);
  std::memcpy(frame.data() + 4, &huge, 4);
  auto decoded = decode_frame(frame);
  ASSERT_FALSE(decoded.message.has_value());
  EXPECT_NE(decoded.error.find("payload"), std::string::npos)
      << decoded.error;
}

TEST(FabricProtocol, ChecksumIsFnv1aOverPayload) {
  // Pin the checksum primitive: FNV-1a 64 with the standard offset basis
  // and prime, byte order as written.
  EXPECT_EQ(frame_checksum(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(frame_checksum("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(frame_checksum("foobar"), 0x85944171f73967e8ULL);
}

}  // namespace
}  // namespace xmap::fabric
