// Wire-codec tests: every frame type round-trips through encode ->
// FrameAssembler regardless of how the byte stream is chunked, and every
// way a stream can be malformed (bad magic, bad version, oversized length
// prefix, unknown type, truncated or over-long payload) maps to its typed
// `WireError` and poisons the assembler for good.

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/net/wire.h"

namespace streamad::net::wire {
namespace {

EventBatchFrame MakeBatch() {
  EventBatchFrame batch;
  batch.batch_id = 77;
  batch.events.push_back(WireEvent{"sensor-0", {0.5, -1.25, 3.0}});
  batch.events.push_back(WireEvent{"sensor-1", {}});
  batch.events.push_back(WireEvent{"sensor-0", {2.0}});
  return batch;
}

/// Encodes one of every frame type back-to-back.
std::string EncodeAllTypes() {
  std::string bytes;
  HelloFrame hello;
  hello.features = 0b1011;
  hello.client = "test-client";
  AppendHello(&bytes, hello);

  HelloAckFrame ack;
  ack.features = 0b0011;
  ack.server = "test-server";
  AppendHelloAck(&bytes, ack);

  AppendEventBatch(&bytes, MakeBatch());

  ScoreBatchFrame scores;
  scores.entries.push_back(
      ScoreEntry{"sensor-0", 41, kScoreFlagScored, 0.25, 0.75});
  scores.entries.push_back(ScoreEntry{
      "sensor-1", 42, kScoreFlagScored | kScoreFlagFinetuned, 1.5, 0.125});
  AppendScoreBatch(&bytes, scores);

  NackFrame nack;
  nack.batch_id = 77;
  nack.entries.push_back(NackEntry{2, NackCode::kThrottled, "slow down"});
  nack.entries.push_back(NackEntry{5, NackCode::kUnknownStream, "who?"});
  AppendNack(&bytes, nack);

  AppendHealthProbe(&bytes);

  HealthFrame health;
  health.healthy = 1;
  health.sessions = 6;
  health.resident = 4;
  health.processed = 12345;
  health.throttled = 8;
  health.dropped = 1;
  AppendHealth(&bytes, health);
  return bytes;
}

std::vector<Frame> DrainAll(FrameAssembler* assembler) {
  std::vector<Frame> frames;
  Frame frame;
  while (assembler->Next(&frame) == FrameAssembler::Result::kFrame) {
    frames.push_back(frame);
  }
  return frames;
}

void ExpectAllTypes(const std::vector<Frame>& frames) {
  ASSERT_EQ(frames.size(), 7u);

  ASSERT_EQ(frames[0].type, FrameType::kHello);
  const auto& hello = std::get<HelloFrame>(frames[0].payload);
  EXPECT_EQ(hello.proto_version, kWireVersion);
  EXPECT_EQ(hello.features, 0b1011u);
  EXPECT_EQ(hello.client, "test-client");

  ASSERT_EQ(frames[1].type, FrameType::kHelloAck);
  const auto& ack = std::get<HelloAckFrame>(frames[1].payload);
  EXPECT_EQ(ack.features, 0b0011u);
  EXPECT_EQ(ack.server, "test-server");

  ASSERT_EQ(frames[2].type, FrameType::kEventBatch);
  const auto& batch = std::get<EventBatchFrame>(frames[2].payload);
  EXPECT_EQ(batch.batch_id, 77u);
  ASSERT_EQ(batch.events.size(), 3u);
  EXPECT_EQ(batch.events[0].stream_id, "sensor-0");
  ASSERT_EQ(batch.events[0].values.size(), 3u);
  EXPECT_DOUBLE_EQ(batch.events[0].values[1], -1.25);
  EXPECT_TRUE(batch.events[1].values.empty());
  EXPECT_EQ(batch.events[2].stream_id, "sensor-0");

  ASSERT_EQ(frames[3].type, FrameType::kScoreBatch);
  const auto& scores = std::get<ScoreBatchFrame>(frames[3].payload);
  ASSERT_EQ(scores.entries.size(), 2u);
  EXPECT_EQ(scores.entries[0].stream_id, "sensor-0");
  EXPECT_EQ(scores.entries[0].t, 41);
  EXPECT_EQ(scores.entries[0].flags, kScoreFlagScored);
  EXPECT_DOUBLE_EQ(scores.entries[0].nonconformity, 0.25);
  EXPECT_DOUBLE_EQ(scores.entries[1].anomaly_score, 0.125);
  EXPECT_EQ(scores.entries[1].flags, kScoreFlagScored | kScoreFlagFinetuned);

  ASSERT_EQ(frames[4].type, FrameType::kNack);
  const auto& nack = std::get<NackFrame>(frames[4].payload);
  EXPECT_EQ(nack.batch_id, 77u);
  ASSERT_EQ(nack.entries.size(), 2u);
  EXPECT_EQ(nack.entries[0].index, 2u);
  EXPECT_EQ(nack.entries[0].code, NackCode::kThrottled);
  EXPECT_EQ(nack.entries[0].detail, "slow down");
  EXPECT_EQ(nack.entries[1].code, NackCode::kUnknownStream);

  ASSERT_EQ(frames[5].type, FrameType::kHealthProbe);

  ASSERT_EQ(frames[6].type, FrameType::kHealth);
  const auto& health = std::get<HealthFrame>(frames[6].payload);
  EXPECT_EQ(health.healthy, 1);
  EXPECT_EQ(health.sessions, 6u);
  EXPECT_EQ(health.resident, 4u);
  EXPECT_EQ(health.processed, 12345u);
  EXPECT_EQ(health.throttled, 8u);
  EXPECT_EQ(health.dropped, 1u);
}

TEST(WireCodec, EveryFrameTypeRoundTripsInOneChunk) {
  FrameAssembler assembler;
  assembler.Append(EncodeAllTypes());
  ExpectAllTypes(DrainAll(&assembler));
  EXPECT_EQ(assembler.error(), WireError::kNone);
  EXPECT_EQ(assembler.pending_bytes(), 0u);
}

TEST(WireCodec, ReassemblesAcrossRandomChunkBoundaries) {
  // TCP delivers bytes, not frames: re-split the same stream 50 different
  // ways (including 1-byte dribbles) and demand identical decodes.
  const std::string bytes = EncodeAllTypes();
  std::mt19937 rng(20260809);
  for (int round = 0; round < 50; ++round) {
    FrameAssembler assembler;
    std::vector<Frame> frames;
    std::size_t offset = 0;
    std::uniform_int_distribution<std::size_t> chunk_size(1, 23);
    while (offset < bytes.size()) {
      const std::size_t n = std::min(chunk_size(rng), bytes.size() - offset);
      assembler.Append(std::string_view(bytes).substr(offset, n));
      offset += n;
      Frame frame;
      while (assembler.Next(&frame) == FrameAssembler::Result::kFrame) {
        frames.push_back(frame);
      }
      ASSERT_EQ(assembler.error(), WireError::kNone);
    }
    ExpectAllTypes(frames);
  }
}

TEST(WireCodec, PartialHeaderNeedsMore) {
  std::string bytes;
  AppendHealthProbe(&bytes);
  FrameAssembler assembler;
  assembler.Append(std::string_view(bytes).substr(0, kFrameHeaderBytes - 1));
  Frame frame;
  EXPECT_EQ(assembler.Next(&frame), FrameAssembler::Result::kNeedMore);
  EXPECT_EQ(assembler.error(), WireError::kNone);
}

TEST(WireCodec, BadMagicIsTypedAndSticky) {
  std::string bytes;
  AppendFrameRaw(&bytes, 0xdeadbeef, kWireVersion,
                 static_cast<std::uint8_t>(FrameType::kHealthProbe), "");
  AppendHealthProbe(&bytes);  // a valid frame behind the broken one
  FrameAssembler assembler;
  assembler.Append(bytes);
  Frame frame;
  EXPECT_EQ(assembler.Next(&frame), FrameAssembler::Result::kError);
  EXPECT_EQ(assembler.error(), WireError::kBadMagic);
  // Sticky: resynchronising on a byte stream with a framing error is
  // impossible, so the valid frame behind it must NOT come out.
  EXPECT_EQ(assembler.Next(&frame), FrameAssembler::Result::kError);
  EXPECT_EQ(assembler.error(), WireError::kBadMagic);
}

TEST(WireCodec, BadVersionIsTyped) {
  std::string bytes;
  AppendFrameRaw(&bytes, kWireMagic, kWireVersion + 1,
                 static_cast<std::uint8_t>(FrameType::kHealthProbe), "");
  FrameAssembler assembler;
  assembler.Append(bytes);
  Frame frame;
  EXPECT_EQ(assembler.Next(&frame), FrameAssembler::Result::kError);
  EXPECT_EQ(assembler.error(), WireError::kBadVersion);
}

TEST(WireCodec, OversizedLengthPrefixRejectedBeforeBuffering) {
  // Header claims a payload over the cap; the assembler must fail from
  // the header alone instead of waiting to buffer 4 GiB.
  std::string bytes;
  std::string header_only;
  AppendFrameRaw(&header_only, kWireMagic, kWireVersion,
                 static_cast<std::uint8_t>(FrameType::kEventBatch), "");
  // Patch the payload-length field (offset 6) to kMaxPayloadBytes + 1.
  const std::uint32_t huge = kMaxPayloadBytes + 1;
  header_only.resize(kFrameHeaderBytes);
  header_only[6] = static_cast<char>(huge & 0xff);
  header_only[7] = static_cast<char>((huge >> 8) & 0xff);
  header_only[8] = static_cast<char>((huge >> 16) & 0xff);
  header_only[9] = static_cast<char>((huge >> 24) & 0xff);
  FrameAssembler assembler;
  assembler.Append(header_only);
  Frame frame;
  EXPECT_EQ(assembler.Next(&frame), FrameAssembler::Result::kError);
  EXPECT_EQ(assembler.error(), WireError::kOversized);
}

TEST(WireCodec, EventBatchClaimingHugeVectorIsTruncatedPayload) {
  // A ~40-byte EVENT_BATCH whose one event claims 2^27 values: decoding
  // fails on the missing bytes without first sizing a 1 GiB vector.
  std::string payload;
  const auto put = [&payload](auto value) {
    payload.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  put(std::uint64_t{9});        // batch_id
  put(std::uint32_t{1});        // one event
  put(std::uint64_t{1});        // stream id length
  payload += "s";
  put(std::uint64_t{1} << 27);  // claimed values
  put(1.0);                     // ...of which one arrives
  std::string bytes;
  AppendFrameRaw(&bytes, kWireMagic, kWireVersion,
                 static_cast<std::uint8_t>(FrameType::kEventBatch), payload);
  FrameAssembler assembler;
  assembler.Append(bytes);
  Frame frame;
  EXPECT_EQ(assembler.Next(&frame), FrameAssembler::Result::kError);
  EXPECT_EQ(assembler.error(), WireError::kTruncatedPayload);
}

TEST(WireCodec, UnknownTypeIsTyped) {
  std::string bytes;
  AppendFrameRaw(&bytes, kWireMagic, kWireVersion, 99, "");
  FrameAssembler assembler;
  assembler.Append(bytes);
  Frame frame;
  EXPECT_EQ(assembler.Next(&frame), FrameAssembler::Result::kError);
  EXPECT_EQ(assembler.error(), WireError::kUnknownType);
}

TEST(WireCodec, TruncatedPayloadIsTyped) {
  // A HELLO whose payload stops mid-field: take a real hello payload and
  // chop the last byte, fixing up the length prefix to match.
  std::string bytes;
  HelloFrame hello;
  hello.client = "abcdef";
  AppendHello(&bytes, hello);
  std::string chopped = bytes.substr(0, bytes.size() - 1);
  const std::uint32_t payload_len =
      static_cast<std::uint32_t>(chopped.size() - kFrameHeaderBytes);
  chopped[6] = static_cast<char>(payload_len & 0xff);
  chopped[7] = static_cast<char>((payload_len >> 8) & 0xff);
  chopped[8] = static_cast<char>((payload_len >> 16) & 0xff);
  chopped[9] = static_cast<char>((payload_len >> 24) & 0xff);
  FrameAssembler assembler;
  assembler.Append(chopped);
  Frame frame;
  EXPECT_EQ(assembler.Next(&frame), FrameAssembler::Result::kError);
  EXPECT_EQ(assembler.error(), WireError::kTruncatedPayload);
}

TEST(WireCodec, TrailingPayloadGarbageIsTyped) {
  // The inverse fault: payload longer than its fields claim. A frame must
  // consume its payload exactly.
  std::string payload_and_garbage;
  {
    std::string full;
    HelloFrame hello;
    hello.client = "x";
    AppendHello(&full, hello);
    payload_and_garbage = full.substr(kFrameHeaderBytes);
    payload_and_garbage += "JUNK";
  }
  std::string bytes;
  AppendFrameRaw(&bytes, kWireMagic, kWireVersion,
                 static_cast<std::uint8_t>(FrameType::kHello),
                 payload_and_garbage);
  FrameAssembler assembler;
  assembler.Append(bytes);
  Frame frame;
  EXPECT_EQ(assembler.Next(&frame), FrameAssembler::Result::kError);
  EXPECT_EQ(assembler.error(), WireError::kTruncatedPayload);
}

TEST(WireCodec, NackCodeOutOfRangeIsTruncatedPayload) {
  // Encode a NACK then corrupt its code byte to 200; the decoder bounds-
  // checks enum ranges rather than reinterpreting garbage.
  std::string bytes;
  NackFrame nack;
  nack.entries.push_back(NackEntry{0, NackCode::kDropped, ""});
  AppendNack(&bytes, nack);
  bool patched = false;
  for (std::size_t i = kFrameHeaderBytes; i < bytes.size(); ++i) {
    if (bytes[i] == static_cast<char>(NackCode::kDropped)) {
      bytes[i] = static_cast<char>(200);
      patched = true;
      break;
    }
  }
  ASSERT_TRUE(patched);
  FrameAssembler assembler;
  assembler.Append(bytes);
  Frame frame;
  EXPECT_EQ(assembler.Next(&frame), FrameAssembler::Result::kError);
  EXPECT_EQ(assembler.error(), WireError::kTruncatedPayload);
}

TEST(WireCodec, PendingBytesTracksConsumption) {
  std::string bytes = EncodeAllTypes();
  FrameAssembler assembler;
  assembler.Append(bytes);
  EXPECT_EQ(assembler.pending_bytes(), bytes.size());
  Frame frame;
  ASSERT_EQ(assembler.Next(&frame), FrameAssembler::Result::kFrame);
  EXPECT_LT(assembler.pending_bytes(), bytes.size());
  DrainAll(&assembler);
  EXPECT_EQ(assembler.pending_bytes(), 0u);
}

}  // namespace
}  // namespace streamad::net::wire
