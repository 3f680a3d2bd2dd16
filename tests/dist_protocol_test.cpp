// Dist wire protocol: the one DistMsg codec every coordinator/worker
// message shares must be total over hostile byte streams — the same
// discipline (and fuzz shapes) as the rr_serverd lane in
// serve_protocol_test.cpp, because a worker socket carries whatever the
// peer process writes. A malformed stream drops a worker, never
// aborts the coordinator or balloons memory.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "dist/protocol.hpp"
#include "sim/wire.hpp"

namespace rr::dist {
namespace {

using rr::Rng;

const std::uint8_t* bytes(const std::string& s) {
  return reinterpret_cast<const std::uint8_t*>(s.data());
}

/// A message exercising every field: multi-byte varints, a pair list,
/// lists including an empty one, and text with embedded NULs.
DistMsg sample_msg(MsgKind kind = MsgKind::kGathered) {
  DistMsg m;
  m.kind = kind;
  m.round = 1ull << 40;
  m.shard = 3;
  m.value = 0xDEADBEEFCAFEF00Dull;
  m.value2 = 300;
  m.pairs = {{0, 1}, {128, 12345}, {1ull << 33, ~std::uint64_t{0}}};
  m.lists = {{7, 0, 1ull << 50}, {}, {200}};
  m.text = std::string("torus 4 4\x00\x01\xff", 12);
  return m;
}

TEST(DistProtocol, EveryKindRoundTripsThroughTheCodec) {
  for (std::uint8_t k = static_cast<std::uint8_t>(MsgKind::kInit);
       k <= static_cast<std::uint8_t>(MsgKind::kShutdown); ++k) {
    const DistMsg m = sample_msg(static_cast<MsgKind>(k));
    const std::string payload = encode_msg(m);
    const auto back = decode_msg(bytes(payload), payload.size());
    ASSERT_TRUE(back.has_value()) << "kind=" << int{k};
    EXPECT_EQ(back->kind, m.kind);
    EXPECT_EQ(back->round, m.round);
    EXPECT_EQ(back->shard, m.shard);
    EXPECT_EQ(back->value, m.value);
    EXPECT_EQ(back->value2, m.value2);
    EXPECT_EQ(back->pairs, m.pairs);
    EXPECT_EQ(back->lists, m.lists);
    EXPECT_EQ(back->text, m.text);
  }
}

TEST(DistProtocol, EmptyFieldsCostOneByteEachAndRoundTrip) {
  // The generic shape's promise: a kind that uses nothing pays four zero
  // scalars plus three zero counts on top of the kind byte.
  DistMsg m;
  m.kind = MsgKind::kOk;
  const std::string payload = encode_msg(m);
  EXPECT_EQ(payload.size(), 8u);
  const auto back = decode_msg(bytes(payload), payload.size());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->kind, MsgKind::kOk);
  EXPECT_TRUE(back->pairs.empty());
  EXPECT_TRUE(back->lists.empty());
  EXPECT_TRUE(back->text.empty());
}

TEST(DistProtocol, TruncationAtEveryCutAndTrailingBytesAreRejected) {
  // Unlike the serve request codec there are no legacy wire shapes: every
  // strict prefix is malformed, as is anything after the text blob.
  const std::string payload = encode_msg(sample_msg());
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(decode_msg(bytes(payload), cut)) << "cut=" << cut;
  }
  EXPECT_FALSE(decode_msg(bytes(payload + "x"), payload.size() + 1));
  EXPECT_FALSE(decode_msg(bytes(payload + std::string(1, '\0')),
                          payload.size() + 1));
}

TEST(DistProtocol, UnknownKindBytesAreRejected) {
  const std::string payload = encode_msg(sample_msg());
  for (const std::uint8_t k : {0, 16, 127, 255}) {
    std::string bad = payload;
    bad[0] = static_cast<char>(k);
    EXPECT_FALSE(decode_msg(bytes(bad), bad.size())) << "kind=" << int{k};
  }
}

TEST(DistProtocol, CraftedCountsCannotBalloonMemory) {
  // Counts claiming ~2^60 elements backed by no bytes must be rejected
  // before any reserve — the coordinator decodes frames whose payload a
  // worker controls entirely.
  const std::uint64_t huge = 1ull << 60;
  const auto craft = [&](std::vector<std::uint64_t> tail) {
    std::string p;
    p.push_back(static_cast<char>(MsgKind::kSpill));
    for (int i = 0; i < 4; ++i) sim::wire::put_varint(p, 0);  // scalars
    for (const std::uint64_t v : tail) sim::wire::put_varint(p, v);
    return p;
  };
  const std::vector<std::vector<std::uint64_t>> attacks = {
      {huge},              // pair count
      {0, huge},           // list count
      {0, 1, huge},        // inner list length
      {0, 0, huge},        // text length
  };
  for (std::size_t i = 0; i < attacks.size(); ++i) {
    const std::string p = craft(attacks[i]);
    EXPECT_FALSE(decode_msg(bytes(p), p.size())) << "attack=" << i;
  }
}

TEST(DistProtocol, FrameDecoderSplitsAPipelinedSpillStream) {
  // A worker's scan output is exactly this: several kSpill frames then a
  // kScanDone, pipelined on one socket. Fed byte by byte, the payloads
  // come out intact and in order.
  std::vector<std::string> payloads;
  for (int i = 0; i < 3; ++i) {
    DistMsg spill = sample_msg(MsgKind::kSpill);
    spill.shard = static_cast<std::uint64_t>(i);
    payloads.push_back(encode_msg(spill));
  }
  payloads.push_back(encode_msg(sample_msg(MsgKind::kScanDone)));
  std::string stream;
  for (const auto& p : payloads) stream += encode_frame(p);

  FrameDecoder dec;
  std::vector<std::string> got;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto b = static_cast<std::uint8_t>(stream[i]);
    dec.feed(&b, 1);
    EXPECT_LE(dec.buffered(), i + 1);
    while (const auto payload = dec.next()) got.push_back(*payload);
  }
  EXPECT_FALSE(dec.fatal());
  EXPECT_EQ(got, payloads);
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(DistProtocol, CrcFlipOnADistFrameIsFatal) {
  const std::string frame = encode_frame(encode_msg(sample_msg()));
  for (const std::size_t at : {4ul, frame.size() / 2, frame.size() - 1}) {
    std::string mutated = frame;
    mutated[at] = static_cast<char>(mutated[at] ^ 1);
    FrameDecoder dec;
    dec.feed(bytes(mutated), mutated.size());
    EXPECT_FALSE(dec.next().has_value()) << "at=" << at;
    EXPECT_TRUE(dec.fatal()) << "at=" << at;
  }
}

TEST(DistProtocol, OversizedLengthDeclarationIsFatalWithoutAllocation) {
  std::string header;
  sim::wire::put_u32le(header, 1u << 30);
  FrameDecoder dec;
  dec.feed(bytes(header), header.size());
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_TRUE(dec.fatal());
  EXPECT_LE(dec.buffered(), 4u);
}

TEST(DistProtocol, FuzzedStreamsNeverAbort) {
  // Random flips / deletions / duplications over a real multi-frame spill
  // stream, mirroring the serve and ckpt_v2 fuzz lanes: the decoder
  // either yields payloads (which decode_msg then accepts or rejects) or
  // goes fatal — never aborts, never hands back a frame longer than the
  // stream.
  std::string stream;
  for (int i = 0; i < 4; ++i) {
    DistMsg m = sample_msg(i % 2 == 0 ? MsgKind::kSpill : MsgKind::kGathered);
    m.round = static_cast<std::uint64_t>(i) + 1;
    stream += encode_frame(encode_msg(m));
  }
  Rng rng(0xF0CC);
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = stream;
    const int op = static_cast<int>(rng.bounded(3));
    if (op == 0) {
      mutated[rng.bounded(static_cast<std::uint32_t>(mutated.size()))] =
          static_cast<char>(rng.bounded(256));
    } else if (op == 1) {
      mutated.erase(rng.bounded(static_cast<std::uint32_t>(mutated.size())),
                    1 + rng.bounded(16));
    } else {
      const std::size_t at =
          rng.bounded(static_cast<std::uint32_t>(mutated.size()));
      mutated.insert(at, mutated.substr(at, 1 + rng.bounded(8)));
    }
    FrameDecoder dec;
    std::size_t fed = 0;
    while (fed < mutated.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(1 + rng.bounded(64), mutated.size() - fed);
      dec.feed(bytes(mutated) + fed, chunk);
      fed += chunk;
      while (const auto payload = dec.next()) {
        ASSERT_LE(payload->size(), mutated.size());
        (void)decode_msg(bytes(*payload), payload->size());
      }
      if (dec.fatal()) break;
    }
  }
}

}  // namespace
}  // namespace rr::dist
