// Tests for the wire codec, including the contract that the mailboxes'
// wire_size() byte accounting equals the codec's real encoded sizes.
#include <gtest/gtest.h>

#include "core/high_load.hpp"
#include "core/termination.hpp"
#include "gossip/codec.hpp"
#include "gossip/mailbox.hpp"
#include "problems/min_disk.hpp"
#include "util/rng.hpp"

namespace lpt::gossip {
namespace {

TEST(Codec, ScalarRoundTrip) {
  Encoder enc;
  enc.put_u32(0xdeadbeef);
  enc.put_u64(0x0123456789abcdefULL);
  enc.put_f64(-1.5e300);
  enc.put_u8(7);
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(dec.get_u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(dec.get_f64(), -1.5e300);
  EXPECT_EQ(dec.get_u8(), 7);
  EXPECT_TRUE(dec.exhausted());
}

TEST(Codec, Vec2RoundTripPreservesBits) {
  util::Rng rng(1);
  Encoder enc;
  std::vector<geom::Vec2> pts;
  for (int i = 0; i < 50; ++i) {
    pts.push_back({rng.uniform(-1e9, 1e9), rng.normal()});
    enc.put(pts.back());
  }
  Decoder dec(enc.bytes());
  for (const auto& p : pts) {
    const auto q = dec.get_vec2();
    EXPECT_EQ(p, q);
  }
}

TEST(Codec, HalfplaneRoundTrip) {
  Encoder enc;
  const lp::Halfplane h{{0.25, -3.0}, 17.5};
  enc.put(h);
  EXPECT_EQ(enc.size(), kWireBytesHalfplane);
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get_halfplane(), h);
}

TEST(Codec, SequenceRoundTrip) {
  Encoder enc;
  std::vector<std::uint32_t> ids{5, 9, 1u << 30};
  enc.put_sequence(std::span<const std::uint32_t>(ids));
  Decoder dec(enc.bytes());
  const auto back = dec.get_sequence<std::uint32_t>(
      [](Decoder& d) { return d.get_u32(); });
  EXPECT_EQ(back, ids);
}

TEST(Codec, DecodePastEndAborts) {
  Encoder enc;
  enc.put_u32(1);
  Decoder dec(enc.bytes());
  dec.get_u32();
  EXPECT_DEATH(dec.get_u32(), "decode past end");
}

TEST(Codec, WireSizeContractVec2) {
  // The mailbox meter charges sizeof(Vec2) per point — that must equal
  // the codec's encoded size, or the byte accounting would be fiction.
  EXPECT_EQ(wire_size(geom::Vec2{}), kWireBytesVec2);
  Encoder enc;
  enc.put(geom::Vec2{1, 2});
  EXPECT_EQ(enc.size(), kWireBytesVec2);
}

TEST(Codec, WireSizeContractHalfplane) {
  EXPECT_EQ(wire_size(lp::Halfplane{}), kWireBytesHalfplane);
}

TEST(Codec, WireSizeContractElementId) {
  EXPECT_EQ(wire_size(std::uint32_t{0}), kWireBytesElementId);
}

TEST(Codec, WireSizeContractBasisMessage) {
  // High-load basis message: a slice of the round's basis pool carrying d
  // points; the meter charges the points, no padding and no slice indices.
  const std::vector<geom::Vec2> pool{{9, 9}, {1, 2}, {3, 4}, {5, 6}};
  const core::detail::BasisSlice<geom::Vec2> msg{1, 3};
  EXPECT_EQ(wire_size(msg), 3 * kWireBytesVec2);
  Encoder enc;
  enc.put_sequence(
      std::span<const geom::Vec2>(pool).subspan(msg.offset, msg.count));
  // Codec adds a 4-byte length prefix; the meter charges elements only —
  // the prefix is O(1) bits and does not change the O(log n) accounting.
  EXPECT_EQ(enc.size(), 4 + 3 * kWireBytesVec2);
}

TEST(Codec, WireSizeContractTerminationMessage) {
  using Term = core::TerminationProtocol<problems::MinDisk>;
  Term::Message m;
  m.t = 3;
  m.x = 1;
  m.basis = {{0, 0}, {1, 1}};
  EXPECT_EQ(wire_size(m), sizeof(std::uint32_t) + sizeof(std::uint8_t) +
                              2 * kWireBytesVec2);
}

TEST(Codec, MessageBitsAreLogarithmic) {
  // O(log n) bits per message: a Vec2 is 128 bits; a basis of <= 3 points
  // is 384 bits + header — constants, independent of n, for coordinates
  // of fixed precision.  This test pins those constants so accidental
  // message-format growth is caught.
  EXPECT_LE(8 * wire_size(geom::Vec2{}), 128u);
  const core::detail::BasisSlice<geom::Vec2> basis{0, 3};
  EXPECT_LE(8 * wire_size(basis), 384u);
}

}  // namespace
}  // namespace lpt::gossip
