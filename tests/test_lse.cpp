#include "net/lse.h"

#include <gtest/gtest.h>

namespace mum::net {
namespace {

TEST(LabelStackEntry, FieldsStored) {
  const LabelStackEntry lse(24005, 3, true, 1);
  EXPECT_EQ(lse.label(), 24005u);
  EXPECT_EQ(lse.traffic_class(), 3);
  EXPECT_TRUE(lse.bottom_of_stack());
  EXPECT_EQ(lse.ttl(), 1);
}

TEST(LabelStackEntry, LabelMaskedTo20Bits) {
  const LabelStackEntry lse(0xFFFFFFFF, 0, false, 0);
  EXPECT_EQ(lse.label(), kLabelMax);
}

TEST(LabelStackEntry, TcMaskedTo3Bits) {
  const LabelStackEntry lse(1, 0xFF, false, 0);
  EXPECT_EQ(lse.traffic_class(), 7);
}

TEST(LabelStackEntry, EncodeMatchesRfc3032Layout) {
  // label=16 (0x10), TC=1, S=1, TTL=255
  const LabelStackEntry lse(16, 1, true, 255);
  EXPECT_EQ(lse.encode(), (16u << 12) | (1u << 9) | (1u << 8) | 255u);
}

TEST(LabelStackEntry, DecodeEncodeRoundTrip) {
  for (const std::uint32_t label : {0u, 3u, 16u, 299776u, 1048575u}) {
    for (const std::uint8_t tc : {0, 5}) {
      for (const bool s : {false, true}) {
        const LabelStackEntry lse(label, tc, s, 64);
        EXPECT_EQ(LabelStackEntry::decode(lse.encode()), lse);
      }
    }
  }
}

TEST(LabelStackEntry, ReservedValues) {
  EXPECT_EQ(kLabelIpv4ExplicitNull, 0u);
  EXPECT_EQ(kLabelImplicitNull, 3u);
  EXPECT_EQ(kLabelFirstUnreserved, 16u);
}

TEST(LabelStackEntry, ToStringReadable) {
  const LabelStackEntry lse(777, 2, true, 1);
  EXPECT_EQ(lse.to_string(), "L=777,TC=2,S=1,TTL=1");
}

TEST(LabelStack, EmptyByDefault) {
  const LabelStack stack;
  EXPECT_TRUE(stack.empty());
  EXPECT_EQ(stack.depth(), 0u);
}

TEST(LabelStack, PushSetsBottomFlags) {
  LabelStack stack;
  stack.push(100, 0, 64);
  EXPECT_TRUE(stack.top().bottom_of_stack());
  stack.push(200, 0, 64);
  EXPECT_EQ(stack.depth(), 2u);
  EXPECT_EQ(stack.top().label(), 200u);  // newest on top
  EXPECT_FALSE(stack.entries()[0].bottom_of_stack());
  EXPECT_TRUE(stack.entries()[1].bottom_of_stack());
}

TEST(LabelStack, PopRestoresBottomFlag) {
  LabelStack stack;
  stack.push(100, 0, 64);
  stack.push(200, 0, 64);
  stack.pop();
  EXPECT_EQ(stack.depth(), 1u);
  EXPECT_EQ(stack.top().label(), 100u);
  EXPECT_TRUE(stack.top().bottom_of_stack());
}

TEST(LabelStack, PopEmptyIsNoop) {
  LabelStack stack;
  stack.pop();
  EXPECT_TRUE(stack.empty());
}

TEST(LabelStack, LabelsTopFirst) {
  LabelStack stack;
  stack.push(1, 0, 64);
  stack.push(2, 0, 64);
  stack.push(3, 0, 64);
  EXPECT_EQ(stack.labels(), (std::vector<std::uint32_t>{3, 2, 1}));
}

TEST(LabelStack, ConstructorFixesBottomFlags) {
  const LabelStack stack({LabelStackEntry(1, 0, true, 1),
                          LabelStackEntry(2, 0, false, 1)});
  EXPECT_FALSE(stack.entries()[0].bottom_of_stack());
  EXPECT_TRUE(stack.entries()[1].bottom_of_stack());
}

TEST(LabelStack, EqualityIsContentBased) {
  LabelStack a, b;
  a.push(7, 0, 1);
  b.push(7, 0, 1);
  EXPECT_EQ(a, b);
  b.pop();
  b.push(8, 0, 1);
  EXPECT_NE(a, b);
}

TEST(LabelStack, ToStringShowsAllEntries) {
  LabelStack stack;
  stack.push(1, 0, 1);
  stack.push(2, 0, 1);
  const std::string s = stack.to_string();
  EXPECT_NE(s.find("L=2"), std::string::npos);
  EXPECT_NE(s.find("L=1"), std::string::npos);
}

}  // namespace
}  // namespace mum::net
