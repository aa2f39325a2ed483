#include "graph/storage.h"

#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

namespace saphyra {
namespace {

TEST(ArrayRefTest, DefaultIsEmpty) {
  ArrayRef<uint32_t> a;
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.size(), 0u);
  EXPECT_FALSE(a.is_view());
}

TEST(ArrayRefTest, OwnedModeAdoptsVector) {
  ArrayRef<uint32_t> a(std::vector<uint32_t>{1, 2, 3});
  EXPECT_FALSE(a.is_view());
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[0], 1u);
  EXPECT_EQ(a[2], 3u);
}

TEST(ArrayRefTest, OwnedCopyIsDeep) {
  ArrayRef<uint32_t> a(std::vector<uint32_t>{5, 6});
  ArrayRef<uint32_t> b = a;
  EXPECT_NE(a.data(), b.data());
  EXPECT_EQ(b[1], 6u);
}

TEST(ArrayRefTest, OwnedMoveKeepsData) {
  ArrayRef<uint64_t> a(std::vector<uint64_t>{7, 8, 9});
  const uint64_t* data = a.data();
  ArrayRef<uint64_t> b = std::move(a);
  EXPECT_EQ(b.data(), data);  // vector move: buffer pointer is stable
  EXPECT_EQ(b[2], 9u);
}

TEST(ArrayRefTest, SharedCopiesReferenceOneArray) {
  ArrayRef<uint32_t> a = ArrayRef<uint32_t>::Shared({10, 11, 12});
  EXPECT_TRUE(a.is_view());
  ArrayRef<uint32_t> b = a;
  EXPECT_EQ(b.data(), a.data());  // no deep copy
  a = ArrayRef<uint32_t>();
  EXPECT_EQ(b.size(), 3u);  // the copy keeps the block alive
  EXPECT_EQ(b[2], 12u);
}

TEST(ArrayRefTest, ViewModeReferencesForeignStorage) {
  auto backing = std::make_shared<std::vector<uint32_t>>(
      std::vector<uint32_t>{10, 11, 12});
  ArrayRef<uint32_t> a(std::span<const uint32_t>(*backing), backing);
  EXPECT_TRUE(a.is_view());
  EXPECT_EQ(a.data(), backing->data());
  EXPECT_EQ(a[1], 11u);
}

TEST(ArrayRefTest, ViewKeepaliveOutlivesOriginalHandle) {
  ArrayRef<uint32_t> copy;
  const uint32_t* data = nullptr;
  {
    auto backing = std::make_shared<std::vector<uint32_t>>(
        std::vector<uint32_t>{42, 43});
    data = backing->data();
    ArrayRef<uint32_t> a(std::span<const uint32_t>(*backing), backing);
    copy = a;  // view copies share the keepalive
  }
  // The shared_ptr inside `copy` is now the only owner of the backing
  // vector; the data must still be readable.
  ASSERT_EQ(copy.size(), 2u);
  EXPECT_EQ(copy.data(), data);
  EXPECT_EQ(copy[0], 42u);
  EXPECT_EQ(copy[1], 43u);
}

TEST(ArrayRefTest, SpanAndIterationAgree) {
  ArrayRef<uint32_t> a(std::vector<uint32_t>{1, 2, 3, 4});
  uint32_t sum = 0;
  for (uint32_t v : a) sum += v;
  EXPECT_EQ(sum, 10u);
  EXPECT_EQ(a.span().size(), 4u);
  EXPECT_EQ(a.span().data(), a.data());
}

}  // namespace
}  // namespace saphyra
