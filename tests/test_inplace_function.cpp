// InplaceFunction (small-buffer callable) and BufferPool — the allocation
// machinery under the event scheduler and packet hot path.
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "common/inplace_function.h"
#include "common/pool.h"

namespace dnsguard {
namespace {

TEST(InplaceFunction, DefaultIsNull) {
  InplaceFunction<int()> f;
  EXPECT_FALSE(static_cast<bool>(f));
}

TEST(InplaceFunction, InvokesInlineCallable) {
  int x = 0;
  InplaceFunction<void()> f([&x] { x = 42; });
  ASSERT_TRUE(static_cast<bool>(f));
  f();
  EXPECT_EQ(x, 42);
}

TEST(InplaceFunction, PassesArgumentsAndReturns) {
  InplaceFunction<int(int, int)> f([](int a, int b) { return a * 10 + b; });
  EXPECT_EQ(f(3, 4), 34);
}

TEST(InplaceFunction, MoveTransfersOwnership) {
  auto counter = std::make_shared<int>(0);
  InplaceFunction<void()> a([counter] { (*counter)++; });
  EXPECT_EQ(counter.use_count(), 2);
  InplaceFunction<void()> b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_EQ(counter.use_count(), 2);  // moved, not copied
  b();
  EXPECT_EQ(*counter, 1);
}

TEST(InplaceFunction, DestroysCapturedState) {
  auto counter = std::make_shared<int>(0);
  {
    InplaceFunction<void()> f([counter] { (*counter)++; });
    EXPECT_EQ(counter.use_count(), 2);
  }
  EXPECT_EQ(counter.use_count(), 1);
}

TEST(InplaceFunction, MoveOnlyCaptureWorks) {
  auto p = std::make_unique<int>(7);
  InplaceFunction<int()> f([p = std::move(p)] { return *p; });
  EXPECT_EQ(f(), 7);
}

TEST(InplaceFunction, ReassignmentReleasesOldCallable) {
  auto a = std::make_shared<int>(0);
  auto b = std::make_shared<int>(0);
  InplaceFunction<void()> f([a] { (*a)++; });
  f = InplaceFunction<void()>([b] { (*b)++; });
  EXPECT_EQ(a.use_count(), 1);  // old capture destroyed
  f();
  EXPECT_EQ(*b, 1);
}

TEST(BufferPool, AcquireReleaseReusesCapacity) {
  BufferPool pool;
  Bytes b = pool.acquire(256);
  EXPECT_GE(b.capacity(), 256u);
  b.assign(100, 0xab);
  const auto* data_before = b.data();
  pool.release(std::move(b));
  EXPECT_EQ(pool.pooled(), 1u);

  Bytes c = pool.acquire(64);
  EXPECT_TRUE(c.empty());  // cleared on reuse
  EXPECT_EQ(c.data(), data_before);  // same allocation came back
  EXPECT_EQ(pool.pooled(), 0u);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
}

TEST(BufferPool, IgnoresEmptyBuffers) {
  BufferPool pool;
  pool.release(Bytes{});
  EXPECT_EQ(pool.pooled(), 0u);
}

}  // namespace
}  // namespace dnsguard
