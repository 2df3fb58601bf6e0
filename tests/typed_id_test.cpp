// Tests for the strongly-typed index layer (common/typed.hpp):
// compile-time rejection probes, IdVector bounds behaviour under
// UAVCOV_DCHECK, and value round-trips.
#include "common/typed.hpp"

#include <gtest/gtest.h>

#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace uavcov {
namespace {

// ---------------------------------------------------------------------------
// Compile-time layout guarantees (the zero-cost claim).

static_assert(std::is_trivially_copyable_v<UserId>);
static_assert(std::is_trivially_copyable_v<CellId>);
static_assert(std::is_trivially_copyable_v<UavId>);
static_assert(std::is_trivially_copyable_v<SegmentId>);
static_assert(sizeof(UserId) == sizeof(std::uint32_t));
static_assert(sizeof(CellId) == sizeof(std::uint32_t));
static_assert(sizeof(UavId) == sizeof(std::uint32_t));
static_assert(sizeof(SegmentId) == sizeof(std::uint32_t));
static_assert(alignof(UserId) == alignof(std::int32_t));

// ---------------------------------------------------------------------------
// Compile-time rejection probes.  Each `requires` expression names an
// operation the layer must *not* provide; the static_asserts pin that the
// expression fails to compile (SFINAE-falls-out) rather than silently
// working.

// No implicit construction from integers.
static_assert(!std::is_convertible_v<int, UserId>);
static_assert(!std::is_convertible_v<std::int32_t, CellId>);
// Explicit construction works, including via static_cast.
static_assert(std::is_constructible_v<UserId, int>);
static_assert(std::is_constructible_v<CellId, std::size_t>);

// No cross-tag conversion or comparison.
static_assert(!std::is_constructible_v<UserId, CellId>);
static_assert(!std::is_constructible_v<UavId, SegmentId>);

template <class A, class B>
concept EqComparable = requires(A a, B b) { a == b; };
template <class A, class B>
concept LtComparable = requires(A a, B b) { a < b; };
template <class A, class B>
concept Addable = requires(A a, B b) { a + b; };

static_assert(EqComparable<UserId, UserId>);
static_assert(LtComparable<UserId, UserId>);
static_assert(!EqComparable<UserId, CellId>);
static_assert(!EqComparable<UavId, SegmentId>);
static_assert(!LtComparable<UserId, CellId>);
// No comparison against raw integers either direction.
static_assert(!EqComparable<UserId, int>);
static_assert(!EqComparable<int, UserId>);
// An id plus an id (or an int) has no meaning.
static_assert(!Addable<UserId, UserId>);
static_assert(!Addable<UserId, int>);

// IdVector subscripts accept only the matching id type.
template <class V, class I>
concept Subscriptable = requires(V v, I i) { v[i]; };

static_assert(Subscriptable<IdVector<UserTag, int>, UserId>);
static_assert(!Subscriptable<IdVector<UserTag, int>, CellId>);
static_assert(!Subscriptable<IdVector<UserTag, int>, int>);
static_assert(!Subscriptable<IdVector<UserTag, int>, std::size_t>);

// ---------------------------------------------------------------------------
// Runtime behaviour.

TEST(StrongId, RoundTripsAndSentinel) {
  const UserId u{42};
  EXPECT_EQ(u.value(), 42);
  EXPECT_EQ(u.index(), std::size_t{42});
  EXPECT_TRUE(u.valid());

  const UserId inv = UserId::invalid();
  EXPECT_EQ(inv.value(), -1);
  EXPECT_FALSE(inv.valid());
  EXPECT_NE(u, inv);

  // static_cast goes through the explicit constructor.
  const auto c = static_cast<CellId>(7u);
  EXPECT_EQ(c.value(), 7);
}

TEST(StrongId, OrderingAndIncrement) {
  UavId k{3};
  EXPECT_LT(UavId{2}, k);
  EXPECT_EQ(++k, UavId{4});
  EXPECT_EQ(k++, UavId{4});
  EXPECT_EQ(k, UavId{5});
}

TEST(IdRange, IteratesHalfOpenTypedRange) {
  std::vector<UserId> visited;
  for (const UserId u : IdRange<UserId>{3}) visited.push_back(u);
  ASSERT_EQ(visited.size(), 3u);
  EXPECT_EQ(visited.front(), UserId{0});
  EXPECT_EQ(visited.back(), UserId{2});
  EXPECT_TRUE(IdRange<UavId>{0}.empty());
  EXPECT_EQ((IdRange<CellId>{CellId{2}, CellId{6}}.size()), 4);
}

TEST(IdVector, TypedSubscriptAndContainerBridge) {
  IdVector<UserTag, int> v{10, 20, 30};
  EXPECT_EQ(v[UserId{1}], 20);
  v[UserId{1}] = 21;
  EXPECT_EQ(v.raw()[1], 21);

  // Implicit bridge from std::vector keeps generator output ergonomic.
  const std::vector<int> raw{5, 6};
  const IdVector<UserTag, int> w = raw;
  EXPECT_EQ(w.ssize(), 2);
  EXPECT_EQ(w[UserId{0}], 5);

  // ids() walks exactly the valid typed indices.
  int sum = 0;
  for (const UserId u : w.ids()) sum += w[u];
  EXPECT_EQ(sum, 11);
  EXPECT_EQ(w.end_id(), UserId{2});
}

TEST(IdVector, VectorBoolProxyPassesThrough) {
  IdVector<UavTag, bool> used(4, false);
  used[UavId{2}] = true;
  EXPECT_TRUE(used[UavId{2}]);
  EXPECT_FALSE(used[UavId{0}]);
}

TEST(IdVector, AtAlwaysThrowsOutOfRange) {
  IdVector<CellTag, int> v(2, 0);
  EXPECT_EQ(v.at(CellId{1}), 0);
  EXPECT_THROW(v.at(CellId{2}), ContractError);
  EXPECT_THROW(v.at(CellId::invalid()), ContractError);
}

#ifndef NDEBUG
TEST(IdVector, SubscriptBoundsCheckedUnderDcheck) {
  IdVector<CellTag, int> v(2, 0);
  EXPECT_THROW(v[CellId{2}], ContractError);
  EXPECT_THROW(v[CellId::invalid()], ContractError);
}
#endif

}  // namespace
}  // namespace uavcov
