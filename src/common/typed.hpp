// Strongly-typed index layer (docs/STATIC_ANALYSIS.md).
//
// Four distinct index spaces flow through the solver — users, grid cells,
// UAVs, and Euler-subpath segments — and nearly every container access is
// an integer subscript.  With plain int32 aliases a transposed index
// compiles silently and surfaces only as a wrong answer (or an
// out-of-bounds read) at scale.  StrongId<Tag> makes each space its own
// type: explicit construction, no cross-type comparison or arithmetic, no
// implicit conversion to or from integers, and provably zero cost
// (trivially copyable, sizeof == sizeof(uint32_t), so it is passed in
// registers exactly like the int32 it replaces).
//
// IdVector<Tag, T> is a std::vector<T> whose operator[] accepts only the
// matching id type — bounds-checked under UAVCOV_DCHECK, unchecked in
// release builds.  raw() exposes the underlying vector for serialization
// and for algorithms that are deliberately generic over index spaces.
#pragma once

#include <compare>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace uavcov {

/// Strongly-typed integer id.  `Tag` is an empty struct naming the index
/// space; two StrongId instantiations with different tags are unrelated
/// types, so cross-space comparison, assignment, and arithmetic are
/// compile errors.  The underlying type is a *signed* 32-bit integer so
/// the -1 "invalid" sentinel used throughout the solver stays
/// representable (same width as uint32_t, which the static_asserts below
/// pin).
template <class Tag>
class StrongId {
 public:
  using underlying_type = std::int32_t;

  constexpr StrongId() = default;

  /// Explicit on purpose: `UserId u = 3;` must not compile.  Accepts any
  /// integer type so `UserId(vec.size())` needs no extra cast.
  template <std::integral I>
  constexpr explicit StrongId(I value)
      : value_(static_cast<underlying_type>(value)) {}

  /// The raw index — the single escape hatch into integer arithmetic
  /// (row/col math, CSR offsets, fingerprint mixing).
  constexpr underlying_type value() const { return value_; }

  /// The raw index as size_t, for subscripting untyped containers.
  constexpr std::size_t index() const {
    return static_cast<std::size_t>(value_);
  }

  /// The conventional -1 sentinel ("no such user/cell/UAV").
  static constexpr StrongId invalid() { return StrongId{-1}; }
  constexpr bool valid() const { return value_ >= 0; }

  /// Same-type ordering and equality only (defaulted <=> also provides
  /// ==); comparing against another tag or a plain int does not compile.
  constexpr auto operator<=>(const StrongId&) const = default;

  /// Increment makes ids usable with std::iota and IdRange iteration.
  /// All other arithmetic is intentionally absent — an id plus an id has
  /// no meaning.
  constexpr StrongId& operator++() {
    ++value_;
    return *this;
  }
  constexpr StrongId operator++(int) {
    const StrongId old = *this;
    ++value_;
    return old;
  }

 private:
  underlying_type value_ = 0;
};

/// The index spaces of the coverage problem (§II-A) plus the sharded
/// mission service (docs/SERVICE.md).
struct UserTag {};     ///< ground users u_1..u_n.
struct CellTag {};     ///< candidate hovering locations v_1..v_m.
struct UavTag {};      ///< the heterogeneous fleet x_1..x_K.
struct SegmentTag {};  ///< Euler-subpath segments 1..s+1 (Algorithm 1).
struct TileTag {};     ///< spatial shards of the mission service.

using UserId = StrongId<UserTag>;
using CellId = StrongId<CellTag>;
using UavId = StrongId<UavTag>;
using SegmentId = StrongId<SegmentTag>;
using TileId = StrongId<TileTag>;

static_assert(std::is_trivially_copyable_v<UserId> &&
              sizeof(UserId) == sizeof(std::uint32_t));
static_assert(std::is_trivially_copyable_v<CellId> &&
              sizeof(CellId) == sizeof(std::uint32_t));
static_assert(std::is_trivially_copyable_v<UavId> &&
              sizeof(UavId) == sizeof(std::uint32_t));
static_assert(std::is_trivially_copyable_v<SegmentId> &&
              sizeof(SegmentId) == sizeof(std::uint32_t));
static_assert(std::is_trivially_copyable_v<TileId> &&
              sizeof(TileId) == sizeof(std::uint32_t));

/// Half-open range [begin, end) of ids, for typed counting loops:
///
///   for (const UserId u : scenario.user_ids()) { ... }
template <class Id>
class IdRange {
 public:
  class iterator {
   public:
    using value_type = Id;
    using difference_type = std::ptrdiff_t;

    constexpr iterator() = default;
    constexpr explicit iterator(Id at) : at_(at) {}
    constexpr Id operator*() const { return at_; }
    constexpr iterator& operator++() {
      ++at_;
      return *this;
    }
    constexpr iterator operator++(int) {
      const iterator old = *this;
      ++at_;
      return old;
    }
    constexpr bool operator==(const iterator&) const = default;

   private:
    Id at_{};
  };

  constexpr explicit IdRange(std::int32_t count)
      : begin_(Id{0}), end_(Id{count}) {
    UAVCOV_DCHECK(count >= 0);
  }
  constexpr IdRange(Id begin, Id end) : begin_(begin), end_(end) {
    UAVCOV_DCHECK(begin <= end);
  }

  constexpr iterator begin() const { return iterator{begin_}; }
  constexpr iterator end() const { return iterator{end_}; }
  constexpr std::int32_t size() const {
    return end_.value() - begin_.value();
  }
  constexpr bool empty() const { return begin_ == end_; }

 private:
  Id begin_;
  Id end_;
};

/// std::vector<T> indexed by StrongId<Tag> and nothing else.  Subscripts
/// are bounds-checked under UAVCOV_DCHECK (debug builds) and unchecked in
/// release, matching std::vector.  Implicitly constructible from
/// std::vector<T> / initializer lists so aggregate scenario literals and
/// generator output assign without ceremony — the type safety lives in
/// the subscript, not the container boundary.
template <class Tag, class T>
class IdVector {
 public:
  using Id = StrongId<Tag>;
  using value_type = T;
  using iterator = typename std::vector<T>::iterator;
  using const_iterator = typename std::vector<T>::const_iterator;

  IdVector() = default;
  explicit IdVector(std::size_t count) : values_(count) {}
  IdVector(std::size_t count, const T& init) : values_(count, init) {}
  // NOLINTNEXTLINE(google-explicit-constructor): container bridge.
  IdVector(std::initializer_list<T> init) : values_(init) {}
  // NOLINTNEXTLINE(google-explicit-constructor): container bridge.
  IdVector(std::vector<T> values) : values_(std::move(values)) {}

  // decltype(auto) so std::vector<bool>'s proxy reference passes through.
  decltype(auto) operator[](Id id) {
    UAVCOV_DCHECK(id.index() < values_.size());
    return values_[id.index()];
  }
  decltype(auto) operator[](Id id) const {
    UAVCOV_DCHECK(id.index() < values_.size());
    return values_[id.index()];
  }

  /// Always-checked access (throws ContractError out of range).
  decltype(auto) at(Id id) {
    UAVCOV_CHECK(id.index() < values_.size());
    return values_[id.index()];
  }
  decltype(auto) at(Id id) const {
    UAVCOV_CHECK(id.index() < values_.size());
    return values_[id.index()];
  }

  std::size_t size() const { return values_.size(); }
  std::int32_t ssize() const {
    return static_cast<std::int32_t>(values_.size());
  }
  bool empty() const { return values_.empty(); }

  iterator begin() { return values_.begin(); }
  iterator end() { return values_.end(); }
  const_iterator begin() const { return values_.begin(); }
  const_iterator end() const { return values_.end(); }
  const_iterator cbegin() const { return values_.cbegin(); }
  const_iterator cend() const { return values_.cend(); }

  T& front() { return values_.front(); }
  const T& front() const { return values_.front(); }
  T& back() { return values_.back(); }
  const T& back() const { return values_.back(); }
  T* data() { return values_.data(); }
  const T* data() const { return values_.data(); }

  void reserve(std::size_t count) { values_.reserve(count); }
  void resize(std::size_t count) { values_.resize(count); }
  void resize(std::size_t count, const T& init) {
    values_.resize(count, init);
  }
  void assign(std::size_t count, const T& init) {
    values_.assign(count, init);
  }
  void clear() { values_.clear(); }
  void push_back(const T& v) { values_.push_back(v); }
  void push_back(T&& v) { values_.push_back(std::move(v)); }
  void pop_back() { values_.pop_back(); }
  template <class... Args>
  T& emplace_back(Args&&... args) {
    return values_.emplace_back(std::forward<Args>(args)...);
  }

  /// One-past-the-last valid id (== Id{ssize()}).
  Id end_id() const { return Id{ssize()}; }
  /// All valid ids, in order — `for (const Id i : v.ids())`.
  IdRange<Id> ids() const { return IdRange<Id>{ssize()}; }

  /// The untyped view, for serialization and index-space-generic code.
  std::vector<T>& raw() { return values_; }
  const std::vector<T>& raw() const { return values_; }

  bool operator==(const IdVector&) const = default;

 private:
  std::vector<T> values_;
};

}  // namespace uavcov
