#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <unordered_set>

#include "base/rng.h"
#include "base/symbol.h"
#include "base/value.h"

namespace psme {
namespace {

TEST(SymbolTable, InternReturnsSameSymbolForSameString) {
  SymbolTable t;
  const Symbol a = t.intern("hello");
  const Symbol b = t.intern("hello");
  EXPECT_EQ(a, b);
  EXPECT_EQ(t.name(a), "hello");
}

TEST(SymbolTable, DistinctStringsGetDistinctSymbols) {
  SymbolTable t;
  EXPECT_NE(t.intern("a"), t.intern("b"));
  EXPECT_EQ(t.size(), 2u);
}

TEST(SymbolTable, FindReturnsInvalidForUnknown) {
  SymbolTable t;
  EXPECT_FALSE(t.find("missing").valid());
  t.intern("present");
  EXPECT_TRUE(t.find("present").valid());
}

TEST(SymbolTable, GensymNeverCollides) {
  SymbolTable t;
  t.intern("s1");
  const Symbol g = t.gensym("s");
  EXPECT_NE(t.name(g), "s1");
  std::set<std::string> seen;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(seen.insert(std::string(t.name(t.gensym("x")))).second);
  }
}

// Names live in storage that never moves: a view taken before later interns
// (short names included, which a std::string keeps inline) still reads the
// same bytes afterwards.
TEST(SymbolTable, NameViewsSurviveLaterInterns) {
  SymbolTable t;
  const Symbol s = t.intern("short");
  const std::string_view view = t.name(s);
  for (int i = 0; i < 100; ++i) t.intern("name-" + std::to_string(i));
  for (int i = 0; i < 1000; ++i) t.gensym("g");
  EXPECT_EQ(view, "short");
  EXPECT_EQ(view.data(), t.name(s).data());
}

// Ids are dense and handed out in first-intern order; Symbol ids feed
// Value::hash, so the order is observable in every join hash line.
TEST(SymbolTable, IdsFollowFirstInternOrder) {
  SymbolTable t;
  for (uint32_t i = 0; i < 500; ++i) {
    EXPECT_EQ(t.intern("s" + std::to_string(i)).raw(), i);
  }
  for (uint32_t i = 0; i < 500; ++i) {
    EXPECT_EQ(t.intern("s" + std::to_string(i)).raw(), i);
    EXPECT_EQ(t.find("s" + std::to_string(i)).raw(), i);
  }
  EXPECT_EQ(t.intern("").raw(), 500u);
  EXPECT_EQ(t.name(Symbol(500)), "");
  EXPECT_EQ(t.size(), 501u);
}

TEST(SymbolTable, NameThrowsOnInvalid) {
  SymbolTable t;
  EXPECT_THROW(t.name(Symbol()), std::out_of_range);
  EXPECT_THROW(t.name(Symbol(42)), std::out_of_range);
}

TEST(Value, KindsAndAccessors) {
  SymbolTable t;
  const Value s(t.intern("sym"));
  const Value i(int64_t{42});
  const Value f(2.5);
  const Value nil;
  EXPECT_TRUE(s.is_sym());
  EXPECT_TRUE(i.is_num());
  EXPECT_TRUE(f.is_num());
  EXPECT_TRUE(nil.is_nil());
  EXPECT_EQ(i.as_int(), 42);
  EXPECT_DOUBLE_EQ(f.as_float(), 2.5);
}

TEST(Value, NumericCrossTypeEquality) {
  EXPECT_EQ(Value(int64_t{3}), Value(3.0));
  EXPECT_NE(Value(int64_t{3}), Value(3.5));
}

TEST(Value, EqualValuesHashEqually) {
  EXPECT_EQ(Value(int64_t{3}).hash(), Value(3.0).hash());
  SymbolTable t;
  const Symbol s = t.intern("x");
  EXPECT_EQ(Value(s).hash(), Value(s).hash());
}

// Floats outside int64_t's range (NaN, infinities, 1e300) hash by their bits:
// converting them to int64_t first would be undefined. In-range integral
// floats still hash like the equal integer.
TEST(Value, FloatsOutsideInt64RangeHashByBits) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double d : {nan, inf, -inf, 1e300, -1e300, 0x1p63}) {
    EXPECT_EQ(Value(d).hash(), Value(d).hash());
  }
  EXPECT_NE(Value(inf).hash(), Value(-inf).hash());
  EXPECT_EQ(Value(-0x1p63).hash(),
            Value(std::numeric_limits<int64_t>::min()).hash());
  EXPECT_EQ(Value(0x1p62).hash(), Value(int64_t{1} << 62).hash());
}

TEST(Value, SymbolAndIntDoNotCompareEqual) {
  SymbolTable t;
  const Symbol s = t.intern("x");
  EXPECT_NE(Value(s), Value(static_cast<int64_t>(s.raw())));
}

TEST(Value, SameTypePredicate) {
  SymbolTable t;
  EXPECT_TRUE(Value(int64_t{1}).same_type(Value(2.0)));
  EXPECT_TRUE(Value(t.intern("a")).same_type(Value(t.intern("b"))));
  EXPECT_FALSE(Value(t.intern("a")).same_type(Value(int64_t{1})));
}

TEST(Value, ToString) {
  SymbolTable t;
  EXPECT_EQ(Value(t.intern("abc")).to_string(t), "abc");
  EXPECT_EQ(Value(int64_t{7}).to_string(t), "7");
  EXPECT_EQ(Value().to_string(t), "nil");
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int diff = 0;
  for (int i = 0; i < 10; ++i) diff += a.next() != b.next();
  EXPECT_GT(diff, 5);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeInclusive) {
  Rng r(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = r.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UnitInHalfOpenInterval) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

}  // namespace
}  // namespace psme
