// Tagged runtime value: the contents of one wme attribute slot.
//
// OPS5 attribute values are symbols or numbers. We support interned symbols,
// 64-bit integers and doubles. Values are 16 bytes, trivially copyable, and
// hash/compare without touching the symbol table.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "base/symbol.h"

namespace psme {

class Value {
 public:
  enum class Kind : uint8_t { Nil, Sym, Int, Float };

  constexpr Value() : kind_(Kind::Nil), i_(0) {}
  constexpr Value(Symbol s) : kind_(Kind::Sym), i_(s.raw()) {}  // NOLINT implicit
  constexpr Value(int64_t i) : kind_(Kind::Int), i_(i) {}       // NOLINT implicit
  constexpr Value(double f) : kind_(Kind::Float), f_(f) {}      // NOLINT implicit

  [[nodiscard]] constexpr Kind kind() const { return kind_; }
  [[nodiscard]] constexpr bool is_nil() const { return kind_ == Kind::Nil; }
  [[nodiscard]] constexpr bool is_sym() const { return kind_ == Kind::Sym; }
  [[nodiscard]] constexpr bool is_num() const {
    return kind_ == Kind::Int || kind_ == Kind::Float;
  }

  [[nodiscard]] constexpr Symbol sym() const { return Symbol(static_cast<uint32_t>(i_)); }
  [[nodiscard]] constexpr int64_t as_int() const { return i_; }
  [[nodiscard]] constexpr double as_float() const {
    return kind_ == Kind::Float ? f_ : static_cast<double>(i_);
  }

  /// Numeric value as double; only valid when is_num().
  [[nodiscard]] constexpr double num() const { return as_float(); }

  friend constexpr bool operator==(const Value& a, const Value& b) {
    if (a.kind_ == b.kind_) {
      return a.kind_ == Kind::Float ? a.f_ == b.f_ : a.i_ == b.i_;
    }
    // Int/Float cross-compare: OPS5 predicates compare numbers by value.
    if (a.is_num() && b.is_num()) return a.as_float() == b.as_float();
    return false;
  }
  friend constexpr bool operator!=(const Value& a, const Value& b) { return !(a == b); }

  /// OPS5 `<=>` (same type) predicate.
  [[nodiscard]] constexpr bool same_type(const Value& other) const {
    return (is_num() && other.is_num()) || kind_ == other.kind_;
  }

  /// Stable hash; equal values hash equally (incl. int/float numeric equality
  /// for integral doubles, which we side-step by hashing canonical doubles).
  [[nodiscard]] size_t hash() const noexcept {
    uint64_t h;
    if (kind_ == Kind::Float) {
      const double d = f_;
      // Canonicalize integral floats so 3 and 3.0 hash alike (they compare ==).
      // The range test comes first: converting NaN, ±inf or a double beyond
      // int64_t's range to int64_t is undefined.
      if (d >= -0x1p63 && d < 0x1p63 &&
          d == static_cast<double>(static_cast<int64_t>(d))) {
        h = static_cast<uint64_t>(static_cast<int64_t>(d)) ^ 0x517cc1b727220a95ull;
      } else {
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(d));
        __builtin_memcpy(&bits, &d, sizeof(bits));
        h = bits;
      }
    } else if (kind_ == Kind::Int) {
      h = static_cast<uint64_t>(i_) ^ 0x517cc1b727220a95ull;
    } else {
      h = static_cast<uint64_t>(i_) + (static_cast<uint64_t>(kind_) << 56);
    }
    h *= 0x9e3779b97f4a7c15ull;
    h ^= h >> 29;
    return static_cast<size_t>(h);
  }

  /// Human-readable form; needs the table that interned any symbol.
  [[nodiscard]] std::string to_string(const SymbolTable& tab) const;

 private:
  Kind kind_;
  union {
    int64_t i_;
    double f_;
  };
};

static_assert(sizeof(Value) == 16);

}  // namespace psme

template <>
struct std::hash<psme::Value> {
  size_t operator()(const psme::Value& v) const noexcept { return v.hash(); }
};
