// Interned symbol table.
//
// Every identifier, class name, attribute name and symbolic constant in the
// production system is interned once and referred to by a 32-bit index.
// Symbol comparison is therefore a single integer compare, which is what makes
// constant-test nodes and the join hash function cheap (PSM-E compiled these
// to immediate compares in machine code; an interned index is the portable
// equivalent). Indexes are handed out in first-intern order, and that order
// is load-bearing: Value::hash derives a symbol's hash from its index, so it
// fixes the join hash lines (DESIGN.md §17).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

namespace psme {

/// An interned string. Value-semantic, 4 bytes, totally ordered by intern
/// index (NOT lexicographic order).
class Symbol {
 public:
  constexpr Symbol() = default;
  constexpr explicit Symbol(uint32_t raw) : raw_(raw) {}

  [[nodiscard]] constexpr uint32_t raw() const { return raw_; }
  [[nodiscard]] constexpr bool valid() const { return raw_ != kInvalid; }

  friend constexpr bool operator==(Symbol a, Symbol b) { return a.raw_ == b.raw_; }
  friend constexpr bool operator!=(Symbol a, Symbol b) { return a.raw_ != b.raw_; }
  friend constexpr bool operator<(Symbol a, Symbol b) { return a.raw_ < b.raw_; }

  static constexpr uint32_t kInvalid = 0xffffffffu;

 private:
  uint32_t raw_ = kInvalid;
};

/// Intern table. One per engine instance; not thread-safe for interning (all
/// interning happens at compile/parse time or between cycles, never inside the
/// parallel match), but lookup by Symbol is immutable-after-publish and safe.
///
/// Each name is stored once, in a deque (whose elements never move, so a
/// short name kept inside its std::string never moves either), and indexed
/// by a view of it: a view from name() stays valid for the table's lifetime,
/// and interning or finding a name that is already present allocates
/// nothing.
class SymbolTable {
 public:
  SymbolTable() = default;
  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;

  /// Interns `s`, returning the existing Symbol if already present. Ids are
  /// handed out densely in first-intern order.
  Symbol intern(std::string_view s);

  /// Name of an interned symbol. `sym` must come from this table.
  [[nodiscard]] std::string_view name(Symbol sym) const;

  /// Returns the symbol for `s` if interned, otherwise an invalid Symbol.
  [[nodiscard]] Symbol find(std::string_view s) const;

  [[nodiscard]] size_t size() const { return names_.size(); }

  /// Generates a fresh symbol of the form `<prefix><n>` guaranteed not to
  /// collide with any existing symbol. Used for Soar identifiers (g0012,
  /// o0003, ...) and chunk names.
  Symbol gensym(std::string_view prefix);

 private:
  std::deque<std::string> names_;  // by id
  std::unordered_map<std::string_view, uint32_t> index_;  // views names_
  uint64_t gensym_counter_ = 0;
};

}  // namespace psme

template <>
struct std::hash<psme::Symbol> {
  size_t operator()(psme::Symbol s) const noexcept {
    // Fibonacci scramble: intern indices are small and dense.
    return static_cast<size_t>(s.raw()) * 0x9e3779b97f4a7c15ull;
  }
};
