// Abstract syntax for the OPS5-dialect production language used by both the
// OPS5-mode engine and the Soar layer.
//
// A production is a list of condition elements (CEs) followed by `-->` and a
// list of actions. Grammar highlights (see README for the full grammar):
//
//   (p find-block
//     (block ^name <b> ^color blue ^size { > 2 <s> })
//     -(block ^on <b>)                       ; negated CE
//     -{ (hand ^holding <b>) (hand ^free no) }  ; conjunctive negation (Soar)
//     -->
//     (make goal ^object <b>)
//     (modify 1 ^state graspable)
//     (remove 2)
//     (write grabbed <b>)
//     (bind <n> (genatom))
//     (halt))
//
// Attributes are resolved to dense per-class slot indices at parse time via
// ClassSchemas, so the match engine never touches attribute names.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/symbol.h"
#include "base/value.h"

namespace psme {

/// Comparison predicates of OPS5 attribute tests.
enum class Pred : uint8_t { Eq, Ne, Lt, Le, Gt, Ge, SameType };

[[nodiscard]] const char* pred_name(Pred p);

/// Applies `p` to (lhs, rhs). Ordering predicates on non-numbers follow OPS5:
/// symbols are only ever Eq/Ne-comparable; an ordering test on a symbol fails.
[[nodiscard]] bool eval_pred(Pred p, const Value& lhs, const Value& rhs);

/// Per-class attribute layout. Classes acquire slots on first use (implicit
/// literalize); an explicit `(literalize class a b c)` pins slot order.
class ClassSchemas {
 public:
  /// Slot of `attr` within `cls`, creating it if necessary.
  int slot(Symbol cls, Symbol attr);

  /// Slot of `attr` within `cls`, or -1 if the class/attr is unknown.
  [[nodiscard]] int find_slot(Symbol cls, Symbol attr) const;

  /// Number of slots currently defined for `cls` (0 if unknown class).
  [[nodiscard]] int arity(Symbol cls) const;

  /// Attribute name of `slot` in `cls`.
  [[nodiscard]] Symbol attr_name(Symbol cls, int slot) const;

 private:
  [[nodiscard]] const std::vector<Symbol>* attrs_of(Symbol cls) const;

  // Slot -> attr symbol, by class Symbol::raw() (symbol ids are dense). A
  // class has a handful of attributes, so a slot lookup is a short scan.
  std::vector<std::vector<Symbol>> attrs_;
};

/// A test of one wme slot against a constant.
struct ConstTest {
  int slot = 0;
  Pred pred = Pred::Eq;
  Value value;

  friend bool operator==(const ConstTest&, const ConstTest&) = default;
};

/// `<< a b c >>` — slot value must equal one of the options.
struct DisjTest {
  int slot = 0;
  std::vector<Value> options;

  friend bool operator==(const DisjTest&, const DisjTest&) = default;
};

/// A test of one wme slot against a production-scoped variable.
/// The first Eq occurrence of a variable in a positive CE is its binding site;
/// subsequent occurrences generate consistency tests.
struct VarTest {
  int slot = 0;
  Pred pred = Pred::Eq;
  uint32_t var = 0;  // dense per-production variable id

  friend bool operator==(const VarTest&, const VarTest&) = default;
};

/// One condition element.
struct Condition {
  Symbol cls;
  std::vector<ConstTest> consts;
  std::vector<DisjTest> disjs;
  std::vector<VarTest> vars;  // in source order

  bool negated = false;                // `-(...)`
  std::vector<Condition> ncc;          // non-empty => `-{ ... }` group; other
                                       // fields unused for the group itself

  [[nodiscard]] bool is_ncc() const { return !ncc.empty(); }
};

/// A value position on the RHS.
struct RhsValue {
  enum class Kind : uint8_t { Const, Var, Gensym, Compute };
  Kind kind = Kind::Const;
  Value constant;       // Const
  uint32_t var = 0;     // Var
  Symbol gensym_prefix; // Gensym: (genatom) / (genatom prefix)
  // Compute: lhs op rhs where operands are Const or Var (no nesting).
  struct Arith {
    RhsValue* lhs = nullptr;
    RhsValue* rhs = nullptr;
    char op = '+';  // + - * /
  } arith;
};

struct RhsAssignment {
  int slot = 0;
  RhsValue value;
};

struct Action {
  enum class Kind : uint8_t { Make, Modify, Remove, Write, Bind, Halt };
  Kind kind = Kind::Make;
  Symbol cls;                          // Make
  int ce_index = 0;                    // Modify/Remove: 1-based positive-CE index
  std::vector<RhsAssignment> sets;     // Make/Modify
  std::vector<RhsValue> write_args;    // Write
  uint32_t bind_var = 0;               // Bind
  RhsValue bind_value;                 // Bind
};

/// A parsed production.
struct Production {
  Symbol name;
  std::vector<Condition> conditions;
  std::vector<Action> actions;
  uint32_t num_vars = 0;                 // dense variable ids are [0, num_vars)
  std::vector<std::string> var_names;    // id -> source name (diagnostics)
  bool is_chunk = false;                 // built by the chunker at run time

  /// Number of positive (non-negated, non-NCC) CEs.
  [[nodiscard]] int positive_ce_count() const;

  /// Total CE count including CEs inside NCC groups (paper Table 5-1 counts).
  [[nodiscard]] int total_ce_count() const;
};

/// Arena that owns nested RhsValue nodes created by the parser/chunker.
/// (RhsValue::Arith holds raw pointers into this arena.)
class RhsArena {
 public:
  RhsValue* make() {
    pool_.push_back(std::make_unique<RhsValue>());
    return pool_.back().get();
  }

 private:
  std::vector<std::unique_ptr<RhsValue>> pool_;
};

}  // namespace psme
