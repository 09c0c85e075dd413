#include "lang/ast.h"

#include <algorithm>

namespace psme {

const char* pred_name(Pred p) {
  switch (p) {
    case Pred::Eq: return "=";
    case Pred::Ne: return "<>";
    case Pred::Lt: return "<";
    case Pred::Le: return "<=";
    case Pred::Gt: return ">";
    case Pred::Ge: return ">=";
    case Pred::SameType: return "<=>";
  }
  return "?";
}

bool eval_pred(Pred p, const Value& lhs, const Value& rhs) {
  switch (p) {
    case Pred::Eq:
      return lhs == rhs;
    case Pred::Ne:
      return lhs != rhs;
    case Pred::SameType:
      return lhs.same_type(rhs);
    default:
      break;
  }
  if (!lhs.is_num() || !rhs.is_num()) return false;
  const double a = lhs.num();
  const double b = rhs.num();
  switch (p) {
    case Pred::Lt: return a < b;
    case Pred::Le: return a <= b;
    case Pred::Gt: return a > b;
    case Pred::Ge: return a >= b;
    default: return false;
  }
}

const std::vector<Symbol>* ClassSchemas::attrs_of(Symbol cls) const {
  return cls.raw() < attrs_.size() ? &attrs_[cls.raw()] : nullptr;
}

int ClassSchemas::slot(Symbol cls, Symbol attr) {
  if (cls.raw() >= attrs_.size()) attrs_.resize(size_t{cls.raw()} + 1);
  std::vector<Symbol>& attrs = attrs_[cls.raw()];
  const auto it = std::find(attrs.begin(), attrs.end(), attr);
  if (it != attrs.end()) return static_cast<int>(it - attrs.begin());
  attrs.push_back(attr);
  return static_cast<int>(attrs.size()) - 1;
}

int ClassSchemas::find_slot(Symbol cls, Symbol attr) const {
  const std::vector<Symbol>* attrs = attrs_of(cls);
  if (attrs == nullptr) return -1;
  const auto it = std::find(attrs->begin(), attrs->end(), attr);
  return it == attrs->end() ? -1 : static_cast<int>(it - attrs->begin());
}

int ClassSchemas::arity(Symbol cls) const {
  const std::vector<Symbol>* attrs = attrs_of(cls);
  return attrs == nullptr ? 0 : static_cast<int>(attrs->size());
}

Symbol ClassSchemas::attr_name(Symbol cls, int slot) const {
  const std::vector<Symbol>* attrs = attrs_of(cls);
  if (attrs == nullptr || slot < 0 || slot >= static_cast<int>(attrs->size()))
    return Symbol();
  return (*attrs)[static_cast<size_t>(slot)];
}

int Production::positive_ce_count() const {
  int n = 0;
  for (const auto& c : conditions)
    if (!c.negated && !c.is_ncc()) ++n;
  return n;
}

namespace {
int count_all(const std::vector<Condition>& cs) {
  int n = 0;
  for (const auto& c : cs) {
    if (c.is_ncc()) {
      n += count_all(c.ncc);
    } else {
      ++n;
    }
  }
  return n;
}
}  // namespace

int Production::total_ce_count() const { return count_all(conditions); }

}  // namespace psme
