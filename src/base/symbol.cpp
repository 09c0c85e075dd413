#include "base/symbol.h"

#include <stdexcept>

namespace psme {

Symbol SymbolTable::intern(std::string_view s) {
  auto it = index_.find(s);
  if (it != index_.end()) return Symbol(it->second);
  const auto raw = static_cast<uint32_t>(names_.size());
  index_.emplace(names_.emplace_back(s), raw);
  return Symbol(raw);
}

std::string_view SymbolTable::name(Symbol sym) const {
  if (!sym.valid() || sym.raw() >= names_.size())
    throw std::out_of_range("SymbolTable::name: unknown symbol");
  return names_[sym.raw()];
}

Symbol SymbolTable::find(std::string_view s) const {
  auto it = index_.find(s);
  return it == index_.end() ? Symbol() : Symbol(it->second);
}

Symbol SymbolTable::gensym(std::string_view prefix) {
  for (;;) {
    std::string candidate(prefix);
    candidate += std::to_string(++gensym_counter_);
    if (!find(candidate).valid()) return intern(candidate);
  }
}

}  // namespace psme
