#include "rete/token.h"

#include <sstream>

namespace psme {

std::string token_to_string(const Token& t, const SymbolTable& syms,
                            const ClassSchemas& schemas) {
  std::ostringstream os;
  os << '(';
  for (uint32_t i = 0; i < t.size(); ++i) {
    if (i) os << ' ';
    os << t[i]->to_string(syms, schemas);
  }
  os << ')';
  return os.str();
}

}  // namespace psme
