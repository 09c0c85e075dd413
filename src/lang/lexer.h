// Tokenizer for the OPS5-dialect production language.
//
// A pull lexer: Lexer::next() scans one token at a time out of the caller's
// buffer. A token is a plain value whose text is a view into that buffer, so
// lexing allocates nothing, and a token stays valid for as long as the
// source does (DESIGN.md §17).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace psme {

enum class Tok : uint8_t {
  LParen,   // (
  RParen,   // )
  LBrace,   // {   (conjunctive test group / NCC body opener)
  RBrace,   // }
  Arrow,    // -->
  Dash,     // -   (CE negation)
  LDisj,    // <<
  RDisj,    // >>
  Hat,      // ^attr   (text is the attribute name, without the ^)
  Variable, // <x>     (text is the name including brackets)
  Sym,      // bare atom
  Int,
  Float,
  PredEq,   // =
  PredNe,   // <>
  PredLt,   // <
  PredLe,   // <=
  PredGt,   // >
  PredGe,   // >=
  PredSame, // <=>
  End,
};

struct LexToken {
  Tok kind = Tok::End;
  int line = 0;
  std::string_view text;  // spelling, a view into the lexed source
  int64_t int_val = 0;
  double float_val = 0;

  [[nodiscard]] bool is_pred() const {
    return kind >= Tok::PredEq && kind <= Tok::PredSame;
  }
};

class Lexer {
 public:
  explicit Lexer(std::string_view src) : src_(src) {}

  /// Scans the next token; returns Tok::End at (and after) the end of the
  /// source. Throws ParseError (see parser.h) on a malformed atom.
  LexToken next();

 private:
  std::string_view src_;
  size_t pos_ = 0;
  int line_ = 1;
};

/// Every token of `src`, End included: a loop over Lexer (tests, tools).
std::vector<LexToken> lex(std::string_view src);

}  // namespace psme
