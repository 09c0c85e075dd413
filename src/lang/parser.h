// Recursive-descent parser for the production language.
//
// Top-level forms:
//   (literalize class attr1 attr2 ...)   ; pin a class's slot layout
//   (p name CE+ --> action*)             ; a production
//
// See lang/ast.h for the shape of the result.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "base/symbol.h"
#include "lang/ast.h"
#include "lang/lexer.h"

namespace psme {

class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& what, int line)
      : std::runtime_error("parse error (line " + std::to_string(line) + "): " + what),
        line_(line) {}
  [[nodiscard]] int line() const { return line_; }

 private:
  int line_;
};

class Parser {
 public:
  Parser(SymbolTable& syms, ClassSchemas& schemas, RhsArena& arena)
      : syms_(syms), schemas_(schemas), arena_(arena) {}

  /// Parses a whole source string: any number of literalize forms and
  /// productions. Returns the productions in source order.
  std::vector<Production> parse_file(std::string_view src);

  /// Parses exactly one production.
  Production parse_production(std::string_view src);

 private:
  /// One token of lookahead over a pull lexer. next() refills the lookahead
  /// slot, so a reference from peek() dies at the next next(); a token the
  /// parser keeps is a copy (its text still views the source).
  struct Cursor {
    explicit Cursor(std::string_view src) : lex(src), tok(lex.next()) {}
    [[nodiscard]] const LexToken& peek() const { return tok; }
    LexToken next() {
      const LexToken t = tok;
      tok = lex.next();
      return t;
    }
    Lexer lex;
    LexToken tok;
  };

  Production parse_p(Cursor& c);
  void parse_literalize(Cursor& c);
  void parse_ce(Cursor& c, Condition& ce);
  void parse_attr_tests(Cursor& c, Condition& ce);
  void parse_one_test(Cursor& c, int slot);
  void parse_action(Cursor& c, const Production& p, Action& a);
  void parse_assignments(Cursor& c, Symbol cls, Action& a);
  RhsValue parse_rhs_value(Cursor& c);
  uint32_t var_id(std::string_view name);
  Value const_value(const LexToken& t);

  void expect(Cursor& c, Tok kind, const char* what);

  SymbolTable& syms_;
  ClassSchemas& schemas_;
  RhsArena& arena_;
  // Scratch kept across productions, so each AST vector is allocated once,
  // at its final size: the production's variable names by id (views into
  // the source, copied into Production::var_names once), its conditions and
  // actions, and the tests of the CE or the assignments of the action being
  // parsed.
  std::vector<std::string_view> var_names_;
  std::vector<Condition> ces_;
  std::vector<Action> actions_;
  std::vector<ConstTest> consts_;
  std::vector<DisjTest> disjs_;
  std::vector<VarTest> vars_;
  std::vector<RhsAssignment> sets_;
};

}  // namespace psme
