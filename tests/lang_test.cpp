#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "alloc_probe.h"
#include "lang/lexer.h"
#include "lang/parser.h"
#include "lang/print.h"
#include "tasks/registry.h"

namespace psme {
namespace {

class ParserTest : public ::testing::Test {
 protected:
  Production parse(std::string_view src) {
    Parser p(syms_, schemas_, arena_);
    return p.parse_production(src);
  }
  SymbolTable syms_;
  ClassSchemas schemas_;
  RhsArena arena_;
};

TEST(Lexer, ClassifiesTokens) {
  const auto toks = lex("(p name ^attr <var> 42 -3 2.5 --> - << >> <> <= <=>)");
  std::vector<Tok> kinds;
  for (const auto& t : toks) kinds.push_back(t.kind);
  const std::vector<Tok> expected = {
      Tok::LParen, Tok::Sym,    Tok::Sym,    Tok::Hat,    Tok::Variable,
      Tok::Int,    Tok::Int,    Tok::Float,  Tok::Arrow,  Tok::Dash,
      Tok::LDisj,  Tok::RDisj,  Tok::PredNe, Tok::PredLe, Tok::PredSame,
      Tok::RParen, Tok::End};
  EXPECT_EQ(kinds, expected);
}

TEST(Lexer, CommentsAndLines) {
  const auto toks = lex("a ; comment here\nb");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[0].text, "a");
  EXPECT_EQ(toks[1].text, "b");
  EXPECT_EQ(toks[1].line, 2);
}

TEST(Lexer, NegativeNumbersVsDash) {
  const auto toks = lex("-3 - -x");
  EXPECT_EQ(toks[0].kind, Tok::Int);
  EXPECT_EQ(toks[0].int_val, -3);
  EXPECT_EQ(toks[1].kind, Tok::Dash);
  EXPECT_EQ(toks[2].kind, Tok::Sym);  // "-x" is a symbol
}

// An atom is a number only if it has a digit and from_chars takes all of
// it: the spellings from_chars reads as NaN or infinity stay symbols.
TEST(Lexer, NumbersNeedADigit) {
  const auto toks =
      lex("nan NaN inf -inf INF infinity -Infinity inf1 1e3 1e300 +3 1x");
  const std::vector<Tok> expected = {
      Tok::Sym, Tok::Sym, Tok::Sym,   Tok::Sym,   Tok::Sym, Tok::Sym,
      Tok::Sym, Tok::Sym, Tok::Float, Tok::Float, Tok::Sym, Tok::Sym,
      Tok::End};
  std::vector<Tok> kinds;
  for (const auto& t : toks) kinds.push_back(t.kind);
  EXPECT_EQ(kinds, expected);
  EXPECT_EQ(toks[0].text, "nan");
  EXPECT_EQ(toks[3].text, "-inf");
  EXPECT_DOUBLE_EQ(toks[8].float_val, 1000.0);
}

// The pull API: one token per next(), views into the source, and End again
// after the end.
TEST(Lexer, PullsTokensThatViewTheSource) {
  const std::string src = "(p x ^attr <v> 7)";
  Lexer lx(src);
  const LexToken open = lx.next();
  EXPECT_EQ(open.kind, Tok::LParen);
  EXPECT_EQ(open.text.data(), src.data());
  const LexToken p = lx.next();
  const LexToken x = lx.next();
  const LexToken attr = lx.next();
  EXPECT_EQ(attr.kind, Tok::Hat);
  EXPECT_EQ(attr.text, "attr");
  EXPECT_EQ(attr.text.data(), src.data() + 6);
  EXPECT_EQ(lx.next().kind, Tok::Variable);
  const LexToken seven = lx.next();
  EXPECT_EQ(seven.kind, Tok::Int);
  EXPECT_EQ(seven.int_val, 7);
  EXPECT_EQ(lx.next().kind, Tok::RParen);
  EXPECT_EQ(lx.next().kind, Tok::End);
  EXPECT_EQ(lx.next().kind, Tok::End);
  // Tokens kept by value stay valid after later pulls.
  EXPECT_EQ(p.text, "p");
  EXPECT_EQ(x.text, "x");
}

// One pull-lexer pass over each task's source allocates nothing.
TEST(Lexer, PassOverTaskSourcesIsAllocationFree) {
  for (const Task& task : {make_eight_puzzle(), make_strips(), make_cypress()}) {
    const size_t expected = lex(task.productions).size() - 1;  // End
    size_t tokens = 0;
    const uint64_t before = test::heap_allocs();
    Lexer lx(task.productions);
    while (lx.next().kind != Tok::End) ++tokens;
    EXPECT_EQ(test::heap_allocs() - before, 0u) << task.name;
    EXPECT_EQ(tokens, expected) << task.name;
    EXPECT_GT(tokens, 9000u) << task.name;
  }
}

TEST_F(ParserTest, NonNumericSpellingsParseAsSymbols) {
  const auto p = parse("(p p1 (a ^v nan ^w inf ^x 1e300) --> (halt))");
  ASSERT_EQ(p.conditions[0].consts.size(), 3u);
  EXPECT_TRUE(p.conditions[0].consts[0].value.is_sym());
  EXPECT_TRUE(p.conditions[0].consts[1].value.is_sym());
  EXPECT_EQ(p.conditions[0].consts[2].value.kind(), Value::Kind::Float);
}

TEST_F(ParserTest, SimpleProduction) {
  const auto p = parse(
      "(p hello (block ^name b1 ^color blue) --> (write hi))");
  EXPECT_EQ(syms_.name(p.name), "hello");
  ASSERT_EQ(p.conditions.size(), 1u);
  EXPECT_EQ(p.conditions[0].consts.size(), 2u);
  ASSERT_EQ(p.actions.size(), 1u);
  EXPECT_EQ(p.actions[0].kind, Action::Kind::Write);
}

TEST_F(ParserTest, VariablesShareIds) {
  const auto p = parse(
      "(p v (a ^x <v1> ^y <v2>) (b ^x <v1>) --> (make c ^z <v2>))");
  EXPECT_EQ(p.num_vars, 2u);
  ASSERT_EQ(p.conditions[1].vars.size(), 1u);
  EXPECT_EQ(p.conditions[1].vars[0].var, p.conditions[0].vars[0].var);
}

TEST_F(ParserTest, NegatedConditionAndPredicates) {
  const auto p = parse(
      "(p n (a ^size > 3) -(b ^size <= 10) --> (halt))");
  EXPECT_FALSE(p.conditions[0].negated);
  EXPECT_TRUE(p.conditions[1].negated);
  EXPECT_EQ(p.conditions[0].consts[0].pred, Pred::Gt);
  EXPECT_EQ(p.conditions[1].consts[0].pred, Pred::Le);
}

TEST_F(ParserTest, ConjunctiveTestGroup) {
  const auto p = parse("(p g (a ^size { > 2 < 9 <s> }) --> (halt))");
  EXPECT_EQ(p.conditions[0].consts.size(), 2u);
  EXPECT_EQ(p.conditions[0].vars.size(), 1u);
}

TEST_F(ParserTest, Disjunction) {
  const auto p = parse("(p d (a ^color << red green blue >>) --> (halt))");
  ASSERT_EQ(p.conditions[0].disjs.size(), 1u);
  EXPECT_EQ(p.conditions[0].disjs[0].options.size(), 3u);
}

TEST_F(ParserTest, Ncc) {
  const auto p = parse(
      "(p ncc (a ^v <x>) -{ (b ^v <x>) (c ^v <x>) } --> (halt))");
  ASSERT_EQ(p.conditions.size(), 2u);
  EXPECT_TRUE(p.conditions[1].is_ncc());
  EXPECT_EQ(p.conditions[1].ncc.size(), 2u);
  EXPECT_EQ(p.total_ce_count(), 3);
  EXPECT_EQ(p.positive_ce_count(), 1);
}

TEST_F(ParserTest, Actions) {
  const auto p = parse(
      "(p acts (a ^v <x>) --> (make b ^w <x>) (modify 1 ^v 2) (remove 1) "
      "(bind <y> (genatom q)) (write a <x>) (halt))");
  ASSERT_EQ(p.actions.size(), 6u);
  EXPECT_EQ(p.actions[0].kind, Action::Kind::Make);
  EXPECT_EQ(p.actions[1].kind, Action::Kind::Modify);
  EXPECT_EQ(p.actions[2].kind, Action::Kind::Remove);
  EXPECT_EQ(p.actions[3].kind, Action::Kind::Bind);
  EXPECT_EQ(p.actions[3].bind_value.kind, RhsValue::Kind::Gensym);
  EXPECT_EQ(p.actions[4].kind, Action::Kind::Write);
  EXPECT_EQ(p.actions[5].kind, Action::Kind::Halt);
}

TEST_F(ParserTest, Compute) {
  const auto p = parse(
      "(p c (a ^v <x>) --> (make b ^w (compute <x> + 1)))");
  const RhsValue& v = p.actions[0].sets[0].value;
  EXPECT_EQ(v.kind, RhsValue::Kind::Compute);
  EXPECT_EQ(v.arith.op, '+');
  EXPECT_EQ(v.arith.lhs->kind, RhsValue::Kind::Var);
  EXPECT_EQ(v.arith.rhs->kind, RhsValue::Kind::Const);
}

TEST_F(ParserTest, Literalize) {
  Parser p(syms_, schemas_, arena_);
  p.parse_file("(literalize block name color size)");
  EXPECT_EQ(schemas_.find_slot(syms_.intern("block"), syms_.intern("name")), 0);
  EXPECT_EQ(schemas_.find_slot(syms_.intern("block"), syms_.intern("size")), 2);
}

TEST_F(ParserTest, Errors) {
  EXPECT_THROW(parse("(p broken"), ParseError);
  EXPECT_THROW(parse("(p x --> (halt))"), ParseError);          // no CEs
  EXPECT_THROW(parse("(p x -(a ^v 1) --> (halt))"), ParseError);  // neg first
  EXPECT_THROW(parse("(p x (a ^v 1) --> (explode))"), ParseError);
  EXPECT_THROW(parse("(p x (a ^v << >>) --> (halt))"), ParseError);
}

/// The message and line of the ParseError that parsing `src` throws.
struct ErrorAt {
  std::string what;
  int line = 0;
};

ErrorAt parse_error_of(std::string_view src) {
  SymbolTable syms;
  ClassSchemas schemas;
  RhsArena arena;
  Parser p(syms, schemas, arena);
  try {
    p.parse_file(src);
  } catch (const ParseError& e) {
    return {e.what(), e.line()};
  }
  ADD_FAILURE() << "no ParseError for: " << src;
  return {};
}

// Each error kind's message and line, pinned on inputs that hold exactly
// one error.
TEST(ParseErrors, BareHat) {
  const ErrorAt e = parse_error_of("(p x\n (a ^ 1) --> (halt))");
  EXPECT_EQ(e.what, "parse error (line 2): bare '^' is not an attribute");
  EXPECT_EQ(e.line, 2);
}

TEST(ParseErrors, UnterminatedProductionAtEndOfInput) {
  const ErrorAt e = parse_error_of("(p broken\n (a ^v 1)\n");
  EXPECT_EQ(e.what, "parse error (line 3): unterminated production 'broken'");
  EXPECT_EQ(e.line, 3);
}

TEST(ParseErrors, UnknownAction) {
  const ErrorAt e = parse_error_of("(p x (a ^v 1)\n -->\n (explode))");
  EXPECT_EQ(e.what, "parse error (line 3): unknown action 'explode'");
  EXPECT_EQ(e.line, 3);
}

TEST(ParseErrors, EmptyDisjunctionReportsItsOpeningLine) {
  const ErrorAt e = parse_error_of("(p x\n (a ^v <<\n >>) --> (halt))");
  EXPECT_EQ(e.what, "parse error (line 2): empty disjunction '<< >>'");
  EXPECT_EQ(e.line, 2);
}

TEST(ParseErrors, NegatedFirstConditionReportsTheNameLine) {
  const ErrorAt e = parse_error_of("(p\n x\n -(a ^v 1)\n --> (halt))");
  EXPECT_EQ(e.what,
            "parse error (line 2): first condition element must be positive");
  EXPECT_EQ(e.line, 2);
}

/// 64-bit FNV-1a, continued from `h`.
uint64_t fnv1a(std::string_view s, uint64_t h = 0xcbf29ce484222325ull) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

struct ParseFingerprint {
  size_t productions = 0;
  uint64_t text_hash = 0;     // over every production_to_text, in order
  uint64_t tests_hash = 0;    // over every CE's tests, in AST order
  size_t symbols = 0;         // symbol-table size after the parse
  uint64_t names_hash = 0;    // over the symbol names, in id order
};

/// The CE's tests in vector order. The printer groups a CE's tests by slot,
/// but the builder reads `vars` in order (the first Eq occurrence binds).
void append_tests(const Condition& ce, const SymbolTable& syms,
                  std::string& out) {
  out += ce.negated ? "-(" : "(";
  out += std::to_string(ce.cls.raw());
  for (const ConstTest& t : ce.consts) {
    out += " c" + std::to_string(t.slot) + pred_name(t.pred) +
           t.value.to_string(syms);
  }
  for (const DisjTest& t : ce.disjs) {
    out += " d" + std::to_string(t.slot);
    for (const Value& v : t.options) out += "," + v.to_string(syms);
  }
  for (const VarTest& t : ce.vars) {
    out += " v" + std::to_string(t.slot) + pred_name(t.pred) +
           std::to_string(t.var);
  }
  for (const Condition& inner : ce.ncc) append_tests(inner, syms, out);
  out += ')';
}

ParseFingerprint fingerprint(const Task& task) {
  SymbolTable syms;
  ClassSchemas schemas;
  RhsArena arena;
  Parser parser(syms, schemas, arena);
  const std::vector<Production> prods = parser.parse_file(task.productions);
  ParseFingerprint f;
  f.productions = prods.size();
  f.text_hash = fnv1a("");
  f.tests_hash = fnv1a("");
  for (const Production& p : prods) {
    f.text_hash = fnv1a(production_to_text(p, syms, schemas), f.text_hash);
    f.text_hash = fnv1a("\n", f.text_hash);
    std::string tests;
    for (const Condition& ce : p.conditions) append_tests(ce, syms, tests);
    f.tests_hash = fnv1a(tests + "\n", f.tests_hash);
  }
  f.symbols = syms.size();
  f.names_hash = fnv1a("");
  for (uint32_t i = 0; i < syms.size(); ++i) {
    f.names_hash = fnv1a(syms.name(Symbol(i)), f.names_hash);
    f.names_hash = fnv1a("\n", f.names_hash);
  }
  return f;
}

// The three tasks' parse, fixed as constants: the productions (through the
// printer) and the symbol table in id order. Symbol ids feed Value::hash,
// so a change in intern order moves every join hash line and golden.
TEST(ParseFingerprint, ThreeTasks) {
  const ParseFingerprint ep = fingerprint(make_eight_puzzle());
  EXPECT_EQ(ep.productions, 71u);
  EXPECT_EQ(ep.text_hash, 1601312237228856210ull);
  EXPECT_EQ(ep.tests_hash, 15360967353434177827ull);
  EXPECT_EQ(ep.symbols, 146u);
  EXPECT_EQ(ep.names_hash, 6908736654150322848ull);
  const ParseFingerprint st = fingerprint(make_strips());
  EXPECT_EQ(st.productions, 105u);
  EXPECT_EQ(st.text_hash, 12526469540043710951ull);
  EXPECT_EQ(st.tests_hash, 8358333859215541251ull);
  EXPECT_EQ(st.symbols, 241u);
  EXPECT_EQ(st.names_hash, 17198314018973763694ull);
  const ParseFingerprint cy = fingerprint(make_cypress());
  EXPECT_EQ(cy.productions, 196u);
  EXPECT_EQ(cy.text_hash, 7101724453189742257ull);
  EXPECT_EQ(cy.tests_hash, 12737015258221730635ull);
  EXPECT_EQ(cy.symbols, 409u);
  EXPECT_EQ(cy.names_hash, 162358156170419321ull);
}

TEST_F(ParserTest, RoundTripThroughPrinter) {
  const std::string src =
      "(p rt (a ^x <v1> ^size > 3) -(b ^x <v1>) "
      "-{ (c ^x <v1>) } --> (make d ^y <v1> ^z (genatom n)))";
  const auto p1 = parse(src);
  const std::string printed = production_to_text(p1, syms_, schemas_);
  const auto p2 = parse(printed);
  EXPECT_EQ(p2.conditions.size(), p1.conditions.size());
  EXPECT_EQ(p2.total_ce_count(), p1.total_ce_count());
  EXPECT_EQ(p2.actions.size(), p1.actions.size());
  EXPECT_EQ(p2.num_vars, p1.num_vars);
}

}  // namespace
}  // namespace psme
