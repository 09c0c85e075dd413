#include "lang/lexer.h"

#include <array>
#include <charconv>
#include <cstring>

#include "lang/parser.h"

namespace psme {
namespace {

// Byte classes: one table read per byte instead of std::isspace and a chain
// of compares.
constexpr uint8_t kSpace = 1;  // the "C" locale's isspace, '\n' included
constexpr uint8_t kDelim = 2;  // ends an atom: whitespace, ( ) { } ;
constexpr uint8_t kDigit = 4;

constexpr std::array<uint8_t, 256> kClass = [] {
  std::array<uint8_t, 256> t{};
  for (const char c : {' ', '\t', '\n', '\v', '\f', '\r'}) {
    t[static_cast<unsigned char>(c)] = kSpace | kDelim;
  }
  for (const char c : {'(', ')', '{', '}', ';'}) {
    t[static_cast<unsigned char>(c)] = kDelim;
  }
  for (char c = '0'; c <= '9'; ++c) t[static_cast<unsigned char>(c)] = kDigit;
  return t;
}();

uint8_t byte_class(char c) { return kClass[static_cast<unsigned char>(c)]; }

/// Classifies a bare atom into the fixed operator spellings, a variable, a
/// number, or a plain symbol. Only an atom with a digit can be a number, so
/// `nan`, `inf` and `infinity` stay symbols.
LexToken classify(std::string_view a, int line, bool has_digit) {
  LexToken t{Tok::Sym, line, a};
  switch (a.front()) {
    case '-':
      if (a == "-->") t.kind = Tok::Arrow;
      else if (a == "-") t.kind = Tok::Dash;
      break;
    case '<':
      if (a == "<") t.kind = Tok::PredLt;
      else if (a == "<<") t.kind = Tok::LDisj;
      else if (a == "<>") t.kind = Tok::PredNe;
      else if (a == "<=") t.kind = Tok::PredLe;
      else if (a == "<=>") t.kind = Tok::PredSame;
      else if (a.size() >= 3 && a.back() == '>') t.kind = Tok::Variable;
      break;
    case '>':
      if (a == ">") t.kind = Tok::PredGt;
      else if (a == ">>") t.kind = Tok::RDisj;
      else if (a == ">=") t.kind = Tok::PredGe;
      break;
    case '=':
      if (a == "=") t.kind = Tok::PredEq;
      break;
    case '^':
      if (a.size() < 2) throw ParseError("bare '^' is not an attribute", line);
      t.kind = Tok::Hat;
      t.text = a.substr(1);
      return t;
    default:
      break;
  }
  if (t.kind != Tok::Sym || !has_digit) return t;

  // A number only if from_chars takes all of it.
  const char* begin = a.data();
  const char* end = a.data() + a.size();
  {
    int64_t iv = 0;
    auto [p, ec] = std::from_chars(begin, end, iv);
    if (ec == std::errc() && p == end) {
      t.kind = Tok::Int;
      t.int_val = iv;
      return t;
    }
  }
  {
    double dv = 0;
    auto [p, ec] = std::from_chars(begin, end, dv);
    if (ec == std::errc() && p == end) {
      t.kind = Tok::Float;
      t.float_val = dv;
    }
  }
  return t;
}

}  // namespace

LexToken Lexer::next() {
  const char* s = src_.data();
  const size_t n = src_.size();
  size_t i = pos_;
  for (;;) {
    if (i == n) {
      pos_ = i;
      return {Tok::End, line_, {}};
    }
    const char c = s[i];
    if (c == '\n') {
      ++line_;
      ++i;
    } else if ((byte_class(c) & kSpace) != 0) {
      ++i;
    } else if (c == ';') {  // comment to end of line
      const void* nl = std::memchr(s + i, '\n', n - i);
      i = nl != nullptr ? static_cast<size_t>(static_cast<const char*>(nl) - s)
                        : n;
    } else {
      break;
    }
  }
  Tok single = Tok::End;
  switch (s[i]) {
    case '(': single = Tok::LParen; break;
    case ')': single = Tok::RParen; break;
    case '{': single = Tok::LBrace; break;
    case '}': single = Tok::RBrace; break;
    default: break;
  }
  if (single != Tok::End) {
    pos_ = i + 1;
    return {single, line_, src_.substr(i, 1)};
  }
  size_t j = i;
  uint8_t seen = 0;
  for (; j < n; ++j) {
    const uint8_t cls = byte_class(s[j]);
    if ((cls & kDelim) != 0) break;
    seen |= cls;
  }
  pos_ = j;
  return classify(src_.substr(i, j - i), line_, (seen & kDigit) != 0);
}

std::vector<LexToken> lex(std::string_view src) {
  std::vector<LexToken> out;
  Lexer lx(src);
  do {
    out.push_back(lx.next());
  } while (out.back().kind != Tok::End);
  return out;
}

}  // namespace psme
