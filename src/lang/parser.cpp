#include "lang/parser.h"

#include <iterator>

namespace psme {
namespace {

Pred pred_of(Tok t) {
  switch (t) {
    case Tok::PredEq: return Pred::Eq;
    case Tok::PredNe: return Pred::Ne;
    case Tok::PredLt: return Pred::Lt;
    case Tok::PredLe: return Pred::Le;
    case Tok::PredGt: return Pred::Gt;
    case Tok::PredGe: return Pred::Ge;
    case Tok::PredSame: return Pred::SameType;
    default: throw std::logic_error("pred_of: not a predicate token");
  }
}

}  // namespace

void Parser::expect(Cursor& c, Tok kind, const char* what) {
  if (c.peek().kind != kind)
    throw ParseError(std::string("expected ") + what + ", got '" +
                         std::string(c.peek().text) + "'",
                     c.peek().line);
  c.next();
}

Value Parser::const_value(const LexToken& t) {
  switch (t.kind) {
    case Tok::Sym: return Value(syms_.intern(t.text));
    case Tok::Int: return Value(t.int_val);
    case Tok::Float: return Value(t.float_val);
    default:
      throw ParseError("expected a constant, got '" + std::string(t.text) + "'",
                       t.line);
  }
}

uint32_t Parser::var_id(std::string_view name) {
  for (uint32_t i = 0; i < var_names_.size(); ++i)
    if (var_names_[i] == name) return i;
  var_names_.push_back(name);
  return static_cast<uint32_t>(var_names_.size() - 1);
}

std::vector<Production> Parser::parse_file(std::string_view src) {
  Cursor c(src);
  std::vector<Production> out;
  while (c.peek().kind != Tok::End) {
    expect(c, Tok::LParen, "'('");
    const LexToken head = c.next();
    if (head.kind != Tok::Sym)
      throw ParseError("expected 'p' or 'literalize'", head.line);
    if (head.text == "p") {
      out.push_back(parse_p(c));
    } else if (head.text == "literalize") {
      parse_literalize(c);
    } else {
      throw ParseError("unknown top-level form '" + std::string(head.text) + "'",
                       head.line);
    }
  }
  return out;
}

Production Parser::parse_production(std::string_view src) {
  auto all = parse_file(src);
  if (all.size() != 1)
    throw ParseError("expected exactly one production", 1);
  return std::move(all.front());
}

void Parser::parse_literalize(Cursor& c) {
  const LexToken cls_tok = c.next();
  if (cls_tok.kind != Tok::Sym)
    throw ParseError("literalize: expected class name", cls_tok.line);
  const Symbol cls = syms_.intern(cls_tok.text);
  while (c.peek().kind == Tok::Sym) {
    schemas_.slot(cls, syms_.intern(c.next().text));
  }
  expect(c, Tok::RParen, "')' after literalize");
}

Production Parser::parse_p(Cursor& c) {
  Production p;
  const LexToken name_tok = c.next();
  if (name_tok.kind != Tok::Sym)
    throw ParseError("expected production name", name_tok.line);
  p.name = syms_.intern(name_tok.text);

  var_names_.clear();
  ces_.clear();
  // Conditions until -->
  while (c.peek().kind != Tok::Arrow) {
    if (c.peek().kind == Tok::End)
      throw ParseError("unterminated production '" +
                           std::string(syms_.name(p.name)) + "'",
                       c.peek().line);
    parse_ce(c, ces_.emplace_back());
  }
  c.next();  // -->
  p.conditions.assign(std::make_move_iterator(ces_.begin()),
                      std::make_move_iterator(ces_.end()));
  if (p.conditions.empty())
    throw ParseError("production has no conditions", name_tok.line);
  if (p.conditions.front().negated || p.conditions.front().is_ncc())
    throw ParseError("first condition element must be positive", name_tok.line);

  actions_.clear();
  while (c.peek().kind == Tok::LParen) {
    parse_action(c, p, actions_.emplace_back());
  }
  expect(c, Tok::RParen, "')' closing production");
  p.actions.assign(std::make_move_iterator(actions_.begin()),
                   std::make_move_iterator(actions_.end()));
  p.num_vars = static_cast<uint32_t>(var_names_.size());
  p.var_names.assign(var_names_.begin(), var_names_.end());
  return p;
}

void Parser::parse_ce(Cursor& c, Condition& ce) {
  bool negated = false;
  if (c.peek().kind == Tok::Dash) {
    negated = true;
    c.next();
    if (c.peek().kind == Tok::LBrace) {
      // Conjunctive negation: -{ CE+ }. The group itself is not `negated`.
      c.next();
      while (c.peek().kind != Tok::RBrace) {
        if (c.peek().kind == Tok::End)
          throw ParseError("unterminated '-{'", c.peek().line);
        Condition& inner = ce.ncc.emplace_back();
        parse_ce(c, inner);
        if (inner.negated || inner.is_ncc())
          throw ParseError("conditions inside -{ } must be positive",
                           c.peek().line);
      }
      c.next();  // }
      if (ce.ncc.empty())
        throw ParseError("empty conjunctive negation", c.peek().line);
      return;
    }
  }
  expect(c, Tok::LParen, "'(' starting a condition element");
  const LexToken cls_tok = c.next();
  if (cls_tok.kind != Tok::Sym)
    throw ParseError("expected class name in condition", cls_tok.line);
  ce.cls = syms_.intern(cls_tok.text);
  ce.negated = negated;
  parse_attr_tests(c, ce);
  expect(c, Tok::RParen, "')' closing condition");
}

void Parser::parse_attr_tests(Cursor& c, Condition& ce) {
  consts_.clear();
  disjs_.clear();
  vars_.clear();
  while (c.peek().kind == Tok::Hat) {
    const Symbol attr = syms_.intern(c.next().text);
    const int slot = schemas_.slot(ce.cls, attr);
    if (c.peek().kind == Tok::LBrace) {
      c.next();
      while (c.peek().kind != Tok::RBrace) {
        if (c.peek().kind == Tok::End)
          throw ParseError("unterminated '{' test group", c.peek().line);
        parse_one_test(c, slot);
      }
      c.next();  // }
    } else {
      parse_one_test(c, slot);
    }
  }
  ce.consts.assign(consts_.begin(), consts_.end());
  ce.disjs.assign(std::make_move_iterator(disjs_.begin()),
                  std::make_move_iterator(disjs_.end()));
  ce.vars.assign(vars_.begin(), vars_.end());
}

void Parser::parse_one_test(Cursor& c, int slot) {
  const LexToken t = c.next();
  if (t.is_pred()) {
    const Pred pr = pred_of(t.kind);
    const LexToken operand = c.next();
    if (operand.kind == Tok::Variable) {
      vars_.push_back({slot, pr, var_id(operand.text)});
    } else {
      consts_.push_back({slot, pr, const_value(operand)});
    }
    return;
  }
  if (t.kind == Tok::Variable) {
    vars_.push_back({slot, Pred::Eq, var_id(t.text)});
    return;
  }
  if (t.kind == Tok::LDisj) {
    DisjTest d;
    d.slot = slot;
    while (c.peek().kind != Tok::RDisj) {
      if (c.peek().kind == Tok::End)
        throw ParseError("unterminated '<<'", c.peek().line);
      d.options.push_back(const_value(c.next()));
    }
    c.next();  // >>
    if (d.options.empty())
      throw ParseError("empty disjunction '<< >>'", t.line);
    disjs_.push_back(std::move(d));
    return;
  }
  consts_.push_back({slot, Pred::Eq, const_value(t)});
}

RhsValue Parser::parse_rhs_value(Cursor& c) {
  RhsValue v;
  const LexToken t = c.next();
  if (t.kind == Tok::Variable) {
    v.kind = RhsValue::Kind::Var;
    v.var = var_id(t.text);
    return v;
  }
  if (t.kind == Tok::LParen) {
    const LexToken head = c.next();
    if (head.kind == Tok::Sym && head.text == "genatom") {
      v.kind = RhsValue::Kind::Gensym;
      if (c.peek().kind == Tok::Sym)
        v.gensym_prefix = syms_.intern(c.next().text);
      else
        v.gensym_prefix = syms_.intern("a");
      expect(c, Tok::RParen, "')' after genatom");
      return v;
    }
    if (head.kind == Tok::Sym && head.text == "compute") {
      v.kind = RhsValue::Kind::Compute;
      v.arith.lhs = arena_.make();
      *v.arith.lhs = parse_rhs_value(c);
      const LexToken op = c.next();
      if (op.kind == Tok::Dash) {
        v.arith.op = '-';
      } else if (op.kind == Tok::Sym &&
                 (op.text == "+" || op.text == "-" || op.text == "*" ||
                  op.text == "/")) {
        v.arith.op = op.text[0];
      } else {
        throw ParseError(
            "compute: expected + - * /, got '" + std::string(op.text) + "'",
            op.line);
      }
      v.arith.rhs = arena_.make();
      *v.arith.rhs = parse_rhs_value(c);
      expect(c, Tok::RParen, "')' after compute");
      return v;
    }
    throw ParseError("unknown RHS value form '" + std::string(head.text) + "'",
                     head.line);
  }
  v.kind = RhsValue::Kind::Const;
  v.constant = const_value(t);
  return v;
}

void Parser::parse_action(Cursor& c, const Production& p, Action& a) {
  expect(c, Tok::LParen, "'(' starting an action");
  const LexToken head = c.next();
  if (head.kind != Tok::Sym)
    throw ParseError("expected action keyword", head.line);
  const std::string_view kw = head.text;
  if (kw == "make") {
    a.kind = Action::Kind::Make;
    const LexToken cls_tok = c.next();
    if (cls_tok.kind != Tok::Sym)
      throw ParseError("make: expected class name", cls_tok.line);
    a.cls = syms_.intern(cls_tok.text);
    parse_assignments(c, a.cls, a);
  } else if (kw == "modify") {
    a.kind = Action::Kind::Modify;
    const LexToken idx = c.next();
    if (idx.kind != Tok::Int)
      throw ParseError("modify: expected CE index", idx.line);
    a.ce_index = static_cast<int>(idx.int_val);
    // Slots are resolved against the class of the referenced CE.
    const int pos = a.ce_index;
    int seen = 0;
    Symbol cls;
    for (const auto& ce : p.conditions) {
      if (!ce.negated && !ce.is_ncc() && ++seen == pos) {
        cls = ce.cls;
        break;
      }
    }
    if (!cls.valid())
      throw ParseError("modify: CE index out of range", idx.line);
    parse_assignments(c, cls, a);
  } else if (kw == "remove") {
    a.kind = Action::Kind::Remove;
    const LexToken idx = c.next();
    if (idx.kind != Tok::Int)
      throw ParseError("remove: expected CE index", idx.line);
    a.ce_index = static_cast<int>(idx.int_val);
  } else if (kw == "write") {
    a.kind = Action::Kind::Write;
    while (c.peek().kind != Tok::RParen) {
      if (c.peek().kind == Tok::End)
        throw ParseError("unterminated write", c.peek().line);
      a.write_args.push_back(parse_rhs_value(c));
    }
  } else if (kw == "bind") {
    a.kind = Action::Kind::Bind;
    const LexToken var = c.next();
    if (var.kind != Tok::Variable)
      throw ParseError("bind: expected variable", var.line);
    a.bind_var = var_id(var.text);
    a.bind_value = parse_rhs_value(c);
  } else if (kw == "halt") {
    a.kind = Action::Kind::Halt;
  } else {
    throw ParseError("unknown action '" + std::string(kw) + "'", head.line);
  }
  expect(c, Tok::RParen, "')' closing action");
}

void Parser::parse_assignments(Cursor& c, Symbol cls, Action& a) {
  sets_.clear();
  while (c.peek().kind == Tok::Hat) {
    const Symbol attr = syms_.intern(c.next().text);
    RhsAssignment& asg = sets_.emplace_back();
    asg.slot = schemas_.slot(cls, attr);
    asg.value = parse_rhs_value(c);
  }
  a.sets.assign(sets_.begin(), sets_.end());
}

}  // namespace psme
