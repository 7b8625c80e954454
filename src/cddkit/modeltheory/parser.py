"""Concrete syntax for sentences.

    sentence := quant* formula
    quant    := ("forall" | "exists") ident "."
    formula  := formula ("and" | "or" | "->") formula
              | "not" formula | atom | "(" formula ")"
    atom     := ident "(" termlist ")" | term "=" term
    term     := ident | rational | ident "(" termlist ")"

Quantifiers are prenex.  Precedence: "not" binds tightest, then "and",
then "or", then "->" (right associative).  Identifiers are C-style, as
``syntax.IDENTIFIER`` and ``KEYWORDS`` say.  Whether one is a variable, a
constant, or a function is decided by the signature, so parsing needs one.

A sentence opens at most ``PARENTHESIS_LIMIT`` parentheses and argument
lists inside one another, and its syntax tree, counting every quantifier,
connective, atom and term, is at most ``SENTENCE_DEPTH_LIMIT`` levels high
(both in ``syntax``; the syntax nodes' constructor enforces the second).
Deeper text is a parse error, so that parsing, checking, evaluating and
printing a sentence never run out of stack.
"""

from __future__ import annotations

import re

from .._frozen import Frozen
from ..errors import FreeVariable, ParseError, SchemaError, UnknownSymbol
from .syntax import (
    IDENTIFIER,
    KEYWORDS,
    PARENTHESIS_LIMIT,
    RATIONAL_LITERAL,
    And,
    Apply,
    Atom,
    Eq,
    Exists,
    Forall,
    Formula,
    Implies,
    Lit,
    Not,
    Or,
    Signature,
    Term,
    Var,
    check_well_formed,
    coerce_value,
    free_variables,
)

__all__ = ["parse_sentence", "parse_formula"]

_TOKEN = re.compile(
    rf"""
    (?P<ws>\s+)
  | (?P<number>{RATIONAL_LITERAL.pattern})
  | (?P<ident>{IDENTIFIER.pattern})
  | (?P<arrow>->)
  | (?P<punct>[().,=])
    """,
    re.VERBOSE,
)


class _Token(Frozen):
    # kind: "ident", "keyword", "number", "arrow", "(", ")", ",", ".", "=", "eof"
    __slots__ = ("kind", "text", "pos")


def _lex(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        value = m.group(0)
        if m.lastgroup == "ident":
            kind = "keyword" if value in KEYWORDS else "ident"
        elif m.lastgroup == "number":
            kind = "number"
        elif m.lastgroup == "arrow":
            kind = "arrow"
        else:
            kind = value
        tokens.append(_Token(kind, value, m.start()))
    tokens.append(_Token("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, sig: Signature):
        self.tokens = _lex(text)
        self.index = 0
        self.sig = sig
        self.bound: list[str] = []
        self.open = 0  # parentheses and argument lists open around the current token

    # -- token helpers ------------------------------------------------------

    @property
    def current(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.current
        self.index += 1
        return tok

    def expect(self, kind: str, expected: str) -> _Token:
        if self.current.kind != kind:
            raise ParseError(
                f"found {self.current.text or 'end of input'!r}", self.current.pos, expected
            )
        return self.advance()

    def at_keyword(self, word: str) -> bool:
        return self.current.kind == "keyword" and self.current.text == word

    def nested(self, parse):
        """``parse()`` inside the parenthesis or argument list just opened.

        The only recursion of the parser goes through here, so its depth
        is bounded by the parenthesis limit.
        """
        if self.open == PARENTHESIS_LIMIT:
            opening = self.tokens[self.index - 1]
            raise ParseError(f"parentheses nested more than {PARENTHESIS_LIMIT} deep", opening.pos)
        self.open += 1
        inner = parse()
        self.open -= 1
        return inner

    # -- grammar --------------------------------------------------------------

    def sentence(self) -> Formula:
        quants = []
        while self.at_keyword("forall") or self.at_keyword("exists"):
            word = self.advance().text
            name_tok = self.expect("ident", "a variable name")
            if self.sig.declares(name_tok.text):
                raise ParseError(
                    f"cannot quantify over declared symbol {name_tok.text!r}", name_tok.pos
                )
            self.expect(".", "'.' after the quantified variable")
            quants.append((word, name_tok.text))
            self.bound.append(name_tok.text)
        try:  # only the nodes built here raise a SchemaError: a tree past the depth limit
            body = self.implication()
            self.expect("eof", "end of input")
            for word, name in reversed(quants):
                body = Forall(name, body) if word == "forall" else Exists(name, body)
        except SchemaError as exc:
            raise ParseError(str(exc), 0) from None
        return body

    def implication(self) -> Formula:
        parts = [self.disjunction()]
        while self.current.kind == "arrow":
            self.advance()
            parts.append(self.disjunction())
        out = parts.pop()
        while parts:
            out = Implies(parts.pop(), out)
        return out

    def disjunction(self) -> Formula:
        left = self.conjunction()
        while self.at_keyword("or"):
            self.advance()
            left = Or(left, self.conjunction())
        return left

    def conjunction(self) -> Formula:
        left = self.negation()
        while self.at_keyword("and"):
            self.advance()
            left = And(left, self.negation())
        return left

    def negation(self) -> Formula:
        count = 0
        while self.at_keyword("not"):
            self.advance()
            count += 1
        out = self.atom()
        for _ in range(count):
            out = Not(out)
        return out

    def atom(self) -> Formula:
        tok = self.current
        if tok.kind == "(":
            self.advance()
            inner = self.nested(self.implication)
            self.expect(")", "')'")
            return inner
        if tok.kind == "ident" and self.sig.predicate_arity(tok.text) is not None:
            self.advance()
            return Atom(tok.text, self.termlist(tok))
        left = self.term()
        self.expect("=", "'=' after a term")
        right = self.term()
        return Eq(left, right)

    def termlist(self, head: _Token) -> tuple[Term, ...]:
        self.expect("(", f"'(' after symbol {head.text!r}")
        args = self.nested(self.arguments)
        self.expect(")", "')' closing the argument list")
        return args

    def arguments(self) -> tuple[Term, ...]:
        args = [self.term()]
        while self.current.kind == ",":
            self.advance()
            args.append(self.term())
        return tuple(args)

    def term(self) -> Term:
        tok = self.current
        if tok.kind == "number":
            self.advance()
            try:
                value = coerce_value(tok.text)
            except SchemaError as exc:  # a zero denominator, at the literal itself
                raise ParseError(str(exc), tok.pos) from None
            return Lit(value)
        if tok.kind != "ident":
            raise ParseError(f"found {tok.text or 'end of input'!r}", tok.pos, "a term")
        self.advance()
        name = tok.text
        if name in self.bound:
            return Var(name)
        func_arity = self.sig.function_arity(name)
        if func_arity is not None:
            if func_arity == 0:
                return Apply(name, ())
            return Apply(name, self.termlist(tok))
        if self.sig.predicate_arity(name) is not None:
            raise ParseError(f"predicate {name!r} used as a term", tok.pos)
        if self.current.kind == "(":
            raise UnknownSymbol(f"symbol {name!r} applied to arguments but not declared")
        return Var(name)


def parse_formula(text: str, sig: Signature) -> Formula:
    """Parse without requiring closedness; free variables are allowed.

    The parser reads any argument count, and ``check_well_formed`` decides
    the arities of the whole tree after it.
    """
    formula = _Parser(text, sig).sentence()
    check_well_formed(formula, sig)
    return formula


def parse_sentence(text: str, sig: Signature) -> Formula:
    """Parse a sentence over the signature: any free variable raises.

    Printing the result with ``to_text`` and reparsing yields an equal
    syntax tree.
    """
    formula = parse_formula(text, sig)
    free = free_variables(formula)
    if free:
        raise FreeVariable(f"unbound variables: {', '.join(sorted(free))}")
    return formula
