"""Abstract syntax for first-order predicate calculus with equality.

Terms are variables, exact-rational literals, and function applications
(constants are nullary applications).  Formulas combine predicate atoms
and equality atoms with the usual connectives and single-variable
quantifiers.  A sentence is a formula with no free variables.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Union

from .._frozen import Frozen
from ..errors import ArityMismatch, SchemaError, UnknownSymbol, json_array, json_object

__all__ = [
    "DomainValue",
    "coerce_value",
    "Var",
    "Lit",
    "Apply",
    "Term",
    "Atom",
    "Eq",
    "Not",
    "And",
    "Or",
    "Implies",
    "Forall",
    "Exists",
    "Formula",
    "Signature",
    "free_variables",
    "is_sentence",
    "has_quantifier",
    "check_well_formed",
    "to_text",
]


# How deep a sentence and a function body may nest.  Compiling, evaluating and
# printing a sentence each take a Python frame per level of its syntax tree,
# and evaluating a builtin function one per level of its body, so a sentence
# at its limit that applies a body at its limit takes about 800 frames, inside
# Python's default limit of 1,000.  Checking a sentence walks nothing: a syntax
# node's constructor records what the checks read, and refuses a tree past the
# sentence limit, however it is built.
# Parsing takes about six frames for each parenthesis or argument list open
# around a token.
SENTENCE_DEPTH_LIMIT = 500
BODY_DEPTH_LIMIT = 300
PARENTHESIS_LIMIT = 100


# --- nodes ---------------------------------------------------------------

# a leaf's facts: shared, and never changed
_NO_VARIABLES: frozenset[str] = frozenset()
_NO_SYMBOLS: dict[tuple[str, str, int], None] = {}


class _Node:
    """The constructor, equality, hash, repr and pickle of a ``Frozen`` syntax node.

    The constructor sets the fields through ``Frozen``'s and records outside
    them, from the children's records in one pass over them: the node's
    height, refusing a tree more than ``SENTENCE_DEPTH_LIMIT`` levels high;
    ``Frozen``'s hash of the field values; the free variables (a ``Var`` is
    its name, a quantifier removes its variable); the symbols used, one
    ``(kind, name, argument count)`` key per use in preorder, first
    occurrence only; and whether a quantifier occurs.  A node that adds
    nothing to a child's set keeps that child's object.  Equality and repr
    give what ``Frozen``'s give, each walked with an explicit stack, and a
    pickle or a copy lists the nodes in postorder: none recurses per level.
    A node class lists this before ``Frozen``.
    """

    __slots__ = ("_height", "_hash", "_free", "_symbols", "_quantified")

    def __init__(self, *args, **named):
        super().__init__(*args, **named)
        values = self._values(self)
        height, free, symbols, quantified = 1, _NO_VARIABLES, _NO_SYMBOLS, False
        for value in values:
            for child in value if value.__class__ is tuple else (value,):
                if isinstance(child, _Node):
                    if child._height >= height:
                        height = child._height + 1
                    if not child._free <= free:
                        free = child._free if free <= child._free else free | child._free
                    if not child._symbols.keys() <= symbols.keys():
                        # the earlier children's uses come first in preorder
                        symbols = symbols | child._symbols if symbols else child._symbols
                    quantified = quantified or child._quantified
        if height > SENTENCE_DEPTH_LIMIT:
            raise SchemaError(f"syntax tree more than {SENTENCE_DEPTH_LIMIT} levels deep")
        cls = self.__class__
        if cls is Var:
            free = frozenset(values)
        elif cls is Atom or cls is Apply:
            # the node's own use comes before its arguments'
            symbols = {("predicate" if cls is Atom else "function", values[0], len(values[1])): None} | symbols
        elif cls is Forall or cls is Exists:
            free = free - {values[0]} if values[0] in free else free
            quantified = True
        object.__setattr__(self, "_height", height)
        object.__setattr__(self, "_hash", hash(values))
        object.__setattr__(self, "_free", free)
        object.__setattr__(self, "_symbols", symbols)
        object.__setattr__(self, "_quantified", quantified)

    def __deepcopy__(self, memo):
        return self  # every field is immutable all the way down

    def __reduce__(self):
        # the distinct nodes in postorder, each child as [its index]: no field
        # holds a list, which cannot be hashed, so the marker is unambiguous
        index, entries, stack = {}, [], [self]

        def link(value):
            return [index[id(value)]] if isinstance(value, _Node) else value

        while stack:
            node = stack.pop()
            if id(node) in index:
                continue
            fields = node._values(node)
            unvisited = [c for v in fields for c in (v if v.__class__ is tuple else (v,))
                         if isinstance(c, _Node) and id(c) not in index]
            if unvisited:
                stack += [node, *unvisited]
                continue
            index[id(node)] = len(entries)
            entries.append((node.__class__, _map_fields(link, fields)))
        return _rebuild, (entries,)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if isinstance(a, _Node) and a.__class__ is b.__class__:
                pairs += zip(a._values(a), b._values(b))
            elif a.__class__ is tuple and b.__class__ is tuple and len(a) == len(b):
                pairs += zip(a, b)
            elif not a == b:
                return False
        return True

    def __hash__(self):
        return self._hash

    def __repr__(self):
        out, stack = [], [(False, self)]
        while stack:
            literal, value = stack.pop()
            if literal:
                out.append(value)
            elif isinstance(value, _Node):
                parts = [(True, f"{value.__class__.__qualname__}(")]
                for k, (name, field) in enumerate(zip(value.__slots__, value._values(value))):
                    parts += [(True, f"{', ' if k else ''}{name}="), (False, field)]
                stack += reversed([*parts, (True, ")")])
            elif value.__class__ is tuple:
                parts = [(True, "(")]
                for k, item in enumerate(value):
                    if k:
                        parts.append((True, ", "))
                    parts.append((False, item))
                stack += reversed([*parts, (True, ",)" if len(value) == 1 else ")")])
            else:
                out.append(repr(value))
        return "".join(out)


def _map_fields(f, fields: tuple) -> tuple:
    """``f`` of each field value, and of each item of a tuple field."""
    return tuple(tuple(map(f, v)) if v.__class__ is tuple else f(v) for v in fields)


def _rebuild(entries):
    """The tree that ``_Node.__reduce__`` took apart: its last entry, built from the first up."""
    nodes = []

    def node(value):
        return nodes[value[0]] if value.__class__ is list else value

    for cls, fields in entries:
        nodes.append(cls(*_map_fields(node, fields)))
    return nodes[-1]


# --- terms ---------------------------------------------------------------

# the one spelling of a rational literal: sentences, domain values, function
# bodies and graph referents all use it
RATIONAL_LITERAL = re.compile(r"-?\d+(?:/\d+|\.\d+)?")

DomainValue = Union[Fraction, str]


def coerce_value(v) -> DomainValue:
    """JSON value to a domain value: numbers and numeric strings become
    exact rationals, everything else stays an opaque token.

    This is the one place where literal text becomes a ``Fraction``; a
    literal with a zero denominator, such as ``1/0``, is a ``SchemaError``.
    """
    # the JSON kinds first: a Fraction test of any other value goes through
    # ABCMeta.__instancecheck__, and only Python callers pass a Fraction
    if isinstance(v, str):
        if RATIONAL_LITERAL.fullmatch(v):
            try:
                return Fraction(v)
            except ZeroDivisionError:
                raise SchemaError(f"literal {v!r} has a zero denominator") from None
        return v
    if isinstance(v, bool):
        raise SchemaError("booleans are not domain values")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        if not math.isfinite(v):
            raise SchemaError(f"{v!r} is not a domain value: numbers must be finite")
        return Fraction(str(v))
    if isinstance(v, Fraction):
        return v
    raise SchemaError(f"cannot use {v!r} as a domain value")


class Var(_Node, Frozen):
    __slots__ = ("name",)


class Lit(_Node, Frozen):
    __slots__ = ("value",)


class Apply(_Node, Frozen):
    __slots__ = ("func", "args")

    def __init__(self, func: str, args: tuple[Term, ...] = ()):
        super().__init__(func, args)


Term = Union[Var, Lit, Apply]


# --- formulas ------------------------------------------------------------

class Atom(_Node, Frozen):
    __slots__ = ("pred", "args")


class Eq(_Node, Frozen):
    __slots__ = ("left", "right")


class Not(_Node, Frozen):
    __slots__ = ("body",)


class And(_Node, Frozen):
    __slots__ = ("left", "right")


class Or(_Node, Frozen):
    __slots__ = ("left", "right")


class Implies(_Node, Frozen):
    __slots__ = ("left", "right")


class Forall(_Node, Frozen):
    __slots__ = ("var", "body")


class Exists(_Node, Frozen):
    __slots__ = ("var", "body")


Formula = Union[Atom, Eq, Not, And, Or, Implies, Forall, Exists]


# --- signatures ------------------------------------------------------------

# the one spelling of a symbol name, which the lexer and Signature both read
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
KEYWORDS = frozenset({"forall", "exists", "and", "or", "not"})


class Signature(Frozen):
    """Predicate and function symbols with fixed arities.

    Equality is built in and never declared.  Nullary function symbols
    are the language's constants.  Every name is a whole ``IDENTIFIER``
    and not one of the ``KEYWORDS``, so the parser reads each one back.
    """

    __slots__ = ("predicates", "functions")

    def __init__(
        self, predicates: tuple[tuple[str, int], ...] = (), functions: tuple[tuple[str, int], ...] = ()
    ):
        predicates = tuple((str(n), int(a)) for n, a in predicates)
        functions = tuple((str(n), int(a)) for n, a in functions)
        names = [n for n, _ in predicates] + [n for n, _ in functions]
        if len(set(names)) != len(names):
            raise SchemaError("symbol names must be unique across predicates and functions")
        for kind, entries, least in (("predicate", predicates, 1), ("function", functions, 0)):
            for n, a in entries:
                if n in KEYWORDS:
                    raise SchemaError(f"{kind} symbol {n!r} is a keyword")
                if not IDENTIFIER.fullmatch(n):
                    raise SchemaError(f"{kind} symbol {n!r} is not an identifier")
                if a < least:
                    raise SchemaError(f"{kind} {n!r} must have arity >= {least}")
        object.__setattr__(self, "predicates", predicates)
        object.__setattr__(self, "functions", functions)

    def predicate_arity(self, name: str) -> int | None:
        for n, a in self.predicates:
            if n == name:
                return a
        return None

    def function_arity(self, name: str) -> int | None:
        for n, a in self.functions:
            if n == name:
                return a
        return None

    def declares(self, name: str) -> bool:
        return self.predicate_arity(name) is not None or self.function_arity(name) is not None

    def to_json(self) -> dict:
        return {
            "predicates": [[n, a] for n, a in self.predicates],
            "functions": [[n, a] for n, a in self.functions],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Signature":
        json_object(doc, "a signature")
        return cls(predicates=_symbols(doc, "predicates"), functions=_symbols(doc, "functions"))


def _symbols(doc: dict, key: str) -> tuple[tuple[str, int], ...]:
    entries = json_array(doc.get(key, []), f"signature {key!r}")
    for entry in entries:
        if not (
            isinstance(entry, list)
            and len(entry) == 2
            and isinstance(entry[0], str)
            and type(entry[1]) is int
        ):
            raise SchemaError(f"signature {key!r} entry {entry!r} is not a [name, arity] pair")
    return tuple((name, arity) for name, arity in entries)


# --- structural queries ------------------------------------------------------
#
# Each reads what the formula's constructor recorded, walking nothing.  The
# facts count every node of the tree, wherever it stands, so they describe a
# term built in place of a formula too, which compiling refuses.

def free_variables(f: Formula) -> frozenset[str]:
    return f._free


def is_sentence(f: Formula) -> bool:
    return not f._free


def has_quantifier(f: Formula) -> bool:
    return f._quantified


def check_well_formed(f: Formula, sig: Signature) -> None:
    """Verify declared symbols and arities; raises at the first faulty use in preorder."""
    for kind, name, count in f._symbols:
        arity = sig.predicate_arity(name) if kind == "predicate" else sig.function_arity(name)
        if arity is None:
            raise UnknownSymbol(f"{kind} symbol {name!r} not declared")
        if arity != count:
            raise ArityMismatch(f"{kind} {name!r} expects {arity} arguments, got {count}")


# --- printing ------------------------------------------------------------------

def _rational_text(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def term_text(term: Term) -> str:
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Lit):
        return _rational_text(term.value)
    if isinstance(term, Apply):
        if not term.args:
            return term.func
        # a loop, not a comprehension or map (a frame or a C call more): one frame per level
        args = []
        for a in term.args:
            args.append(term_text(a))
        return f"{term.func}({', '.join(args)})"
    raise TypeError(f"not a term: {term!r}")


_PRECEDENCE = {Implies: 1, Or: 2, And: 3, Not: 4}


def _body_text(f: Formula, parent_prec: int) -> str:
    if isinstance(f, Atom):
        return f"{f.pred}({', '.join(term_text(a) for a in f.args)})"
    if isinstance(f, Eq):
        return f"{term_text(f.left)} = {term_text(f.right)}"
    if isinstance(f, Not):
        return f"not {_body_text(f.body, _PRECEDENCE[Not])}"
    if isinstance(f, (And, Or, Implies)):
        prec = _PRECEDENCE[type(f)]
        word = {And: "and", Or: "or", Implies: "->"}[type(f)]
        right_assoc = isinstance(f, Implies)
        left = _body_text(f.left, prec + (1 if right_assoc else 0))
        right = _body_text(f.right, prec + (0 if right_assoc else 1))
        text = f"{left} {word} {right}"
        if prec < parent_prec:
            return f"({text})"
        return text
    if isinstance(f, (Forall, Exists)):
        raise ValueError("quantifiers must be prenex; cannot print an inner quantifier")
    raise TypeError(f"not a formula: {f!r}")


def to_text(f: Formula) -> str:
    """Concrete syntax for a prenex formula; inverse of the parser."""
    prefix = []
    body = f
    while isinstance(body, (Forall, Exists)):
        word = "forall" if isinstance(body, Forall) else "exists"
        prefix.append(f"{word} {body.var}.")
        body = body.body
    text = _body_text(body, 0)
    return " ".join((*prefix, text)) if prefix else text
