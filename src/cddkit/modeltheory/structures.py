"""Finite relational structures and Tarski satisfaction.

A structure is a finite ordered domain of opaque tokens or exact
rationals, relation extensions as tuple sets, and total function
tables.  For numeric domains a function may instead carry a small
arithmetic expression evaluated exactly over rationals, which keeps
satisfaction decidable and reproducible.  Quantifiers enumerate the
domain exhaustively; empty domains are rejected for quantified
sentences rather than decided vacuously.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import deque
from fractions import Fraction
from operator import itemgetter, or_, sub
from types import MappingProxyType
from typing import Mapping, Sequence

from .._frozen import Frozen
from ..errors import (
    ArityMismatch,
    CapExceeded,
    CddError,
    DomainEmpty,
    EvaluationOverflow,
    FreeVariable,
    SchemaError,
    UnknownSymbol,
    json_array,
    json_object,
    read_json,
)
from .syntax import (
    BODY_DEPTH_LIMIT,
    And,
    Apply,
    Atom,
    DomainValue,
    Eq,
    Exists,
    Forall,
    Formula,
    Implies,
    Lit,
    Not,
    Or,
    Signature,
    Var,
    check_well_formed,
    coerce_value,
    free_variables,
    has_quantifier,
)

__all__ = [
    "BuiltinFunction",
    "RelationalStructure",
    "Interpretation",
    "Theory",
    "holds",
    "satisfies",
    "check_theory",
    "enumerate_models",
    "load_structure",
    "load_theory",
]

# the largest numerator or denominator a builtin function may compute
MAGNITUDE_BOUND = 10**100
ENUMERATION_DOMAIN_CAP = 4
ENUMERATION_COUNT_CAP = 2**20

_ARITH_OPS = ("+", "-", "*")


class BuiltinFunction(Frozen):
    """Exact rational arithmetic in a tiny prefix form.

    ``body`` is a parameter name, a rational, or a nested sequence
    ``[op, arg, ...]`` with op one of + - *, at most ``BODY_DEPTH_LIMIT``
    levels deep; every nested list is kept as a tuple, so the body
    cannot change and the function hashes.  Results exceeding
    ``MAGNITUDE_BOUND`` raise instead of silently growing.
    """

    __slots__ = ("params", "body")

    def __init__(self, params: tuple[str, ...], body: object):
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "body", _frozen_body(body))

    @property
    def arity(self) -> int:
        return len(self.params)

    def evaluate(self, args: Sequence[Fraction]) -> Fraction:
        env = dict(zip(self.params, args))
        return self._eval(self.body, env)

    def _eval(self, node, env) -> Fraction:
        if isinstance(node, str):
            if node in env:
                return env[node]
            value = coerce_value(node)
            if isinstance(value, str):
                raise SchemaError(f"unknown name {node!r} in arithmetic expression")
            return value
        if isinstance(node, (int, Fraction)):
            return Fraction(node)
        if isinstance(node, float):
            return Fraction(str(node))
        if isinstance(node, (list, tuple)) and node and node[0] in _ARITH_OPS:
            op = node[0]
            # map, not a comprehension (a frame of its own): one frame per level
            args = list(map(self._eval, node[1:], itertools.repeat(env)))
            if not args:
                raise SchemaError(f"operator {op!r} needs arguments")
            if op == "-" and len(args) == 1:
                result = -args[0]
            else:
                result = args[0]
                for a in args[1:]:
                    if op == "+":
                        result = result + a
                    elif op == "-":
                        result = result - a
                    else:
                        result = result * a
            if abs(result.numerator) > MAGNITUDE_BOUND or result.denominator > MAGNITUDE_BOUND:
                raise EvaluationOverflow(f"rational magnitude exceeds the bound {_power_text(MAGNITUDE_BOUND)}")
            return result
        raise SchemaError(f"malformed arithmetic expression {node!r}")


def _power_text(n: int) -> str:
    """``n`` as ``10^k`` when it is a power of ten, else in digits."""
    return f"10^{len(str(n)) - 1}" if str(n).rstrip("0") == "1" else str(n)


def _frozen_body(node, level=1):
    """An arithmetic expression with every list, at any depth, turned into a tuple.

    Each sequence and each leaf is a level, ``node`` being at ``level``.  A
    body more than ``BODY_DEPTH_LIMIT`` levels deep, or one that contains
    itself, is refused at its first node past the limit, one frame per level.
    """
    if level > BODY_DEPTH_LIMIT:
        raise SchemaError(f"function body more than {BODY_DEPTH_LIMIT} levels deep")
    if not isinstance(node, (list, tuple)):
        return node
    # map, not a comprehension (a frame of its own): one frame per level
    return tuple(map(_frozen_body, node, itertools.repeat(level + 1)))


def _first_repeat(values):
    """The first value that occurs a second time."""
    seen = set()
    return next(v for v in values if v in seen or seen.add(v))


class RelationalStructure(Frozen):
    """A finite domain with relation extensions and total functions, in read-only maps."""

    __slots__ = ("domain", "relations", "functions")

    # the default mappings are only read: each structure holds new dicts
    def __init__(
        self,
        domain: tuple[DomainValue, ...],
        relations: Mapping[str, frozenset] = {},
        functions: Mapping[str, object] = {},
    ):
        domain = tuple(map(coerce_value, domain))
        domain_set = set(domain)
        if len(domain_set) < len(domain):
            raise SchemaError(f"domain repeats the value {_first_repeat(domain)!r}")

        extensions = {}
        for name, tuples in relations.items():
            # checked in the caller's order, so an error names the first bad entry
            normalized = [tuple(map(coerce_value, t)) for t in tuples]
            arities = {len(t) for t in normalized}
            if len(arities) > 1:
                raise SchemaError(f"relation {name!r} mixes tuple lengths {sorted(arities)}")
            for t in normalized:
                if not t:
                    raise SchemaError(f"relation {name!r} contains an empty tuple")
                for v in t:
                    if v not in domain_set:
                        raise SchemaError(f"relation {name!r} tuple entry {v!r} outside the domain")
            extensions[name] = frozenset(normalized)

        tables = {}
        for name, fn in functions.items():
            if isinstance(fn, BuiltinFunction):
                if any(not isinstance(v, Fraction) for v in domain):
                    raise SchemaError(
                        f"builtin function {name!r} requires an all-rational domain"
                    )
                tables[name] = fn
                continue
            if not isinstance(fn, (dict, MappingProxyType)):
                raise SchemaError(f"function {name!r} must be a table or a builtin")
            table = {}
            for key, value in fn.items():
                table[tuple(map(coerce_value, key))] = coerce_value(value)
            if len(table) < len(fn):
                repeat = _first_repeat(tuple(map(coerce_value, key)) for key in fn)
                raise SchemaError(f"function {name!r} table repeats the arguments {repeat!r}")
            arities = {len(k) for k in table}
            if len(arities) > 1:
                raise SchemaError(f"function {name!r} mixes argument counts {sorted(arities)}")
            arity = arities.pop() if arities else 0
            expected = len(domain) ** arity
            if len(table) != expected:
                raise SchemaError(
                    f"function {name!r} table has {len(table)} entries, "
                    f"needs {expected} to be total"
                )
            for k, value in table.items():
                for v in k:
                    if v not in domain_set:
                        raise SchemaError(f"function {name!r} argument {v!r} outside the domain")
                if value not in domain_set:
                    raise SchemaError(f"function {name!r} value {value!r} outside the domain")
            tables[name] = MappingProxyType(table)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "relations", MappingProxyType(extensions))
        object.__setattr__(self, "functions", MappingProxyType(tables))

    # the maps are read-only views of dicts the structure owns; a view
    # neither hashes nor pickles, so both go through the items
    def _tables(self, plain):
        return {k: fn if isinstance(fn, BuiltinFunction) else plain(fn) for k, fn in self.functions.items()}

    def __hash__(self):
        tables = self._tables(lambda table: frozenset(table.items()))
        return hash((self.domain, frozenset(self.relations.items()), frozenset(tables.items())))

    def __reduce__(self):
        return RelationalStructure, (self.domain, dict(self.relations), self._tables(dict))

    def relation_arity(self, name: str) -> int | None:
        rel = self.relations.get(name)
        if rel is None:
            return None
        return len(next(iter(rel))) if rel else None

    def function_arity(self, name: str) -> int | None:
        fn = self.functions.get(name)
        if fn is None:
            return None
        if isinstance(fn, BuiltinFunction):
            return fn.arity
        # the constructor refuses an empty table: an arity-0 table needs 0**0 = 1 entry
        return len(next(iter(fn)))


class Interpretation(Frozen):
    """Read-only maps from signature symbols to a structure's relations and functions."""

    __slots__ = ("signature", "predicate_map", "function_map")

    def __init__(
        self, signature: Signature, predicate_map: Mapping[str, str], function_map: Mapping[str, str]
    ):
        for name, _ in signature.predicates:
            if name not in predicate_map:
                raise SchemaError(f"interpretation misses predicate symbol {name!r}")
        for name, _ in signature.functions:
            if name not in function_map:
                raise SchemaError(f"interpretation misses function symbol {name!r}")
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "predicate_map", MappingProxyType(dict(predicate_map)))
        object.__setattr__(self, "function_map", MappingProxyType(dict(function_map)))

    def __hash__(self):
        maps = (self.predicate_map, self.function_map)
        return hash((self.signature, *(frozenset(m.items()) for m in maps)))

    def __reduce__(self):
        return Interpretation, (self.signature, dict(self.predicate_map), dict(self.function_map))

    @classmethod
    def identity(cls, sig: Signature) -> "Interpretation":
        return cls(
            signature=sig,
            predicate_map={n: n for n, _ in sig.predicates},
            function_map={n: n for n, _ in sig.functions},
        )

    def check_against(self, struct: RelationalStructure) -> None:
        for name, arity in self.signature.predicates:
            target = self.predicate_map[name]
            if target not in struct.relations:
                raise UnknownSymbol(f"structure has no relation {target!r} for symbol {name!r}")
            _check_arity(struct, "predicate", target, name, arity)
        for name, arity in self.signature.functions:
            target = self.function_map[name]
            if target not in struct.functions:
                raise UnknownSymbol(f"structure has no function {target!r} for symbol {name!r}")
            _check_arity(struct, "function", target, name, arity)


def _check_arity(struct: RelationalStructure, kind: str, target: str, name: str, needed: int) -> None:
    """Refuse the structure's ``target`` for symbol ``name`` if its arity is known and not ``needed``."""
    if kind == "predicate":
        noun, actual = "relation", struct.relation_arity(target)
    else:
        noun, actual = "function", struct.function_arity(target)
    if actual is not None and actual != needed:
        raise ArityMismatch(f"{noun} {target!r} has arity {actual}, symbol {name!r} needs {needed}")


class Theory(Frozen):
    """A named, ordered list of sentences over one signature."""

    __slots__ = ("name", "signature", "sentences")

    def __init__(self, name: str, signature: Signature, sentences: tuple[Formula, ...]):
        sentences = tuple(sentences)
        for s in sentences:
            check_well_formed(s, signature)
            if free_variables(s):
                raise FreeVariable(f"theory {name!r} contains a non-sentence")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "sentences", sentences)


# --- evaluation -----------------------------------------------------------------
#
# A formula is compiled once into nested closures, one per node, whose
# truth values are sets of candidates: an int with bit c set when the
# formula holds on candidate c.  Every closure takes ``(rels, fns, env,
# care)``: the relation and function tables by structure name, the
# variable assignment, and the nonzero set of candidates that reach the
# node.  A formula returns the subset of ``care`` where it holds; a term
# returns ``{value: candidates}``, which partitions ``care``.  A relation
# table maps a tuple to the candidates that contain it (an absent tuple
# is in none), and a function table maps an argument tuple to ``{value:
# candidates}``.  ``and``, ``or`` and ``->`` pass their right side only
# the candidates that reach it, and quantifiers narrow the set as they
# go, so a node runs on a candidate exactly when a short-circuit walk of
# that candidate alone reaches it.  One structure is the one-candidate
# case: ``care`` is 1 and so is every table entry, and errors are raised
# where the walk raises them.  Symbols are looked up by name when their
# atom or term is reached, before its arguments.  Quantifiers bind their
# variable in ``env`` in place and put the outer value back afterwards.

_UNBOUND = object()


def _free_variable(names, env) -> FreeVariable:
    name = next(n for n in names if n not in env)
    return FreeVariable(f"no value for variable {name!r}")


def _compile_term(term, fmap):
    """A closure ``(rels, fns, env, care) -> {value: candidates}``."""
    if isinstance(term, Var):
        name = term.name

        def var(rels, fns, env, care):
            try:
                return {env[name]: care}
            except KeyError:
                raise FreeVariable(f"no value for variable {name!r}") from None

        return var
    if isinstance(term, Lit):
        value = term.value
        return lambda rels, fns, env, care: {value: care}
    if isinstance(term, Apply):
        target = fmap.get(term.func, term.func)
        # loops, not comprehensions (a frame each): compiling and evaluating
        # a term take one frame per level
        parts = []
        for t in term.args:
            parts.append(_compile_term(t, fmap))

        def apply(rels, fns, env, care):
            fn = fns.get(target)
            if fn is None:
                raise UnknownSymbol(f"structure has no function {target!r}")
            values = []
            for part in parts:
                values.append(part(rels, fns, env, care))
            out = {}
            for args, bits in _arg_tuples(values, care):
                if isinstance(fn, BuiltinFunction):
                    if any(not isinstance(a, Fraction) for a in args):
                        raise CddError(f"builtin function {target!r} applied to a non-numeric value")
                    value = fn.evaluate(args)
                    out[value] = out.get(value, 0) | bits
                    continue
                try:
                    values = fn[args]
                except KeyError:
                    raise CddError(f"function {target!r} undefined on {args!r}") from None
                for value, value_bits in values.items():
                    hit = bits & value_bits
                    if hit:
                        out[value] = out.get(value, 0) | hit
            return out

        return apply
    raise TypeError(f"not a term: {term!r}")


def _arg_tuples(values, care):
    """The argument tuples that occur, ``[(args, candidates)]``.

    ``values`` holds each argument's values, ``{value: candidates}``, every
    one evaluated on all of ``care``, left to right, before any tuple is
    formed.
    """
    out = [((), care)]
    for arg_values in values:
        out = [
            (args + (value,), hit)
            for args, bits in out
            for value, value_bits in arg_values.items()
            if (hit := bits & value_bits)
        ]
    return out


def _compile_formula(f, domain, pmap, fmap):
    """A closure ``(rels, fns, env, care) -> candidates``; quantifiers range over ``domain``."""
    if isinstance(f, Atom):
        target = pmap.get(f.pred, f.pred)
        if f.args and all(isinstance(t, Var) for t in f.args):
            names = tuple(t.name for t in f.args)
            get = itemgetter(*names)
            single = len(names) == 1

            def var_atom(rels, fns, env, care):
                rel = rels.get(target)
                if rel is None:
                    raise UnknownSymbol(f"structure has no relation {target!r}")
                try:
                    return rel.get((get(env),) if single else get(env), 0) & care
                except KeyError:
                    raise _free_variable(names, env) from None

            return var_atom
        parts = [_compile_term(t, fmap) for t in f.args]

        def atom(rels, fns, env, care):
            rel = rels.get(target)
            if rel is None:
                raise UnknownSymbol(f"structure has no relation {target!r}")
            out = 0
            for args, bits in _arg_tuples([part(rels, fns, env, care) for part in parts], care):
                out |= rel.get(args, 0) & bits
            return out

        return atom
    if isinstance(f, Eq):
        left = _compile_term(f.left, fmap)
        right = _compile_term(f.right, fmap)

        def eq(rels, fns, env, care):
            left_values = left(rels, fns, env, care)
            right_values = right(rels, fns, env, care)
            out = 0
            for value, bits in left_values.items():
                out |= bits & right_values.get(value, 0)
            return out

        return eq
    if isinstance(f, Not):
        body = _compile_formula(f.body, domain, pmap, fmap)
        return lambda rels, fns, env, care: care ^ body(rels, fns, env, care)
    if isinstance(f, (And, Or, Implies)):
        left = _compile_formula(f.left, domain, pmap, fmap)
        right = _compile_formula(f.right, domain, pmap, fmap)
        if isinstance(f, And):

            def conj(rels, fns, env, care):
                hit = left(rels, fns, env, care)
                return right(rels, fns, env, hit) if hit else 0

            return conj
        if isinstance(f, Or):

            def disj(rels, fns, env, care):
                hit = left(rels, fns, env, care)
                rest = care ^ hit
                return hit | right(rels, fns, env, rest) if rest else hit

            return disj

        def implies(rels, fns, env, care):
            hit = left(rels, fns, env, care)
            return (care ^ hit) | right(rels, fns, env, hit) if hit else care

        return implies
    if isinstance(f, (Forall, Exists)):
        var = f.var
        body = _compile_formula(f.body, domain, pmap, fmap)
        universal = isinstance(f, Forall)

        def quantifier(rels, fns, env, care):
            # rest, the undecided candidates: forall keeps those where the body held
            # on every element so far, exists those with no witness yet (∀ = ¬∃¬)
            outer = env.get(var, _UNBOUND)
            rest = care
            for e in domain:
                env[var] = e
                hit = body(rels, fns, env, rest)
                rest = hit if universal else rest ^ hit
                if not rest:
                    break
            if outer is _UNBOUND:
                del env[var]
            else:
                env[var] = outer
            return rest if universal else care ^ rest

        return quantifier
    raise TypeError(f"not a formula: {f!r}")


def _one_candidate(relations, functions):
    """The tables of one structure as the one-candidate case: every set is 1."""
    rels = {name: dict.fromkeys(tuples, 1) for name, tuples in relations.items()}
    fns = {
        name: fn if isinstance(fn, BuiltinFunction) else {args: {value: 1} for args, value in fn.items()}
        for name, fn in functions.items()
    }
    return rels, fns


def _truths(struct, formulas, interp, assignment) -> list[bool]:
    """The truth of each formula in turn, with the structure as one candidate; one interpretation check."""
    rels, fns = _one_candidate(struct.relations, struct.functions)
    pmap, fmap = {}, {}
    if interp is not None:
        interp.check_against(struct)
        pmap, fmap = interp.predicate_map, interp.function_map
    verdicts = []
    for formula in formulas:
        if has_quantifier(formula) and not struct.domain:
            raise DomainEmpty("quantified formula over an empty domain")
        # a symbol the structure lacks raises UnknownSymbol where it is reached
        for kind, name, count in formula._symbols:
            _check_arity(struct, kind, (pmap if kind == "predicate" else fmap).get(name, name), name, count)
        env = {k: coerce_value(v) for k, v in (assignment or {}).items()}
        evaluate = _compile_formula(formula, struct.domain, pmap, fmap)
        verdicts.append(bool(evaluate(rels, fns, env, 1)))
    return verdicts


def holds(
    struct: RelationalStructure,
    formula: Formula,
    interp: Interpretation | None = None,
    assignment: Mapping[str, DomainValue] | None = None,
) -> bool:
    """Truth of a possibly open formula under an explicit variable assignment."""
    return _truths(struct, [formula], interp, assignment)[0]


def satisfies(
    struct: RelationalStructure,
    sentence: Formula,
    interp: Interpretation | None = None,
) -> bool:
    """Tarski truth of a sentence in a structure under an interpretation.

    The sentence is compiled once and evaluated compositionally, with
    exhaustive quantification over the finite domain; deterministic by
    construction.
    """
    free = free_variables(sentence)
    if free:
        raise FreeVariable(f"not a sentence, free variables: {', '.join(sorted(free))}")
    return _truths(struct, [sentence], interp, None)[0]


def check_theory(
    theory: Theory,
    struct: RelationalStructure,
    interp: Interpretation | None = None,
) -> list[bool]:
    """Per-sentence truth values; the structure models the theory iff all hold."""
    if interp is None:
        interp = Interpretation.identity(theory.signature)
    # a Theory holds sentences only, so satisfies' free-variable check is decided
    return _truths(struct, theory.sentences, interp, None)


# --- exhaustive model enumeration ---------------------------------------------

def _digit_set(total: int, stride: int, radix: int, digit: int) -> int:
    """The candidates ``c < total`` with ``(c // stride) % radix == digit``.

    That is one run of ``stride`` bits in every period of ``stride *
    radix``; the period divides ``total``, and the copies are made by
    shift-or doubling.
    """
    period = stride * radix
    unit = ((1 << stride) - 1) << (digit * stride)
    out, filled, count = 0, 0, total // period
    while True:
        if count & 1:
            out |= unit << filled
            filled += period
        count >>= 1
        if not count:
            return out
        unit |= unit << period
        period *= 2


def enumerate_models(sig: Signature, sentence: Formula, domain_size: int) -> list[RelationalStructure]:
    """All structures over a canonical domain of the given size that satisfy the sentence.

    Enumeration order is deterministic: relation extensions run through
    ascending bitmask order per symbol (tuple index = bit index), with
    later symbols cycling fastest; function tables likewise.  One
    evaluation decides every candidate at once, and only the models are
    built, one field at a time across the whole list, from immutable
    pieces made once per call (none outlives it).  Models with equal
    relations, or equal functions, share one read-only view of them.
    """
    if domain_size < 1:
        raise SchemaError("domain size must be at least 1")
    if domain_size > ENUMERATION_DOMAIN_CAP:
        raise CapExceeded(f"domain size {domain_size} exceeds cap {ENUMERATION_DOMAIN_CAP}")
    for name, arity in sig.functions:
        if arity > 2:
            raise CapExceeded(f"function symbol {name!r} of arity {arity} > 2 not enumerable")
    check_well_formed(sentence, sig)
    if free_variables(sentence):
        raise FreeVariable("enumerate_models needs a sentence")

    # the count's base-2 exponent meets the cap first, so that a signature far
    # over it lists no tuple and builds no count thousands of digits long; an
    # exponent past the float range (arity 512 and up on 4 elements) is inf
    shape = [(2, domain_size**arity) for _, arity in sig.predicates]
    shape += [(domain_size, domain_size**arity) for _, arity in sig.functions]
    bits = sum(n * math.log2(radix) if n.bit_length() < 1000 else math.inf for radix, n in shape)
    total = math.prod(radix**n for radix, n in shape) if bits <= ENUMERATION_COUNT_CAP.bit_length() else None
    if total is None or total > ENUMERATION_COUNT_CAP:
        raise CapExceeded(f"2^{bits:.6g} candidate structures exceed cap {ENUMERATION_COUNT_CAP}")

    domain = tuple(f"e{i}" for i in range(domain_size))
    # (name, arity, radix, is a relation): a relation's inputs are its tuples, each
    # in or out; a function's are its argument tuples, each mapped to a domain value
    symbols = [(name, arity, 2, True) for name, arity in sig.predicates]
    symbols += [(name, arity, domain_size, False) for name, arity in sig.functions]

    # Candidate c is a mixed-radix number with one digit per input, read as
    # (c // weight) % radix, the later symbols cycling fastest.  Within a
    # relation, tuple i is bit i of its mask; within a function, the first
    # input is the most significant digit, as itertools.product orders the
    # output tuples.  A place is one function's table or one byte (eight tuples)
    # of a relation's mask: its digits make v = (c // stride) % size, which names
    # its piece, and the digit of an input of weight stride * w is v // w % radix.
    places = []  # (name, stride, size, radix, is a relation, [(input, w)], {v: piece})
    stride = total
    k, combos = 0, total  # the number of relation places, and F: the stride after them
    for name, arity, radix, is_relation in symbols:
        inputs = list(itertools.product(domain, repeat=arity))
        stride //= radix ** len(inputs)
        last = len(inputs) - 1
        digits = [(x, radix ** (i % 8 if is_relation else last - i)) for i, x in enumerate(inputs)]
        step = 8 if is_relation else len(digits)
        for i in range(0, len(digits), step):
            part = digits[i : i + step]
            places.append((name, stride * radix**i, radix ** len(part), radix, is_relation, part, {}))
        if is_relation:
            k, combos = len(places), stride

    # The relations and the functions of candidates cs as two lists of views.
    # The predicates are the high-order digits, so with F (combos) function-table
    # combinations c has the relations of candidate c - c % F and the functions
    # of candidate c % F.  Each side is decoded once per distinct part, one
    # place at a time, and every candidate with that part shares its view; when
    # one side has no symbol, the other's parts are the candidates themselves,
    # all distinct, and are not looked for.  A piece (a frozenset of tuples or
    # a read-only table) is made when a decode first meets its v and shared by
    # every part with that v; a relation of more than eight tuples is the union
    # of its bytes' pieces.  An empty side is one view.
    sides = (([name for name, _ in sig.predicates], places[:k]), ([name for name, _ in sig.functions], places[k:]))

    def views(names, side, reps):  # one view per candidate of reps
        if not names:
            return [MappingProxyType({})] * len(reps)
        fields = {}  # name -> [piece of each candidate]
        for name, stride, size, radix, is_relation, digits, memo in side:
            vs = [c // stride % size for c in reps]
            for v in set(vs).difference(memo):
                if is_relation:
                    memo[v] = frozenset(t for t, w in digits if v // w % 2)
                else:
                    memo[v] = MappingProxyType({args: domain[v // w % radix] for args, w in digits})
            pieces = list(map(memo.__getitem__, vs))
            fields[name] = list(map(or_, fields[name], pieces)) if name in fields else pieces
        dicts = [{names[0]: piece} for piece in fields[names[0]]]
        for name in names[1:]:
            deque(map(dict.__setitem__, dicts, itertools.repeat(name), fields[name]), 0)
        return list(map(MappingProxyType, dicts))

    def maps(cs):
        if not (sig.predicates and sig.functions):
            return [views(names, side, cs) for names, side in sides]
        low = [c % combos for c in cs]
        out = []
        for (names, side), parts in zip(sides, (list(map(sub, cs, low)), low)):
            reps = list(dict.fromkeys(parts))
            out.append(list(map(dict(zip(reps, views(names, side, reps))).__getitem__, parts)))
        return out

    # the tables of all candidates at once
    rels, fns = {}, {}
    for name, stride, _, radix, is_relation, digits, _ in places:
        if is_relation:
            rels.setdefault(name, {}).update((t, _digit_set(total, stride * w, 2, 1)) for t, w in digits)
        else:
            fns[name] = {
                args: {value: _digit_set(total, stride * w, radix, k) for k, value in enumerate(domain)}
                for args, w in digits
            }

    # What satisfies would check per candidate is decided by construction:
    # the sentence is closed and well formed (checked above), the domain is
    # nonempty, every symbol of the signature has a table under its own
    # name (so no symbol map is needed), and the tokens e0, e1, ... are
    # not rational text, so coercion leaves them as they are.
    evaluate = _compile_formula(sentence, domain, {}, {})
    try:
        hits = evaluate(rels, fns, {}, (1 << total) - 1)
    except CddError:
        # Only a table function applied to a value outside the domain, a
        # literal, fails here.  Replay the candidates in order, one at a
        # time, so that the first one that fails raises what it raises alone.
        for c in range(total):
            (relations,), (functions,) = maps([c])
            evaluate(*_one_candidate(relations, functions), {}, 1)
        raise

    # only a model becomes a RelationalStructure, in ascending candidate order
    # (character c of the reversed binary text is bit c)
    return _models(domain, *maps([m.start() for m in re.finditer("1", bin(hits)[:1:-1])]))


def _models(domain, relations, functions) -> list[RelationalStructure]:
    """Structures from fields that are canonical by construction, checked by nothing.

    ``relations`` and ``functions`` hold one read-only view per structure, of a
    frozenset of tuples and of a total read-only ``{args: value}`` table per
    name, over the distinct values of ``domain``: the fields the constructor
    would make, set one field at a time across the list by the slots' setters.
    """
    models = list(map(object.__new__, itertools.repeat(RelationalStructure, len(relations))))
    for set_field, values in zip(RelationalStructure._setters, (itertools.repeat(domain), relations, functions)):
        # the slot's own setter on every model; the deque keeps no result
        deque(map(set_field, models, values), 0)
    return models


# --- JSON loading ----------------------------------------------------------------

def _decode_function(name: str, doc) -> object:
    if isinstance(doc, dict) and "params" in doc:
        params = json_array(doc["params"], f"function {name!r} params")
        if not all(isinstance(p, str) for p in params):
            raise SchemaError(f"function {name!r} params must be names")
        if "body" not in doc:
            raise SchemaError(f"function {name!r} needs a 'body'")
        return BuiltinFunction(params=tuple(params), body=doc["body"])
    if isinstance(doc, dict) and "table" in doc:
        table = {}
        for entry in json_array(doc["table"], f"function {name!r} table"):
            if not isinstance(entry, list) or len(entry) != 2:
                raise SchemaError(f"function {name!r} table entries must be [args, value]")
            args, value = entry
            args = tuple(json_array(args, f"function {name!r} table arguments"))
            if any(isinstance(a, (list, dict)) for a in args):
                raise SchemaError(f"function {name!r} table arguments must be values, got {list(args)!r}")
            if args in table:
                raise SchemaError(f"function {name!r} table repeats the arguments {list(args)!r}")
            table[args] = value
        return table
    if isinstance(doc, (int, float, str)):
        # a bare value is a constant (nullary table)
        return {(): doc}
    raise SchemaError(f"cannot decode function {name!r}")


def load_structure(text_or_doc) -> tuple[Signature | None, RelationalStructure]:
    """Load ``{"signature"?, "domain", "relations"?, "functions"?}``."""
    doc = read_json(text_or_doc, "structure document")
    if not isinstance(doc, dict) or "domain" not in doc:
        raise SchemaError("structure document needs a 'domain' array")
    sig = Signature.from_json(doc["signature"]) if "signature" in doc else None
    relations = {}
    for name, tuples in json_object(doc.get("relations", {}), "structure 'relations'").items():
        relations[name] = [
            tuple(json_array(t, f"relation {name!r} tuple"))
            for t in json_array(tuples, f"relation {name!r}")
        ]
    functions = {
        name: _decode_function(name, fdoc)
        for name, fdoc in json_object(doc.get("functions", {}), "structure 'functions'").items()
    }
    struct = RelationalStructure(
        domain=tuple(json_array(doc["domain"], "structure 'domain'")),
        relations=relations,
        functions=functions,
    )
    if sig is not None:
        Interpretation.identity(sig).check_against(struct)
    return sig, struct


def load_theory(text_or_doc, signature: Signature | None = None) -> Theory:
    """Load ``{"name"?, "signature"?, "sentences": [...]}``; sentences are
    parsed against the document's signature or the one supplied."""
    from .parser import parse_sentence

    doc = read_json(text_or_doc, "theory document")
    if not isinstance(doc, dict) or "sentences" not in doc:
        raise SchemaError("theory document needs a 'sentences' array")
    texts = json_array(doc["sentences"], "theory 'sentences'")
    if not all(isinstance(text, str) for text in texts):
        raise SchemaError("theory 'sentences' must be strings")
    if "signature" in doc:
        signature = Signature.from_json(doc["signature"])
    if signature is None:
        raise SchemaError("theory document needs a signature")
    sentences = tuple(parse_sentence(text, signature) for text in texts)
    return Theory(
        name=str(doc.get("name", "theory")), signature=signature, sentences=sentences
    )
