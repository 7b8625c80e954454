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
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Mapping, Sequence, Union

from ..errors import (
    ArityMismatch,
    CapExceeded,
    CddError,
    DomainEmpty,
    EvaluationOverflow,
    FreeVariable,
    SchemaError,
    UnknownSymbol,
)
from .syntax import (
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
    Var,
    check_well_formed,
    free_variables,
    has_quantifier,
)

__all__ = [
    "DomainValue",
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

DomainValue = Union[Fraction, str]

DEFAULT_MAGNITUDE_BOUND = 10**100
ENUMERATION_DOMAIN_CAP = 4
ENUMERATION_COUNT_CAP = 2**20

_ARITH_OPS = ("+", "-", "*")


def coerce_value(v) -> DomainValue:
    """JSON value to a domain value: numbers and numeric strings become
    exact rationals, everything else stays an opaque token."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, bool):
        raise SchemaError("booleans are not domain values")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        if not math.isfinite(v):
            raise SchemaError(f"{v!r} is not a domain value: numbers must be finite")
        return Fraction(str(v))
    if isinstance(v, str):
        if RATIONAL_LITERAL.fullmatch(v):
            return Fraction(v)
        return v
    raise SchemaError(f"cannot use {v!r} as a domain value")


@dataclass(frozen=True)
class BuiltinFunction:
    """Exact rational arithmetic in a tiny prefix form.

    ``body`` is a parameter name, a rational, or a nested list
    ``[op, arg, ...]`` with op one of + - *.  Results exceeding the
    magnitude bound raise instead of silently growing.
    """

    params: tuple[str, ...]
    body: object

    @property
    def arity(self) -> int:
        return len(self.params)

    def evaluate(self, args: Sequence[Fraction], bound: int) -> Fraction:
        env = dict(zip(self.params, args))
        return self._eval(self.body, env, bound)

    def _eval(self, node, env, bound) -> Fraction:
        if isinstance(node, str):
            if node in env:
                return env[node]
            if RATIONAL_LITERAL.fullmatch(node):
                return Fraction(node)
            raise SchemaError(f"unknown name {node!r} in arithmetic expression")
        if isinstance(node, (int, Fraction)):
            return Fraction(node)
        if isinstance(node, float):
            return Fraction(str(node))
        if isinstance(node, (list, tuple)) and node and node[0] in _ARITH_OPS:
            op = node[0]
            args = [self._eval(a, env, bound) for a in node[1:]]
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
            if abs(result.numerator) > bound or result.denominator > bound:
                raise EvaluationOverflow(
                    f"rational magnitude exceeds the configured bound {bound}"
                )
            return result
        raise SchemaError(f"malformed arithmetic expression {node!r}")


@dataclass(frozen=True)
class RelationalStructure:
    """A finite domain with relation extensions and total functions."""

    domain: tuple[DomainValue, ...]
    relations: Mapping[str, frozenset] = field(default_factory=dict)
    functions: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        domain = tuple(coerce_value(v) for v in self.domain)
        object.__setattr__(self, "domain", domain)
        domain_set = set(domain)

        relations = {}
        for name, tuples in self.relations.items():
            normalized = frozenset(tuple(coerce_value(v) for v in t) for t in tuples)
            arities = {len(t) for t in normalized}
            if len(arities) > 1:
                raise SchemaError(f"relation {name!r} mixes tuple lengths {sorted(arities)}")
            for t in normalized:
                if not t:
                    raise SchemaError(f"relation {name!r} contains an empty tuple")
                for v in t:
                    if v not in domain_set:
                        raise SchemaError(f"relation {name!r} tuple entry {v!r} outside the domain")
            relations[name] = normalized
        object.__setattr__(self, "relations", relations)

        functions = {}
        for name, fn in self.functions.items():
            if isinstance(fn, BuiltinFunction):
                if any(not isinstance(v, Fraction) for v in domain):
                    raise SchemaError(
                        f"builtin function {name!r} requires an all-rational domain"
                    )
                functions[name] = fn
                continue
            if not isinstance(fn, dict):
                raise SchemaError(f"function {name!r} must be a table or a builtin")
            table = {}
            for key, value in fn.items():
                k = tuple(coerce_value(v) for v in key)
                table[k] = coerce_value(value)
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
            functions[name] = table
        object.__setattr__(self, "functions", functions)

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
        return len(next(iter(fn))) if fn else 0


@dataclass(frozen=True)
class Interpretation:
    """Assignment of signature symbols to a structure's relations and functions."""

    signature: Signature
    predicate_map: Mapping[str, str]
    function_map: Mapping[str, str]

    def __post_init__(self):
        for name, _ in self.signature.predicates:
            if name not in self.predicate_map:
                raise SchemaError(f"interpretation misses predicate symbol {name!r}")
        for name, _ in self.signature.functions:
            if name not in self.function_map:
                raise SchemaError(f"interpretation misses function symbol {name!r}")

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
            actual = struct.relation_arity(target)
            if actual is not None and actual != arity:
                raise ArityMismatch(
                    f"relation {target!r} has arity {actual}, symbol {name!r} needs {arity}"
                )
        for name, arity in self.signature.functions:
            target = self.function_map[name]
            if target not in struct.functions:
                raise UnknownSymbol(f"structure has no function {target!r} for symbol {name!r}")
            actual = struct.function_arity(target)
            if actual is not None and actual != arity:
                raise ArityMismatch(
                    f"function {target!r} has arity {actual}, symbol {name!r} needs {arity}"
                )


@dataclass(frozen=True)
class Theory:
    """A named, ordered list of sentences over one signature."""

    name: str
    signature: Signature
    sentences: tuple[Formula, ...]

    def __post_init__(self):
        object.__setattr__(self, "sentences", tuple(self.sentences))
        for s in self.sentences:
            check_well_formed(s, self.signature)
            if free_variables(s):
                raise FreeVariable(f"theory {self.name!r} contains a non-sentence")


# --- evaluation -----------------------------------------------------------------
#
# A formula is compiled once into nested closures, one per node.  Every
# closure takes ``(rels, fns, env)``: the relation extensions and the
# functions by structure name, and the variable assignment.  Symbols are
# looked up by name when their atom or term is evaluated, so a missing
# one raises only if the evaluation reaches it.  Quantifiers bind their
# variable in ``env`` in place and put the outer value back afterwards.

_UNBOUND = object()


def _free_variable(names, env) -> FreeVariable:
    name = next(n for n in names if n not in env)
    return FreeVariable(f"no value for variable {name!r}")


def _compile_term(term, fmap, bound):
    if isinstance(term, Var):
        name = term.name

        def var(rels, fns, env):
            try:
                return env[name]
            except KeyError:
                raise FreeVariable(f"no value for variable {name!r}") from None

        return var
    if isinstance(term, Lit):
        value = term.value
        return lambda rels, fns, env: value
    if isinstance(term, Apply):
        target = fmap.get(term.func, term.func)
        values = _compile_args(term.args, fmap, bound)

        def apply(rels, fns, env):
            fn = fns.get(target)
            if fn is None:
                raise UnknownSymbol(f"structure has no function {target!r}")
            args = values(rels, fns, env)
            if isinstance(fn, BuiltinFunction):
                if any(not isinstance(a, Fraction) for a in args):
                    raise CddError(f"builtin function {target!r} applied to a non-numeric value")
                return fn.evaluate(args, bound)
            try:
                return fn[args]
            except KeyError:
                raise CddError(f"function {target!r} undefined on {args!r}") from None

        return apply
    raise TypeError(f"not a term: {term!r}")


def _compile_args(terms, fmap, bound):
    """One closure for the tuple of argument values, left to right."""
    parts = [_compile_term(t, fmap, bound) for t in terms]
    if len(parts) == 1:
        (only,) = parts
        return lambda rels, fns, env: (only(rels, fns, env),)
    return lambda rels, fns, env: tuple([part(rels, fns, env) for part in parts])


def _compile_formula(f, domain, pmap, fmap, bound):
    """A closure ``(rels, fns, env) -> bool``; quantifiers range over ``domain``."""
    if isinstance(f, Atom):
        target = pmap.get(f.pred, f.pred)
        if f.args and all(isinstance(t, Var) for t in f.args):
            names = tuple(t.name for t in f.args)
            get = itemgetter(*names)
            single = len(names) == 1

            def var_atom(rels, fns, env):
                rel = rels.get(target)
                if rel is None:
                    raise UnknownSymbol(f"structure has no relation {target!r}")
                try:
                    return ((get(env),) if single else get(env)) in rel
                except KeyError:
                    raise _free_variable(names, env) from None

            return var_atom
        values = _compile_args(f.args, fmap, bound)

        def atom(rels, fns, env):
            rel = rels.get(target)
            if rel is None:
                raise UnknownSymbol(f"structure has no relation {target!r}")
            return values(rels, fns, env) in rel

        return atom
    if isinstance(f, Eq):
        left = _compile_term(f.left, fmap, bound)
        right = _compile_term(f.right, fmap, bound)
        return lambda rels, fns, env: left(rels, fns, env) == right(rels, fns, env)
    if isinstance(f, Not):
        body = _compile_formula(f.body, domain, pmap, fmap, bound)
        return lambda rels, fns, env: not body(rels, fns, env)
    if isinstance(f, (And, Or, Implies)):
        left = _compile_formula(f.left, domain, pmap, fmap, bound)
        right = _compile_formula(f.right, domain, pmap, fmap, bound)
        if isinstance(f, And):
            return lambda rels, fns, env: left(rels, fns, env) and right(rels, fns, env)
        if isinstance(f, Or):
            return lambda rels, fns, env: left(rels, fns, env) or right(rels, fns, env)
        return lambda rels, fns, env: (not left(rels, fns, env)) or right(rels, fns, env)
    if isinstance(f, Forall):
        var = f.var
        body = _compile_formula(f.body, domain, pmap, fmap, bound)

        def forall(rels, fns, env):
            outer = env.get(var, _UNBOUND)
            result = True
            for e in domain:
                env[var] = e
                if not body(rels, fns, env):
                    result = False
                    break
            if outer is _UNBOUND:
                del env[var]
            else:
                env[var] = outer
            return result

        return forall
    if isinstance(f, Exists):
        var = f.var
        body = _compile_formula(f.body, domain, pmap, fmap, bound)

        def exists(rels, fns, env):
            outer = env.get(var, _UNBOUND)
            result = False
            for e in domain:
                env[var] = e
                if body(rels, fns, env):
                    result = True
                    break
            if outer is _UNBOUND:
                del env[var]
            else:
                env[var] = outer
            return result

        return exists
    raise TypeError(f"not a formula: {f!r}")


def _truth(struct, formula, interp, assignment, bound) -> bool:
    if has_quantifier(formula) and not struct.domain:
        raise DomainEmpty("quantified formula over an empty domain")
    pmap, fmap = {}, {}
    if interp is not None:
        interp.check_against(struct)
        pmap, fmap = interp.predicate_map, interp.function_map
    env = {k: coerce_value(v) for k, v in (assignment or {}).items()}
    evaluate = _compile_formula(formula, struct.domain, pmap, fmap, bound)
    return evaluate(struct.relations, struct.functions, env)


def holds(
    struct: RelationalStructure,
    formula: Formula,
    interp: Interpretation | None = None,
    assignment: Mapping[str, DomainValue] | None = None,
    max_magnitude: int = DEFAULT_MAGNITUDE_BOUND,
) -> bool:
    """Truth of a possibly open formula under an explicit variable assignment."""
    return _truth(struct, formula, interp, assignment, max_magnitude)


def satisfies(
    struct: RelationalStructure,
    sentence: Formula,
    interp: Interpretation | None = None,
    max_magnitude: int = DEFAULT_MAGNITUDE_BOUND,
) -> bool:
    """Tarski truth of a sentence in a structure under an interpretation.

    The sentence is compiled once and evaluated compositionally, with
    exhaustive quantification over the finite domain; deterministic by
    construction.
    """
    free = free_variables(sentence)
    if free:
        raise FreeVariable(f"not a sentence, free variables: {', '.join(sorted(free))}")
    return _truth(struct, sentence, interp, None, max_magnitude)


def check_theory(
    theory: Theory,
    struct: RelationalStructure,
    interp: Interpretation | None = None,
    max_magnitude: int = DEFAULT_MAGNITUDE_BOUND,
) -> list[bool]:
    """Per-sentence truth values; the structure models the theory iff all hold."""
    if interp is None:
        interp = Interpretation.identity(theory.signature)
    # a Theory holds sentences only, so satisfies' free-variable check is decided
    return [_truth(struct, s, interp, None, max_magnitude) for s in theory.sentences]


# --- exhaustive model enumeration ---------------------------------------------

def enumerate_models(
    sig: Signature,
    sentence: Formula,
    domain_size: int,
    domain_cap: int = ENUMERATION_DOMAIN_CAP,
    count_cap: int = ENUMERATION_COUNT_CAP,
) -> list[RelationalStructure]:
    """All structures over a canonical domain of the given size that
    satisfy the sentence.

    Enumeration order is deterministic: relation extensions run through
    ascending bitmask order per symbol (tuple index = bit index), with
    later symbols cycling fastest; function tables likewise.
    """
    if domain_size < 1:
        raise SchemaError("domain size must be at least 1")
    if domain_size > domain_cap:
        raise CapExceeded(f"domain size {domain_size} exceeds cap {domain_cap}")
    for name, arity in sig.functions:
        if arity > 2:
            raise CapExceeded(f"function symbol {name!r} of arity {arity} > 2 not enumerable")
    check_well_formed(sentence, sig)
    if free_variables(sentence):
        raise FreeVariable("enumerate_models needs a sentence")

    domain = tuple(f"e{i}" for i in range(domain_size))

    total = 1
    rel_tuples = {}
    for name, arity in sig.predicates:
        tuples = list(itertools.product(domain, repeat=arity))
        rel_tuples[name] = tuples
        total *= 2 ** len(tuples)
    fn_inputs = {}
    for name, arity in sig.functions:
        inputs = list(itertools.product(domain, repeat=arity))
        fn_inputs[name] = inputs
        total *= domain_size ** len(inputs)
    if total > count_cap:
        raise CapExceeded(f"{total} candidate structures exceed cap {count_cap}")

    pred_names = [n for n, _ in sig.predicates]
    fn_names = [n for n, _ in sig.functions]
    # Each candidate is checked on its bare relation sets and function
    # tables; only a model becomes a RelationalStructure, through the
    # validating constructor.  What satisfies would check per candidate is
    # decided by construction: the sentence is closed and well formed
    # (checked above), the domain is nonempty, every symbol of the
    # signature gets a relation or a table under its own name (the
    # identity interpretation), every tuple has its symbol's arity, every
    # table is total over the domain, and the tokens e0, e1, ... are not
    # rational text, so coercion leaves them as they are.
    identity = Interpretation.identity(sig)
    evaluate = _compile_formula(
        sentence, domain, identity.predicate_map, identity.function_map, DEFAULT_MAGNITUDE_BOUND
    )
    env: dict = {}

    models = []
    rel_choices = [range(2 ** len(rel_tuples[n])) for n in pred_names]
    fn_choices = [
        itertools.product(domain, repeat=len(fn_inputs[n])) for n in fn_names
    ]
    for combo in itertools.product(*rel_choices, *[list(c) for c in fn_choices]):
        masks = combo[: len(pred_names)]
        outputs = combo[len(pred_names):]
        relations = {}
        for name, mask in zip(pred_names, masks):
            tuples = rel_tuples[name]
            relations[name] = frozenset(t for i, t in enumerate(tuples) if mask >> i & 1)
        functions = {}
        for name, out in zip(fn_names, outputs):
            functions[name] = dict(zip(fn_inputs[name], out))
        if evaluate(relations, functions, env):
            models.append(
                RelationalStructure(domain=domain, relations=relations, functions=functions)
            )
    return models


# --- JSON loading ----------------------------------------------------------------

def _json_array(value, what: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{what} must be a JSON array, got {value!r}")
    return value


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{what} must be a JSON object, got {value!r}")
    return value


def _decode_function(name: str, doc) -> object:
    if isinstance(doc, dict) and "params" in doc:
        params = _json_array(doc["params"], f"function {name!r} params")
        if not all(isinstance(p, str) for p in params):
            raise SchemaError(f"function {name!r} params must be names")
        if "body" not in doc:
            raise SchemaError(f"function {name!r} needs a 'body'")
        return BuiltinFunction(params=tuple(params), body=doc["body"])
    if isinstance(doc, dict) and "table" in doc:
        table = {}
        for entry in _json_array(doc["table"], f"function {name!r} table"):
            if not isinstance(entry, list) or len(entry) != 2:
                raise SchemaError(f"function {name!r} table entries must be [args, value]")
            args, value = entry
            table[tuple(_json_array(args, f"function {name!r} table arguments"))] = value
        return table
    if isinstance(doc, (int, float, str)):
        # a bare value is a constant (nullary table)
        return {(): doc}
    raise SchemaError(f"cannot decode function {name!r}")


def load_structure(text_or_doc) -> tuple[Signature | None, RelationalStructure]:
    """Load ``{"signature"?, "domain", "relations"?, "functions"?}``."""
    doc = json.loads(text_or_doc) if isinstance(text_or_doc, (str, bytes)) else text_or_doc
    if not isinstance(doc, dict) or "domain" not in doc:
        raise SchemaError("structure document needs a 'domain' array")
    sig = Signature.from_json(doc["signature"]) if "signature" in doc else None
    relations = {}
    for name, tuples in _json_object(doc.get("relations", {}), "structure 'relations'").items():
        relations[name] = [
            tuple(_json_array(t, f"relation {name!r} tuple"))
            for t in _json_array(tuples, f"relation {name!r}")
        ]
    functions = {
        name: _decode_function(name, fdoc)
        for name, fdoc in _json_object(doc.get("functions", {}), "structure 'functions'").items()
    }
    struct = RelationalStructure(
        domain=tuple(_json_array(doc["domain"], "structure 'domain'")),
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

    doc = json.loads(text_or_doc) if isinstance(text_or_doc, (str, bytes)) else text_or_doc
    if not isinstance(doc, dict) or "sentences" not in doc:
        raise SchemaError("theory document needs a 'sentences' array")
    texts = _json_array(doc["sentences"], "theory 'sentences'")
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
