import copy
import itertools
import os
import pickle
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType

import pytest

import cddkit
from cddkit import data_path
from cddkit.errors import (
    ArityMismatch,
    CapExceeded,
    DomainEmpty,
    EvaluationOverflow,
    FreeVariable,
    SchemaError,
    UnknownSymbol,
)
from cddkit.modeltheory import (
    And,
    Apply,
    Atom,
    BuiltinFunction,
    Eq,
    Exists,
    Forall,
    Interpretation,
    Lit,
    Not,
    Or,
    RelationalStructure,
    Signature,
    Var,
    check_theory,
    enumerate_models,
    holds,
    load_structure,
    load_theory,
    parse_sentence,
    satisfies,
)
from cddkit.modeltheory import structures
from cddkit.modeltheory.structures import coerce_value
from cddkit.modeltheory.syntax import BODY_DEPTH_LIMIT

from conftest import MALFORMED_JSON
from test_evaluator import MIXED_SIGNATURES, _candidates


@pytest.fixture(scope="module")
def orthogonality():
    sig, s345 = load_structure(data_path("logic/triangle_345.json").read_text())
    theory = load_theory(data_path("logic/orthogonality_theory.json").read_text(), signature=sig)
    _, s234 = load_structure(data_path("logic/triangle_234.json").read_text())
    return theory, s345, s234


def test_right_triangle_is_a_model(orthogonality):
    theory, s345, _ = orthogonality
    verdicts = check_theory(theory, s345)
    assert verdicts == [True, True]


def test_scalene_triangle_is_not_a_model(orthogonality):
    # 2**2 + 3**2 = 13, but 4**2 = 16
    theory, _, s234 = orthogonality
    verdicts = check_theory(theory, s234)
    assert verdicts == [False, False]


def test_check_theory_checks_the_interpretation_once(orthogonality, monkeypatch):
    theory, s345, _ = orthogonality
    calls = []
    check = Interpretation.check_against
    monkeypatch.setattr(Interpretation, "check_against", lambda self, struct: calls.append(1) or check(self, struct))
    assert check_theory(theory, s345) == [True, True]
    assert len(theory.sentences) == 2 and len(calls) == 1


def test_single_tautology_theory():
    from cddkit.modeltheory import Theory

    sig = Signature(predicates=(("P", 1),))
    theory = Theory(
        name="taut",
        signature=sig,
        sentences=(parse_sentence("forall v. P(v) or not P(v)", sig),),
    )
    struct = RelationalStructure(domain=("a", "b"), relations={"P": [("a",)]})
    assert check_theory(theory, struct) == [True]


def test_equality_reflexivity_on_any_structure():
    sig = Signature()
    sentence = parse_sentence("forall v. v = v", sig)
    for domain in (["a"], ["a", "b", "c"], [1, 2, 3, 4]):
        struct = RelationalStructure(domain=tuple(domain))
        assert satisfies(struct, sentence)


def test_satisfies_requires_a_sentence():
    struct = RelationalStructure(domain=("a",), relations={"P": [("a",)]})
    with pytest.raises(FreeVariable):
        satisfies(struct, Atom("P", (Var("v"),)))


def test_empty_domain_rejected_for_quantified_sentences():
    struct = RelationalStructure(domain=())
    sentence = Forall("v", Eq(Var("v"), Var("v")))
    with pytest.raises(DomainEmpty):
        satisfies(struct, sentence)
    # the interpretation is checked first, before any formula
    sig = Signature(predicates=(("Red", 1),))
    interp = Interpretation(signature=sig, predicate_map={"Red": "painted"}, function_map={})
    with pytest.raises(UnknownSymbol, match="^structure has no relation 'painted' for symbol 'Red'$"):
        satisfies(struct, parse_sentence("forall v. Red(v)", sig), interp)


def test_ground_sentence_over_empty_domain_is_decided():
    struct = RelationalStructure(domain=())
    sig = Signature()
    assert satisfies(struct, parse_sentence("3 = 3", sig))
    assert not satisfies(struct, parse_sentence("3 = 4", sig))


def _nested_body(levels):
    """x + 1 + 1 ... as a body ``levels`` deep: its lists, then the leaves."""
    body = "x"
    for _ in range(levels - 1):
        body = ["+", body, "1"]
    return body


def test_builtin_body_at_the_nesting_limit_evaluates():
    sq = BuiltinFunction(params=("x",), body=_nested_body(BODY_DEPTH_LIMIT))
    assert sq.evaluate((Fraction(2),)) == 2 + BODY_DEPTH_LIMIT - 1
    struct = RelationalStructure(domain=(0, 1), functions={"sq": sq})
    sig = Signature(functions=(("sq", 1),))
    assert satisfies(struct, parse_sentence("forall x. sq(x) = sq(x)", sig))


@pytest.mark.parametrize("levels", [BODY_DEPTH_LIMIT + 1, 600])
def test_builtin_body_past_the_nesting_limit_is_refused(levels):
    message = f"function body more than {BODY_DEPTH_LIMIT} levels deep"
    with pytest.raises(SchemaError, match=message):
        BuiltinFunction(params=("x",), body=_nested_body(levels))
    doc = {"domain": [0, 1], "functions": {"sq": {"params": ["x"], "body": _nested_body(levels)}}}
    with pytest.raises(SchemaError, match=message):
        load_structure(doc)


@pytest.mark.parametrize("copies", [1, 2])
def test_builtin_body_that_contains_itself_is_refused(copies):
    # with two copies the levels of a breadth-first walk double, so only a walk
    # that stops at the limit, one frame per level, finishes
    body = ["+"]
    body += [body] * copies
    start = time.perf_counter()
    with pytest.raises(SchemaError, match=f"^function body more than {BODY_DEPTH_LIMIT} levels deep$"):
        BuiltinFunction(params=("x",), body=body)
    assert time.perf_counter() - start < 0.5


def test_arithmetic_magnitude_bound(monkeypatch):
    struct = RelationalStructure(
        domain=(99,),
        functions={"sq": BuiltinFunction(params=("x",), body=["*", "x", "x"])},
    )
    sentence = Forall("v", Eq(Var("v"), Var("v")))
    ok_sentence = parse_sentence(
        "forall v. sq(v) = 9801", Signature(functions=(("sq", 1),))
    )
    assert satisfies(struct, ok_sentence)
    # the bound is stated as a power of ten, not in its 101 digits
    sq7 = "sq(" * 7 + "10" + ")" * 7
    with pytest.raises(EvaluationOverflow, match=r"^rational magnitude exceeds the bound 10\^100$"):
        holds(struct, parse_sentence(f"{sq7} = 0", Signature(functions=(("sq", 1),))))
    monkeypatch.setattr(structures, "MAGNITUDE_BOUND", 100)
    with pytest.raises(EvaluationOverflow, match=r"^rational magnitude exceeds the bound 10\^2$"):
        satisfies(struct, ok_sentence)
    assert satisfies(struct, sentence)
    monkeypatch.setattr(structures, "MAGNITUDE_BOUND", 9000)
    with pytest.raises(EvaluationOverflow, match="^rational magnitude exceeds the bound 9000$"):
        satisfies(struct, ok_sentence)


def test_builtin_body_is_frozen():
    doc = {"domain": [0, 1, 2], "functions": {"k": {"params": ["x", "y"], "body": ["-", "x", ["*", 2, "y"]]}}}
    _, struct = load_structure(doc)
    k = struct.functions["k"]
    # every nested list is kept as a tuple, so the structure hashes and the body cannot change
    assert k.body == ("-", "x", ("*", 2, "y"))
    assert hash(struct) == hash(load_structure(doc)[1])
    with pytest.raises(AttributeError):
        k.body.append("x")
    with pytest.raises(TypeError):
        k.body[2][1] = 3
    # the loader's document is left as it was, and changing it afterwards does not reach the function
    doc["functions"]["k"]["body"][2][1] = 3
    assert k.body == ("-", "x", ("*", 2, "y"))
    assert k == BuiltinFunction(params=("x", "y"), body=["-", "x", ["*", 2, "y"]])
    # evaluation, and a pickle or deep-copy round trip, are unchanged
    assert k.evaluate((Fraction(5), Fraction(1))) == 3
    sig = Signature(predicates=(), functions=(("k", 2),))
    sentence = parse_sentence("forall v. k(v, 0) = v", sig)
    for copied in (pickle.loads(pickle.dumps(struct)), copy.deepcopy(struct)):
        assert copied == struct and hash(copied) == hash(struct)
        assert copied.functions["k"].body == k.body
        assert satisfies(copied, sentence) and satisfies(struct, sentence)


def test_a_symbol_used_with_another_arity_than_the_structure_gives_is_refused():
    # without the check, zip dropped sq's extra argument and R(x) matched no pair
    binary = RelationalStructure(domain=("a", "b"), relations={"R": [("a", "b")]})
    with pytest.raises(ArityMismatch) as info:
        satisfies(binary, Forall("x", Not(Atom("R", (Var("x"),)))))
    assert str(info.value) == "relation 'R' has arity 2, symbol 'R' needs 1"
    squares = RelationalStructure(domain=(0, 1), functions={"sq": BuiltinFunction(("x",), ["*", "x", "x"])})
    with pytest.raises(ArityMismatch) as info:
        holds(squares, Eq(Apply("sq", (Lit(Fraction(2)), Lit(Fraction(3)))), Lit(Fraction(4))))
    assert str(info.value) == "function 'sq' has arity 1, symbol 'sq' needs 2"
    # through an interpretation the message names the structure's symbol, as check_against does
    sig = Signature(predicates=(("Red", 1),))
    interp = Interpretation(signature=sig, predicate_map={"Red": "painted"}, function_map={})
    painted = RelationalStructure(domain=("a",), relations={"painted": [("a",)]})
    with pytest.raises(ArityMismatch, match="^relation 'painted' has arity 1, symbol 'Red' needs 2$"):
        holds(painted, Atom("Red", (Var("x"), Var("x"))), interp, {"x": "a"})
    # a symbol the structure lacks is still refused only where it is reached
    assert satisfies(binary, Or(Exists("x", Atom("R", (Var("x"), Var("x")))), Forall("x", Eq(Var("x"), Var("x")))))
    assert satisfies(binary, Or(Forall("x", Eq(Var("x"), Var("x"))), Atom("Q", (Apply("c"),))))
    with pytest.raises(UnknownSymbol):
        satisfies(binary, Exists("x", Atom("Q", (Var("x"),))))


def test_interpretation_maps_symbols_to_structure_names():
    sig = Signature(predicates=(("Red", 1),))
    struct = RelationalStructure(domain=("a", "b"), relations={"painted": [("a",)]})
    interp = Interpretation(
        signature=sig, predicate_map={"Red": "painted"}, function_map={}
    )
    sentence = parse_sentence("exists v. Red(v)", sig)
    assert satisfies(struct, sentence, interp)
    assert not satisfies(struct, parse_sentence("forall v. Red(v)", sig), interp)


def test_table_functions_must_be_total_and_closed():
    with pytest.raises(Exception):
        RelationalStructure(domain=(0, 1), functions={"f": {(0,): 1}})
    with pytest.raises(Exception):
        RelationalStructure(domain=(0, 1), functions={"f": {(0,): 5, (1,): 0}})
    # an empty table is an arity-0 table without its one entry
    with pytest.raises(SchemaError, match="^function 'c' table has 0 entries, needs 1 to be total$"):
        RelationalStructure(domain=(0, 1), functions={"c": {}})
    assert RelationalStructure(domain=(0, 1), functions={"c": {(): 1}}).function_arity("c") == 0
    struct = RelationalStructure(domain=(0, 1), functions={"f": {(0,): 1, (1,): 0}})
    assert struct.function_arity("f") == 1
    sig = Signature(functions=(("f", 1),))
    assert satisfies(struct, parse_sentence("forall v. not f(v) = v", sig))


def test_a_relation_names_its_first_entry_outside_the_domain_whatever_the_hash_seed():
    # two entries outside the domain, of which a check in set order would name either by the hash seed
    code = """if True:
        from cddkit.modeltheory import RelationalStructure
        try:
            RelationalStructure(domain=(3, 4, 5), relations={"Legs": [(3, 4), ("Hyp", 4), (3, "Legs")]})
        except Exception as exc:
            print(f"{type(exc).__name__}: {exc}")
    """
    src = str(Path(cddkit.__file__).resolve().parent.parent)
    messages = {
        subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
        ).stdout
        for seed in ("0", "1")
    }
    assert messages == {"SchemaError: relation 'Legs' tuple entry 'Hyp' outside the domain\n"}


# --- compositional semantics --------------------------------------------------

def _random_structure(rng, sig, size):
    domain = tuple(f"e{i}" for i in range(size))
    relations = {}
    for name, arity in sig.predicates:
        tuples = list(itertools.product(domain, repeat=arity))
        relations[name] = frozenset(t for t in tuples if rng.random() < 0.5)
    return RelationalStructure(domain=domain, relations=relations)


def _random_open_formula(rng, sig, variables, depth):
    if depth == 0 or rng.random() < 0.35:
        if rng.random() < 0.7:
            name, arity = rng.choice(sig.predicates)
            return Atom(name, tuple(Var(rng.choice(variables)) for _ in range(arity)))
        return Eq(Var(rng.choice(variables)), Var(rng.choice(variables)))
    kind = rng.choice(["not", "and", "or", "forall", "exists"])
    if kind == "not":
        return Not(_random_open_formula(rng, sig, variables, depth - 1))
    if kind in ("forall", "exists"):
        var = rng.choice(variables)
        body = _random_open_formula(rng, sig, variables, depth - 1)
        return Forall(var, body) if kind == "forall" else Exists(var, body)
    left = _random_open_formula(rng, sig, variables, depth - 1)
    right = _random_open_formula(rng, sig, variables, depth - 1)
    return And(left, right) if kind == "and" else Or(left, right)


def test_compositional_semantics_randomized():
    rng = random.Random(99)
    sig = Signature(predicates=(("P", 1), ("R", 2)))
    variables = ["v1", "v2"]
    for _ in range(400):
        size = rng.randint(1, 4)
        struct = _random_structure(rng, sig, size)
        f = _random_open_formula(rng, sig, variables, rng.randint(0, 3))
        env = {v: rng.choice(struct.domain) for v in variables}

        assert holds(struct, Not(f), assignment=env) == (not holds(struct, f, assignment=env))

        g = _random_open_formula(rng, sig, variables, 2)
        assert holds(struct, And(f, g), assignment=env) == (
            holds(struct, f, assignment=env) and holds(struct, g, assignment=env)
        )
        assert holds(struct, Or(f, g), assignment=env) == (
            holds(struct, f, assignment=env) or holds(struct, g, assignment=env)
        )

        # quantifiers expand over the whole domain
        var = rng.choice(variables)
        expanded_all = all(
            holds(struct, f, assignment={**env, var: e}) for e in struct.domain
        )
        expanded_any = any(
            holds(struct, f, assignment={**env, var: e}) for e in struct.domain
        )
        assert holds(struct, Forall(var, f), assignment=env) == expanded_all
        assert holds(struct, Exists(var, f), assignment=env) == expanded_any


# --- enumeration -----------------------------------------------------------------

def test_enumeration_counts_unary():
    sig = Signature(predicates=(("P", 1),))
    assert len(enumerate_models(sig, parse_sentence("exists v. P(v)", sig), 1)) == 1
    assert len(enumerate_models(sig, parse_sentence("forall v. P(v) or not P(v)", sig), 2)) == 4


def test_enumeration_counts_reflexive_binary():
    sig = Signature(predicates=(("R", 2),))
    sentence = parse_sentence("forall v. R(v,v)", sig)
    # both diagonal bits are forced; the two off-diagonal bits are free
    assert len(enumerate_models(sig, sentence, 2)) == 4


def test_enumeration_agrees_with_satisfies_exhaustively():
    cases = [
        (Signature(predicates=(("P", 1),)), ["exists v. P(v)", "forall v. P(v)"]),
        (
            Signature(predicates=(("R", 2),)),
            ["forall v. R(v,v)", "exists v. forall w. R(v,w)"],
        ),
    ]
    for sig, sentences in cases:
        name = sig.predicates[0][0]
        arity = sig.predicates[0][1]
        tautology = parse_sentence(
            f"forall v. {name}({', '.join(['v'] * arity)}) or not {name}({', '.join(['v'] * arity)})",
            sig,
        )
        for size in (1, 2, 3):
            universe = enumerate_models(sig, tautology, size)
            assert len(universe) == 2 ** (size**arity)
            for text in sentences:
                sentence = parse_sentence(text, sig)
                models = enumerate_models(sig, sentence, size)
                expected = [s for s in universe if satisfies(s, sentence)]
                assert models == expected


def test_enumeration_caps():
    sig = Signature(predicates=(("P", 1),))
    sentence = parse_sentence("exists v. P(v)", sig)
    with pytest.raises(Exception):
        enumerate_models(sig, sentence, 5)
    big = Signature(predicates=(("R", 2), ("S", 2), ("T", 2)))
    with pytest.raises(Exception):
        enumerate_models(big, parse_sentence("forall v. R(v,v)", big), 4)


def test_enumeration_cap_is_decided_before_the_count_is_built(monkeypatch):
    # 2^16384 candidates: a count with 4,933 digits, which Python refuses to format
    sig = Signature(predicates=(("R", 7),))
    sentence = parse_sentence("forall x. R(x, x, x, x, x, x, x)", sig)
    with pytest.raises(CapExceeded, match=r"^2\^16384 candidate structures exceed cap"):
        enumerate_models(sig, sentence, 4)
    # 2^(2^1200): an exponent past the float range
    sig = Signature(predicates=(("R", 600),))
    with pytest.raises(CapExceeded, match=r"^2\^inf candidate structures exceed cap"):
        enumerate_models(sig, parse_sentence("exists x. x = x", sig), 4)
    # the cap is exact: 2^16 candidates pass a cap of 2^16 and exceed one of 2^16 - 1
    sig = Signature(predicates=(("R", 2),))
    sentence = parse_sentence("forall x. R(x, x)", sig)
    monkeypatch.setattr(structures, "ENUMERATION_COUNT_CAP", 2**16)
    assert len(enumerate_models(sig, sentence, 4)) == 2**12
    monkeypatch.setattr(structures, "ENUMERATION_COUNT_CAP", 2**16 - 1)
    with pytest.raises(CapExceeded, match=r"^2\^16 candidate structures exceed cap 65535$"):
        enumerate_models(sig, sentence, 4)
    # 3^3 function tables: 27 candidates
    sig = Signature(functions=(("f", 1),))
    sentence = parse_sentence("forall x. f(x) = x", sig)
    monkeypatch.setattr(structures, "ENUMERATION_COUNT_CAP", 27)
    assert len(enumerate_models(sig, sentence, 3)) == 1
    monkeypatch.setattr(structures, "ENUMERATION_COUNT_CAP", 26)
    with pytest.raises(CapExceeded, match=r"^2\^4\.75489 candidate structures exceed cap 26$"):
        enumerate_models(sig, sentence, 3)


def test_enumeration_with_function_symbols():
    sig = Signature(predicates=(("P", 1),), functions=(("f", 1),))
    sentence = parse_sentence("forall v. P(f(v))", sig)
    models = enumerate_models(sig, sentence, 2)
    for struct in models:
        assert satisfies(struct, sentence)
    # P has 4 extensions, f has 4 tables; count models directly
    brute = 0
    for struct in enumerate_models(
        sig, parse_sentence("forall v. P(v) or not P(v)", sig), 2
    ):
        if satisfies(struct, sentence):
            brute += 1
    assert len(models) == brute


# the logic-enumerate cases of perfbench/logic.py, with their domain sizes
_BENCHMARK_CASES = [
    ((("R", 2),), (), "forall x. forall y. R(x, y) -> R(y, x)", (2, 3, 4)),
    ((("R", 2),), (), "forall x. forall y. forall z. R(x, y) and R(y, z) -> R(x, z)", (2, 3)),
    ((("R", 2),), (), "forall x. R(x, x)", (2, 3)),
    ((("P", 1),), (("f", 1),), "forall x. P(x) -> P(f(x))", (2, 3, 4)),
]
_CANONICAL_CASES = [
    (Signature(predicates=preds, functions=fns), text, size)
    for preds, fns, text, sizes in _BENCHMARK_CASES
    for size in sizes
] + [
    # every candidate is a model
    (sig, "forall x. x = x", size)
    for sig in MIXED_SIGNATURES
    for size in (1, 2, 3)
    if _candidates(sig, size) <= 15_000
]


@pytest.mark.parametrize("sig, text, size", _CANONICAL_CASES, ids=str)
def test_enumerated_models_are_canonical(sig, text, size):
    """Each model is built without the constructor's checks, so it must be
    what the constructor makes of its own fields, as read-only as that."""
    models = enumerate_models(sig, parse_sentence(text, sig), size)
    assert models
    domain = tuple(f"e{i}" for i in range(size))
    predicates, functions = dict(sig.predicates), dict(sig.functions)
    for m in models:
        rebuilt = RelationalStructure(domain=m.domain, relations=m.relations, functions=m.functions)
        assert m == rebuilt and hash(m) == hash(rebuilt)
        assert type(m.domain) is tuple and m.domain == domain
        assert type(m.relations) is MappingProxyType and m.relations.keys() == predicates.keys()
        for name, tuples in m.relations.items():
            assert type(tuples) is frozenset
            assert all(type(t) is tuple and len(t) == predicates[name] for t in tuples)
        assert type(m.functions) is MappingProxyType and m.functions.keys() == functions.keys()
        for name, table in m.functions.items():
            assert type(table) is MappingProxyType and len(table) == size ** functions[name]
            assert all(type(args) is tuple and len(args) == functions[name] for args in table)
            assert all(type(v) is str for v in table.values())
        for view in (m.relations, m.functions, *m.functions.values()):
            with pytest.raises(TypeError):
                view["new"] = None
    # the models of one call share one outer view per distinct part on each
    # side: as many views as parts, and models with equal parts hold the same
    # object; a side with no symbol is one empty view for all of them
    for views, symbols in (
        ([m.relations for m in models], sig.predicates),
        ([m.functions for m in models], sig.functions),
    ):
        by_part = {}
        for view in views:
            # a relation's piece is a frozenset, a table's a read-only dict
            part = frozenset(
                (name, frozenset(piece.items()) if type(piece) is MappingProxyType else piece)
                for name, piece in view.items()
            )
            assert by_part.setdefault(part, view) is view
        assert len(set(map(id, views))) == len(by_part)
        if not symbols:
            assert list(by_part) == [frozenset()]


def test_enumerations_share_no_piece_across_calls():
    """Pieces are memoised for one call only: a second call on the same
    signature builds its own frozensets and tables, which are as read-only."""
    sig = MIXED_SIGNATURES[1]  # R/2 and P/1 beside f/1 and the constant c
    sentence = parse_sentence("forall x. x = x", sig)  # every candidate is a model
    first, second = enumerate_models(sig, sentence, 2), enumerate_models(sig, sentence, 2)
    assert first == second and len(first) == 2**4 * 2**2 * 2**2 * 2

    def pieces(models):
        return [piece for m in models for piece in (*m.relations.values(), *m.functions.values())]

    # within a call the pieces are shared: R has 16 extensions, P 4, f 4 tables and c 2
    assert len(set(map(id, pieces(first)))) == 16 + 4 + 4 + 2
    assert not set(map(id, pieces(first))) & set(map(id, pieces(second)))
    for m in first + second:
        for view in (m.relations, m.functions, *m.functions.values()):
            with pytest.raises(TypeError):
                view["new"] = None


def test_enumerated_models_copy_and_pickle_through_the_constructor():
    sig = MIXED_SIGNATURES[1]
    models = enumerate_models(sig, parse_sentence("forall x. R(x, f(x)) -> P(c)", sig), 2)
    assert len(models) > 100
    for m in models[::7]:
        for clone in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert type(clone) is RelationalStructure and clone == m and hash(clone) == hash(m)
            assert type(clone.functions["f"]) is MappingProxyType


def test_fraction_domains_from_json():
    _, struct = load_structure(
        '{"domain": [1, "1/2", 0.25], "relations": {}, "functions": {}}'
    )
    assert struct.domain == (Fraction(1), Fraction(1, 2), Fraction(1, 4))


@pytest.mark.parametrize("text", MALFORMED_JSON.values(), ids=MALFORMED_JSON)
def test_load_structure_refuses_malformed_text(text):
    with pytest.raises(SchemaError, match="^structure document: "):
        load_structure(text)


@pytest.mark.parametrize("text", MALFORMED_JSON.values(), ids=MALFORMED_JSON)
def test_load_theory_refuses_malformed_text(text):
    with pytest.raises(SchemaError, match="^theory document: "):
        load_theory(text, signature=Signature(predicates=(("P", 1),)))


@pytest.mark.parametrize(
    "value, expected",
    [
        (Fraction(-3, 4), Fraction(-3, 4)),
        (7, Fraction(7)),
        (-2, Fraction(-2)),
        (True, SchemaError),
        (False, SchemaError),
        (0.25, Fraction(1, 4)),
        (0.1, Fraction(1, 10)),  # through its shortest repr, not its binary value
        (float("nan"), SchemaError),
        (float("inf"), SchemaError),
        (float("-inf"), SchemaError),
        ("5", Fraction(5)),
        ("-3/4", Fraction(-3, 4)),
        ("0/1", Fraction(0)),
        ("1/10", Fraction(1, 10)),
        ("1/0", SchemaError),  # a zero denominator
        ("-3/00", SchemaError),
        ("2.50", Fraction(5, 2)),
        ("5\n", "5\n"),  # not rational text: an opaque token
        (" 5", " 5"),
        ("e0", "e0"),
        ("t1", "t1"),
        ("", ""),
        (None, SchemaError),
        ([1], SchemaError),
        ((1,), SchemaError),
        (b"5", SchemaError),
    ],
    ids=repr,
)
def test_coerce_value_maps_each_kind_of_input(value, expected):
    if expected is SchemaError:
        with pytest.raises(SchemaError):
            coerce_value(value)
        return
    result = coerce_value(value)
    assert type(result) is type(expected) and result == expected
