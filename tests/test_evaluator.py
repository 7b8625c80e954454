"""The compiled evaluator and the recorded static facts against the tree walkers they replaced.

``_eval_term``, ``_eval_formula``, ``reference_holds``,
``reference_satisfies`` and the body of ``reference_enumerate_models``
are the previous evaluator, and ``reference_free_variables``,
``reference_has_quantifier`` and ``reference_check_well_formed`` the
previous static queries, each copied verbatim (only the names of the
entry points changed).  The tests compare the current ``holds``,
``satisfies``, ``check_theory`` and ``enumerate_models`` with them on
seeded random formulas and structures: the same truth value, or an
exception of the same type; and ``free_variables``, ``is_sentence``,
``has_quantifier`` and ``check_well_formed``, which read what a node
recorded when it was built, on random formulas and signatures.
"""

import itertools
import random
from fractions import Fraction
from typing import Mapping

import pytest

from cddkit.errors import (
    ArityMismatch,
    CapExceeded,
    CddError,
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
    Formula,
    Implies,
    Interpretation,
    Lit,
    Not,
    Or,
    RelationalStructure,
    Signature,
    Theory,
    Var,
    check_theory,
    check_well_formed,
    enumerate_models,
    free_variables,
    has_quantifier,
    holds,
    is_sentence,
    parse_sentence,
    satisfies,
)
from cddkit.modeltheory import structures
from cddkit.modeltheory.structures import (
    ENUMERATION_COUNT_CAP,
    ENUMERATION_DOMAIN_CAP,
    MAGNITUDE_BOUND,
    DomainValue,
    coerce_value,
)


# --- reference: the previous static queries --------------------------------------

def _term_free(term, bound, acc):
    if isinstance(term, Var):
        if term.name not in bound:
            acc.add(term.name)
    elif isinstance(term, Apply):
        for a in term.args:
            _term_free(a, bound, acc)


def _formula_free(f, bound, acc):
    if isinstance(f, Atom):
        for t in f.args:
            _term_free(t, bound, acc)
    elif isinstance(f, Eq):
        _term_free(f.left, bound, acc)
        _term_free(f.right, bound, acc)
    elif isinstance(f, Not):
        _formula_free(f.body, bound, acc)
    elif isinstance(f, (And, Or, Implies)):
        _formula_free(f.left, bound, acc)
        _formula_free(f.right, bound, acc)
    elif isinstance(f, (Forall, Exists)):
        _formula_free(f.body, bound | {f.var}, acc)
    else:
        raise TypeError(f"not a formula: {f!r}")


def reference_free_variables(f):
    acc = set()
    _formula_free(f, frozenset(), acc)
    return frozenset(acc)


def reference_has_quantifier(f):
    if isinstance(f, (Forall, Exists)):
        return True
    if isinstance(f, Not):
        return reference_has_quantifier(f.body)
    if isinstance(f, (And, Or, Implies)):
        return reference_has_quantifier(f.left) or reference_has_quantifier(f.right)
    return False


def _check_term(term, sig):
    if isinstance(term, Apply):
        arity = sig.function_arity(term.func)
        if arity is None:
            raise UnknownSymbol(f"function symbol {term.func!r} not declared")
        if arity != len(term.args):
            raise ArityMismatch(f"function {term.func!r} expects {arity} arguments, got {len(term.args)}")
        for a in term.args:
            _check_term(a, sig)


def reference_check_well_formed(f, sig):
    """Verify declared symbols and arities; raises on violation."""
    if isinstance(f, Atom):
        arity = sig.predicate_arity(f.pred)
        if arity is None:
            raise UnknownSymbol(f"predicate symbol {f.pred!r} not declared")
        if arity != len(f.args):
            raise ArityMismatch(f"predicate {f.pred!r} expects {arity} arguments, got {len(f.args)}")
        for t in f.args:
            _check_term(t, sig)
    elif isinstance(f, Eq):
        _check_term(f.left, sig)
        _check_term(f.right, sig)
    elif isinstance(f, Not):
        reference_check_well_formed(f.body, sig)
    elif isinstance(f, (And, Or, Implies)):
        reference_check_well_formed(f.left, sig)
        reference_check_well_formed(f.right, sig)
    elif isinstance(f, (Forall, Exists)):
        reference_check_well_formed(f.body, sig)
    else:
        raise TypeError(f"not a formula: {f!r}")


# --- reference: the previous tree walker ---------------------------------------

def _eval_term(term, struct, fmap, env):
    if isinstance(term, Var):
        try:
            return env[term.name]
        except KeyError:
            raise FreeVariable(f"no value for variable {term.name!r}") from None
    if isinstance(term, Lit):
        return term.value
    if isinstance(term, Apply):
        target = fmap.get(term.func, term.func)
        fn = struct.functions.get(target)
        if fn is None:
            raise UnknownSymbol(f"structure has no function {target!r}")
        args = tuple(_eval_term(a, struct, fmap, env) for a in term.args)
        if isinstance(fn, BuiltinFunction):
            if any(not isinstance(a, Fraction) for a in args):
                raise CddError(f"builtin function {target!r} applied to a non-numeric value")
            return fn.evaluate(args)
        try:
            return fn[args]
        except KeyError:
            raise CddError(f"function {target!r} undefined on {args!r}") from None
    raise TypeError(f"not a term: {term!r}")


def _eval_formula(f, struct, pmap, fmap, env):
    if isinstance(f, Atom):
        target = pmap.get(f.pred, f.pred)
        rel = struct.relations.get(target)
        if rel is None:
            raise UnknownSymbol(f"structure has no relation {target!r}")
        args = tuple(_eval_term(a, struct, fmap, env) for a in f.args)
        return args in rel
    if isinstance(f, Eq):
        return _eval_term(f.left, struct, fmap, env) == _eval_term(
            f.right, struct, fmap, env
        )
    if isinstance(f, Not):
        return not _eval_formula(f.body, struct, pmap, fmap, env)
    if isinstance(f, And):
        return _eval_formula(f.left, struct, pmap, fmap, env) and _eval_formula(
            f.right, struct, pmap, fmap, env
        )
    if isinstance(f, Or):
        return _eval_formula(f.left, struct, pmap, fmap, env) or _eval_formula(
            f.right, struct, pmap, fmap, env
        )
    if isinstance(f, Implies):
        return (not _eval_formula(f.left, struct, pmap, fmap, env)) or _eval_formula(
            f.right, struct, pmap, fmap, env
        )
    if isinstance(f, Forall):
        for e in struct.domain:
            env2 = dict(env)
            env2[f.var] = e
            if not _eval_formula(f.body, struct, pmap, fmap, env2):
                return False
        return True
    if isinstance(f, Exists):
        for e in struct.domain:
            env2 = dict(env)
            env2[f.var] = e
            if _eval_formula(f.body, struct, pmap, fmap, env2):
                return True
        return False
    raise TypeError(f"not a formula: {f!r}")


def reference_holds(
    struct: RelationalStructure,
    formula: Formula,
    interp: Interpretation | None = None,
    assignment: Mapping[str, DomainValue] | None = None,
) -> bool:
    """Truth of a possibly open formula under an explicit variable assignment."""
    if reference_has_quantifier(formula) and not struct.domain:
        raise DomainEmpty("quantified formula over an empty domain")
    pmap, fmap = {}, {}
    if interp is not None:
        interp.check_against(struct)
        pmap = dict(interp.predicate_map)
        fmap = dict(interp.function_map)
    env = {k: coerce_value(v) for k, v in (assignment or {}).items()}
    return _eval_formula(formula, struct, pmap, fmap, env)


def reference_satisfies(
    struct: RelationalStructure,
    sentence: Formula,
    interp: Interpretation | None = None,
) -> bool:
    """Tarski truth of a sentence in a structure under an interpretation.

    Compositional recursion with exhaustive quantification over the
    finite domain; deterministic by construction.
    """
    free = reference_free_variables(sentence)
    if free:
        raise FreeVariable(f"not a sentence, free variables: {', '.join(sorted(free))}")
    return reference_holds(struct, sentence, interp, None)


def reference_enumerate_models(
    sig: Signature,
    sentence: Formula,
    domain_size: int,
) -> list[RelationalStructure]:
    """All structures over a canonical domain of the given size that
    satisfy the sentence.

    Enumeration order is deterministic: relation extensions run through
    ascending bitmask order per symbol (tuple index = bit index), with
    later symbols cycling fastest; function tables likewise.
    """
    if domain_size < 1:
        raise SchemaError("domain size must be at least 1")
    if domain_size > ENUMERATION_DOMAIN_CAP:
        raise CapExceeded(f"domain size {domain_size} exceeds cap {ENUMERATION_DOMAIN_CAP}")
    for name, arity in sig.functions:
        if arity > 2:
            raise CapExceeded(f"function symbol {name!r} of arity {arity} > 2 not enumerable")
    reference_check_well_formed(sentence, sig)
    if reference_free_variables(sentence):
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
    if total > ENUMERATION_COUNT_CAP:
        raise CapExceeded(f"{total} candidate structures exceed cap {ENUMERATION_COUNT_CAP}")

    interp = Interpretation.identity(sig)
    pred_names = [n for n, _ in sig.predicates]
    fn_names = [n for n, _ in sig.functions]

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
        struct = RelationalStructure(domain=domain, relations=relations, functions=functions)
        if reference_satisfies(struct, sentence, interp):
            models.append(struct)
    return models


# --- random formulas and structures --------------------------------------------

PREDICATES = (("P", 1), ("R", 2))
TABLES = (("c", 0), ("f", 1), ("g", 2))
# cube overflows a small magnitude bound; both need an all-rational domain
BUILTINS = {
    "h": BuiltinFunction(params=("x",), body=["*", "x", "x", "x"]),
    "k": BuiltinFunction(params=("x", "y"), body=["-", "x", ["*", 2, "y"]]),
}
FUNCTIONS = TABLES + (("h", 1), ("k", 2))
VARIABLES = ("x", "y", "z")


def _random_term(rng, depth):
    if depth == 0 or rng.random() < 0.5:
        if rng.random() < 0.85:
            return Var(rng.choice(VARIABLES))
        return Lit(Fraction(rng.choice((-1, 0, 1, 2, 5))))
    name, arity = rng.choice(FUNCTIONS)
    return Apply(name, tuple(_random_term(rng, depth - 1) for _ in range(arity)))


def _random_formula(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.65:
            name, arity = rng.choice(PREDICATES)
            return Atom(name, tuple(_random_term(rng, 2) for _ in range(arity)))
        return Eq(_random_term(rng, 2), _random_term(rng, 2))
    kind = rng.choice((Not, And, Or, Implies, Forall, Exists, Forall, Exists))
    if kind is Not:
        return Not(_random_formula(rng, depth - 1))
    if kind in (Forall, Exists):
        # the same few names throughout, so inner quantifiers often shadow outer ones
        return kind(rng.choice(VARIABLES), _random_formula(rng, depth - 1))
    return kind(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))


def _random_structure(rng):
    size = rng.randint(1, 3)
    rational = rng.random() < 0.5
    if rational:
        domain = tuple(rng.sample([Fraction(v) for v in (-1, 0, 1, 2, 3)], size))
    else:
        domain = tuple(f"t{i}" for i in range(size))
    relations = {}
    for name, arity in PREDICATES:
        if rng.random() < 0.9:  # sometimes absent: only an evaluated atom may raise
            tuples = itertools.product(domain, repeat=arity)
            relations[name] = frozenset(t for t in tuples if rng.random() < 0.5)
    functions = {}
    for name, arity in TABLES:
        if rng.random() < 0.9:
            inputs = itertools.product(domain, repeat=arity)
            functions[name] = {args: rng.choice(domain) for args in inputs}
    if rational:
        functions.update({n: fn for n, fn in BUILTINS.items() if rng.random() < 0.9})
    return RelationalStructure(domain=domain, relations=relations, functions=functions)


def _random_assignment(rng, struct):
    # open: some variables unbound, some bound outside the domain
    outside = (Fraction(7), "stranger")
    return {
        v: rng.choice(struct.domain + outside if rng.random() < 0.2 else struct.domain)
        for v in VARIABLES
        if rng.random() < 0.7
    }


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except CddError as exc:
        return type(exc)


def test_holds_matches_reference_on_random_formulas(monkeypatch):
    rng = random.Random(20240717)
    seen = set()
    for _ in range(3000):
        struct = _random_structure(rng)
        formula = _random_formula(rng, rng.randint(0, 4))
        assignment = _random_assignment(rng, struct)
        before = dict(assignment)
        monkeypatch.setattr(structures, "MAGNITUDE_BOUND", rng.choice((20, MAGNITUDE_BOUND)))
        expected = _outcome(reference_holds, struct, formula, None, assignment)
        assert _outcome(holds, struct, formula, None, assignment) == expected, formula
        assert assignment == before
        seen.add(expected)
    # every verdict and every evaluation error occurred
    assert seen == {True, False, FreeVariable, UnknownSymbol, CddError, EvaluationOverflow}


def test_satisfies_and_check_theory_match_reference_under_an_interpretation():
    rng = random.Random(515)
    sig = Signature(predicates=PREDICATES, functions=TABLES)
    renamed = {name: f"{name}_ext" for name, _ in PREDICATES + TABLES}
    interp = Interpretation(
        signature=sig,
        predicate_map={n: renamed[n] for n, _ in PREDICATES},
        function_map={n: renamed[n] for n, _ in TABLES},
    )
    for _ in range(300):
        struct = _random_structure(rng)
        struct = RelationalStructure(
            domain=struct.domain,
            relations={renamed[n]: r for n, r in struct.relations.items()},
            functions={renamed.get(n, n): fn for n, fn in struct.functions.items()},
        )
        sentences = []
        while len(sentences) < 3:
            formula = _random_formula(rng, rng.randint(1, 4))
            if "h" in repr(formula) or "k" in repr(formula):
                continue
            for var in sorted(free_variables(formula)):
                formula = Forall(var, formula)
            sentences.append(formula)
        for sentence in sentences:
            expected = _outcome(reference_satisfies, struct, sentence, interp)
            assert _outcome(satisfies, struct, sentence, interp) == expected
        theory = Theory(name="random", signature=sig, sentences=tuple(sentences))
        expected = _outcome(lambda: [reference_satisfies(struct, s, interp) for s in sentences])
        assert _outcome(check_theory, theory, struct, interp) == expected


def test_shadowed_quantifier_restores_the_outer_binding():
    struct = RelationalStructure(domain=("a", "b"), relations={"P": [("a",)]})
    # inside the exists x is each element in turn; after it, x is "a" again
    formula = And(Exists("x", Not(Atom("P", (Var("x"),)))), Atom("P", (Var("x"),)))
    assignment = {"x": "a"}
    assert holds(struct, formula, assignment=assignment) is True
    assert reference_holds(struct, formula, assignment=assignment) is True
    assert assignment == {"x": "a"}
    # an unbound variable is unbound again once its quantifier is done
    formula = Or(Forall("y", Atom("P", (Var("y"),))), Atom("P", (Var("y"),)))
    with pytest.raises(FreeVariable):
        holds(struct, formula)
    # exists x. (forall x. P(x) or Q) and P(x): the inner x runs over the domain,
    # then the outer x is the witness again
    tautology = Or(Atom("P", (Var("x"),)), Not(Atom("P", (Var("x"),))))
    nested = Exists("x", And(Forall("x", tautology), Atom("P", (Var("x"),))))
    assert satisfies(struct, nested) is True
    assert satisfies(struct, Exists("x", And(Forall("x", tautology), Not(Atom("P", (Var("x"),)))))) is True
    assert satisfies(struct, Forall("x", And(Exists("x", Atom("P", (Var("x"),))), Atom("P", (Var("x"),))))) is False


def test_missing_relation_raises_only_when_its_atom_is_evaluated():
    sig = Signature(predicates=(("P", 1), ("Q", 1)))
    sentence = parse_sentence("exists x. P(x) or Q(x)", sig)
    struct = RelationalStructure(domain=("a", "b"), relations={"P": [("a",)]})
    assert satisfies(struct, sentence) is True
    assert reference_satisfies(struct, sentence) is True
    unlucky = RelationalStructure(domain=("a", "b"), relations={"P": [("b",)]})
    with pytest.raises(UnknownSymbol):
        satisfies(unlucky, sentence)


# --- static facts ----------------------------------------------------------------

def _random_signature(rng):
    """Each symbol of the random formulas declared with its arity, left out, or declared with another."""
    declared = {"predicates": [], "functions": []}
    for side, symbols, least in (("predicates", PREDICATES, 1), ("functions", FUNCTIONS, 0)):
        for name, arity in symbols:
            roll = rng.random()
            if roll < 0.3:
                declared[side].append((name, arity))
            elif roll < 0.5:
                declared[side].append((name, rng.choice([a for a in range(least, 4) if a != arity])))
    return Signature(**declared)


def _uses(node):
    """(kind, name, argument count) of each atom and application, in preorder."""
    if isinstance(node, Atom):
        yield "predicate", node.pred, len(node.args)
    elif isinstance(node, Apply):
        yield "function", node.func, len(node.args)
    for value in node._values(node):
        for child in value if isinstance(value, tuple) else (value,):
            if isinstance(child, (Var, Lit, Apply, Atom, Eq, Not, And, Or, Implies, Forall, Exists)):
                yield from _uses(child)


def test_static_facts_match_the_reference_walkers_on_random_formulas():
    rng = random.Random(24707)
    errors, several = set(), 0
    for _ in range(3000):
        formula = _random_formula(rng, rng.randint(0, 5))
        sig = _random_signature(rng)
        free = reference_free_variables(formula)
        assert free_variables(formula) == free and is_sentence(formula) is not bool(free), formula
        assert has_quantifier(formula) is reference_has_quantifier(formula), formula
        # the recorded uses: each distinct one once, where it first occurs in preorder
        assert list(formula._symbols) == list(dict.fromkeys(_uses(formula))), formula
        expected = _result(reference_check_well_formed, formula, sig)
        assert _result(check_well_formed, formula, sig) == expected, formula
        if expected is not None:
            errors.add((expected[0], expected[1].split()[0]))
        arities = {"predicate": sig.predicate_arity, "function": sig.function_arity}
        several += len({use for use in _uses(formula) if arities[use[0]](use[1]) != use[2]}) > 1
    # every kind of fault came first, and about half the trees had more than one faulty symbol
    assert errors == {(e, kind) for e in (UnknownSymbol, ArityMismatch) for kind in ("predicate", "function")}
    assert several > 1200


# --- enumeration ---------------------------------------------------------------------

def _random_sentence(rng, sig, literals=0.0):
    """A closed formula over the signature's symbols and the variables x, y.

    With ``literals`` > 0, each term is that likely to be a rational
    literal, which is never in an enumeration domain.
    """

    def term(depth):
        if literals and rng.random() < literals:
            return Lit(Fraction(rng.choice((0, 1, 5))))
        if depth == 0 or not sig.functions or rng.random() < 0.5:
            return Var(rng.choice("xy"))
        name, arity = rng.choice(sig.functions)
        return Apply(name, tuple(term(depth - 1) for _ in range(arity)))

    def formula(depth):
        if depth == 0 or rng.random() < 0.3:
            if sig.predicates and rng.random() < 0.7:
                name, arity = rng.choice(sig.predicates)
                return Atom(name, tuple(term(1) for _ in range(arity)))
            return Eq(term(1), term(1))
        kind = rng.choice((Not, And, Or, Implies, Forall, Exists))
        if kind is Not:
            return Not(formula(depth - 1))
        if kind in (Forall, Exists):
            return kind(rng.choice("xy"), formula(depth - 1))
        return kind(formula(depth - 1), formula(depth - 1))

    sentence = formula(3)
    for var in sorted(free_variables(sentence)):
        sentence = rng.choice((Forall, Exists))(var, sentence)
    return sentence


def _candidates(sig, size):
    total = 1
    for _, arity in sig.predicates:
        total *= 2 ** (size**arity)
    for _, arity in sig.functions:
        total *= size ** (size**arity)
    return total


ENUMERATION_SIGNATURES = [
    Signature(predicates=((p, pa),), functions=((f, fa),))
    for p, pa in PREDICATES
    for f, fa in TABLES
]

MIXED_SIGNATURES = [
    # two predicates and two functions: four digits with different radices
    Signature(predicates=(("P", 1), ("Q", 1)), functions=(("c", 0), ("f", 1))),
    Signature(predicates=(("R", 2), ("P", 1)), functions=(("f", 1), ("c", 0))),
    # constants beside a predicate, and functions alone
    Signature(predicates=(("P", 1),), functions=(("c", 0), ("d", 0))),
    Signature(functions=(("c", 0), ("d", 0), ("f", 1))),
]


@pytest.mark.parametrize("sig", ENUMERATION_SIGNATURES + MIXED_SIGNATURES, ids=repr)
def test_enumerate_models_matches_reference(sig):
    rng = random.Random(repr(sig))
    for size in (1, 2, 3):
        candidates = _candidates(sig, size)
        if candidates > 15_000:
            continue
        for _ in range(1 if candidates > 2_000 else 3):
            sentence = _random_sentence(rng, sig)
            models = enumerate_models(sig, sentence, size)
            assert models == reference_enumerate_models(sig, sentence, size)


def test_enumerate_binary_function_tables_of_size_3_match_reference():
    sig = Signature(functions=(("g", 2),))
    sentence = parse_sentence("forall x. forall y. g(x, y) = g(y, x)", sig)
    models = enumerate_models(sig, sentence, 3)
    assert len(models) == 3**6
    assert models == reference_enumerate_models(sig, sentence, 3)


# A relation's pieces are the bytes of its mask: 8 tuples make one byte, 9 a
# full byte and a one-tuple byte, and 16 two full bytes.  (full sentence,
# selective sentences) per arity
BYTE_SENTENCES = {
    2: ("forall x. x = x", (
        "forall x. forall y. R(x, y) -> R(y, x)",
        "exists x. forall y. R(x, x) and (R(x, y) -> R(y, y))",
    )),
    3: ("forall x. x = x", (
        "forall x. forall y. R(x, y, y) -> R(y, x, x)",
        "exists x. forall y. R(x, y, x) or not R(y, y, x)",
    )),
}


@pytest.mark.parametrize("arity, size", [(3, 2), (2, 3)])
def test_enumerate_models_at_byte_boundaries_matches_reference(arity, size):
    sig = Signature(predicates=(("R", arity),))
    full, selective = BYTE_SENTENCES[arity]
    for text in (full, *selective):
        sentence = parse_sentence(text, sig)
        models = enumerate_models(sig, sentence, size)
        assert models == reference_enumerate_models(sig, sentence, size)
        assert 0 < len(models) <= 2 ** (size**arity)
    assert len(enumerate_models(sig, parse_sentence(full, sig), size)) == 2 ** (size**arity)


def test_enumerate_models_on_two_full_bytes():
    """R/2 on four elements: every candidate in order, decoded here from
    its mask, and one selective sentence against the reference."""
    sig = Signature(predicates=(("R", 2),))
    full, (selective, _) = BYTE_SENTENCES[2]
    domain = ("e0", "e1", "e2", "e3")
    tuples = list(itertools.product(domain, repeat=2))
    models = enumerate_models(sig, parse_sentence(full, sig), 4)
    assert len(models) == 2**16
    for mask, m in enumerate(models):
        assert m.domain == domain and not m.functions
        assert sorted(m.relations["R"]) == [t for i, t in enumerate(tuples) if mask >> i & 1]
    sentence = parse_sentence(selective, sig)
    assert enumerate_models(sig, sentence, 4) == reference_enumerate_models(sig, sentence, 4)


def test_back_to_back_enumerations_share_nothing():
    """Pieces are memoised within one call: a second call over the same
    signature, with another sentence, builds its own."""
    sig = MIXED_SIGNATURES[1]
    first = parse_sentence("forall x. R(x, f(x)) -> P(c)", sig)
    second = parse_sentence("exists x. R(c, x) and not P(f(x))", sig)
    calls = [(first, 2), (second, 2), (first, 1), (second, 1), (first, 2)]
    results = [enumerate_models(sig, s, size) for s, size in calls]
    for (s, size), models in zip(calls, results):
        assert models == reference_enumerate_models(sig, s, size)
    assert results[0] == results[-1] != results[1]


def _result(fn, *args):
    """The value, or the type and message of the toolkit error raised."""
    try:
        return fn(*args)
    except CddError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("sig", MIXED_SIGNATURES[:2] + ENUMERATION_SIGNATURES[:3], ids=repr)
def test_enumerate_models_with_literals_matches_reference(sig):
    """Literals in atoms, in ``=`` and as function arguments: the same
    models, or the same error as the first candidate that raises."""
    rng = random.Random(f"literals {sig!r}")
    seen = set()
    for size in (1, 2):
        if _candidates(sig, size) > 2_000:
            continue
        for _ in range(25):
            sentence = _random_sentence(rng, sig, literals=0.15)
            expected = _result(reference_enumerate_models, sig, sentence, size)
            assert _result(enumerate_models, sig, sentence, size) == expected, sentence
            seen.add(type(expected) if isinstance(expected, list) else expected[0])
    assert list in seen
    if any(arity for _, arity in sig.functions):
        assert CddError in seen


def test_enumeration_error_is_the_first_failing_candidates():
    """The replay decodes one candidate at a time, with the decoder that
    builds the models, so it raises what the first failing candidate raises
    alone.  That is candidate 8, with P = {e0} and c = e0, on 5; evaluated
    together, the candidates first reach f(6), which those with P = {e0}
    and c = e1 (candidate 9 and later) raise."""
    sig = MIXED_SIGNATURES[1]  # R/2 and P/1 beside f/1 and the constant c
    sentence = parse_sentence("forall x. (P(x) and not c = x -> f(6) = x) and (P(x) and c = x -> f(5) = x)", sig)
    with pytest.raises(CddError, match=r"^function 'f' undefined on \(Fraction\(5, 1\),\)$"):
        enumerate_models(sig, sentence, 2)
    assert _result(enumerate_models, sig, sentence, 2) == _result(reference_enumerate_models, sig, sentence, 2)


def test_undefined_application_raises_only_when_reached():
    sig = Signature(predicates=(("P", 1), ("Q", 1)), functions=(("f", 1),))
    # never reached: the left side of the "or" holds on every candidate
    unreachable = parse_sentence("forall x. (P(x) or not P(x)) or f(5) = x", sig)
    models = enumerate_models(sig, unreachable, 2)
    assert len(models) == _candidates(sig, 2)
    assert models == reference_enumerate_models(sig, unreachable, 2)
    # reached on some candidates only, and with a different literal on
    # different ones: the first candidate in enumeration order that reaches
    # an application decides the error (Q cycles faster than P, so a
    # candidate with Q but no P comes first and reaches f(7))
    reachable = parse_sentence("exists x. (P(x) and f(5) = x) or (Q(x) and f(7) = x)", sig)
    expected = _result(reference_enumerate_models, sig, reachable, 2)
    assert expected == (CddError, "function 'f' undefined on (Fraction(7, 1),)")
    assert _result(enumerate_models, sig, reachable, 2) == expected
    # literals outside an application are just values outside the domain
    harmless = parse_sentence("forall x. not P(5) and not 5 = x and (f(x) = x or 1 = 1)", sig)
    models = enumerate_models(sig, harmless, 2)
    assert len(models) == _candidates(sig, 2)
    assert models == reference_enumerate_models(sig, harmless, 2)


def test_enumeration_at_the_count_cap():
    # P/1 and R/2 on four elements: 2**4 * 2**16 = 2**20 candidates, the cap
    sig = Signature(predicates=(("P", 1), ("R", 2)))
    sentence = parse_sentence(
        "forall x. forall y. (R(x, y) -> R(y, x)) and (P(x) -> R(x, x))", sig
    )
    assert _candidates(sig, 4) == ENUMERATION_COUNT_CAP
    models = enumerate_models(sig, sentence, 4)
    # per element (P(x), R(x, x)) is one of 3 of its 4 pairs, and each of the
    # 6 unordered pairs of distinct elements is in R both ways or not at all
    assert len(models) == 3**4 * 2**6
    domain = ("e0", "e1", "e2", "e3")
    # P is the slower digit: the first model is empty, the last is full
    assert models[0] == RelationalStructure(domain=domain, relations={"P": [], "R": []})
    assert models[-1] == RelationalStructure(
        domain=domain,
        relations={"P": [(v,) for v in domain], "R": list(itertools.product(domain, repeat=2))},
    )
    assert all(satisfies(m, sentence) for m in models[:: len(models) // 50])
