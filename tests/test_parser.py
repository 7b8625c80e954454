import copy
import pickle
import random
from fractions import Fraction

import pytest

from cddkit.errors import ArityMismatch, FreeVariable, ParseError, SchemaError, UnknownSymbol
from cddkit.modeltheory import (
    And,
    Apply,
    Atom,
    Eq,
    Exists,
    Forall,
    Implies,
    Lit,
    Not,
    Or,
    RelationalStructure,
    Signature,
    Var,
    check_well_formed,
    enumerate_models,
    free_variables,
    has_quantifier,
    is_sentence,
    parse_formula,
    parse_sentence,
    satisfies,
    to_text,
)
from cddkit.modeltheory.parser import _lex
from cddkit.modeltheory.syntax import PARENTHESIS_LIMIT, SENTENCE_DEPTH_LIMIT
from cddkit.modeltheory.structures import coerce_value

TRIANGLE_SIG = Signature(functions=(("P1", 2), ("P2", 1)))
PRED_SIG = Signature(predicates=(("P", 2),))


def test_orthogonality_display_form_parses():
    text = "forall v1. forall v2. forall v3. P1(v1,v2) = P2(v3)"
    ast = parse_sentence(text, TRIANGLE_SIG)
    expected = Forall(
        "v1",
        Forall(
            "v2",
            Forall(
                "v3",
                Eq(Apply("P1", (Var("v1"), Var("v2"))), Apply("P2", (Var("v3"),))),
            ),
        ),
    )
    assert ast == expected
    assert parse_sentence(to_text(ast), TRIANGLE_SIG) == ast


def test_existential_relation_sentence():
    ast = parse_sentence("exists v1. exists v2. P(v1,v2)", PRED_SIG)
    assert ast == Exists("v1", Exists("v2", Atom("P", (Var("v1"), Var("v2")))))


def test_free_variable_rejected_for_sentences():
    sig = Signature(predicates=(("P", 1),))
    with pytest.raises(FreeVariable):
        parse_sentence("P(v1)", sig)
    formula = parse_formula("P(v1)", sig)
    assert free_variables(formula) == {"v1"}


def test_unknown_symbol():
    with pytest.raises(UnknownSymbol):
        parse_sentence("forall v. Q(v)", Signature(predicates=(("P", 1),)))


def test_arity_mismatch():
    with pytest.raises(ArityMismatch):
        parse_sentence("forall v. P(v)", PRED_SIG)
    with pytest.raises(ArityMismatch):
        parse_sentence("forall v. P1(v) = P2(v)", TRIANGLE_SIG)
    # check_well_formed alone decides arity, after the parse: the first fault in
    # preorder is named, and a syntax error anywhere in the text comes first
    sig = Signature(predicates=(("P", 2),), functions=(("f", 1), ("a", 0), ("b", 0)))
    with pytest.raises(ArityMismatch, match="^predicate 'P' expects 2 arguments, got 1$"):
        parse_sentence("P(f(a, b))", sig)
    with pytest.raises(ArityMismatch, match="^function 'f' expects 1 arguments, got 2$"):
        parse_formula("P(f(a, b), a)", sig)
    with pytest.raises(ParseError):
        parse_sentence("P(a) and P(a, b", sig)


def test_syntax_error_carries_position():
    sig = Signature(predicates=(("P", 1),))
    with pytest.raises(ParseError) as info:
        parse_sentence("forall . P(v)", sig)
    assert info.value.position == 7
    with pytest.raises(ParseError):
        parse_sentence("forall v. P(v", sig)


def test_cannot_quantify_over_declared_symbol():
    sig = Signature(predicates=(("P", 1),), functions=(("a", 0),))
    with pytest.raises(ParseError):
        parse_sentence("forall a. P(a)", sig)


def test_predicate_used_as_term_rejected():
    sig = Signature(predicates=(("P", 1),))
    with pytest.raises(ParseError):
        parse_sentence("forall v. P(v) = v", sig)


def test_connective_precedence():
    sig = Signature(predicates=(("P", 1), ("Q", 1), ("R", 1), ("S", 1)))
    ast = parse_sentence("forall v. P(v) and Q(v) -> not R(v) or S(v)", sig)
    body = ast.body
    assert isinstance(body, Implies)
    assert body.left == And(Atom("P", (Var("v"),)), Atom("Q", (Var("v"),)))
    assert body.right == Or(Not(Atom("R", (Var("v"),))), Atom("S", (Var("v"),)))


def test_implication_is_right_associative():
    sig = Signature(predicates=(("P", 1), ("Q", 1), ("R", 1)))
    ast = parse_sentence("forall v. P(v) -> Q(v) -> R(v)", sig)
    assert isinstance(ast.body, Implies)
    assert isinstance(ast.body.right, Implies)


def test_parentheses_override_precedence():
    sig = Signature(predicates=(("P", 1), ("Q", 1), ("R", 1)))
    ast = parse_sentence("forall v. P(v) and (Q(v) or R(v))", sig)
    assert isinstance(ast.body, And)
    assert isinstance(ast.body.right, Or)


def test_rational_literals():
    sig = Signature(functions=(("f", 1),))
    ast = parse_sentence("f(1/2) = 0.25", sig)
    assert ast == Eq(Apply("f", (Lit(Fraction(1, 2)),)), Lit(Fraction(1, 4)))
    assert parse_sentence(to_text(ast), sig) == ast


def test_parenthesized_implication_nests_to_the_right():
    sig = Signature(predicates=(("P", 1), ("Q", 1), ("R", 1)))
    ast = parse_sentence("forall v. (P(v) -> Q(v) -> R(v)) and P(v)", sig)
    assert ast.body == And(
        Implies(Atom("P", (Var("v"),)), Implies(Atom("Q", (Var("v"),)), Atom("R", (Var("v"),)))),
        Atom("P", (Var("v"),)),
    )


@pytest.mark.parametrize(
    "text", ["7", "-7", "7/3", "-2.5", "0.25", "007", "1e-7", "7/", ".5", "5.", "+5", " 5", "5\n", "1/2/3"]
)
def test_sentences_and_domain_values_share_one_rational_syntax(text):
    # the sentence lexer reads the whole text as one literal exactly when a domain
    # value made of that text is a rational
    try:
        tokens = _lex(text)
    except ParseError:
        tokens = []
    one_literal = [(t.kind, t.text) for t in tokens] == [("number", text), ("eof", "")]
    assert one_literal == isinstance(coerce_value(text), Fraction)


def test_constants_parse_as_nullary_applications():
    sig = Signature(predicates=(("P", 1),), functions=(("a", 0),))
    ast = parse_sentence("P(a)", sig)
    assert ast == Atom("P", (Apply("a", ()),))


def test_nested_function_terms():
    sig = Signature(functions=(("f", 1), ("g", 2), ("c", 0)))
    ast = parse_sentence("g(f(c), c) = c", sig)
    inner = Apply("f", (Apply("c", ()),))
    assert ast == Eq(Apply("g", (inner, Apply("c", ()))), Apply("c", ()))


def _random_formula(rng, sig, variables, depth):
    if depth == 0 or rng.random() < 0.3:
        choice = rng.random()
        if choice < 0.6:
            name, arity = rng.choice(sig.predicates)
            args = tuple(Var(rng.choice(variables)) for _ in range(arity))
            return Atom(name, args)
        return Eq(Var(rng.choice(variables)), Var(rng.choice(variables)))
    kind = rng.choice(["not", "and", "or", "implies"])
    if kind == "not":
        return Not(_random_formula(rng, sig, variables, depth - 1))
    left = _random_formula(rng, sig, variables, depth - 1)
    right = _random_formula(rng, sig, variables, depth - 1)
    return {"and": And, "or": Or, "implies": Implies}[kind](left, right)


def test_print_parse_roundtrip_on_random_formulas():
    rng = random.Random(2024)
    sig = Signature(predicates=(("P", 1), ("R", 2)))
    variables = ["v1", "v2", "v3"]
    for _ in range(300):
        body = _random_formula(rng, sig, variables, 3)
        ast = body
        for name in reversed(variables):
            ast = Forall(name, ast) if rng.random() < 0.5 else Exists(name, ast)
        text = to_text(ast)
        reparsed = parse_sentence(text, sig)
        assert reparsed == ast
        assert to_text(reparsed) == text


def test_parse_formula_allows_open_formulas():
    ast = parse_formula("P(v1, v2)", PRED_SIG)
    assert free_variables(ast) == {"v1", "v2"}


def test_signature_rejects_bad_symbols_with_schema_error():
    from cddkit.errors import SchemaError

    with pytest.raises(SchemaError):
        Signature(predicates=(("R", 0),))
    with pytest.raises(SchemaError):
        Signature(predicates=(("R", 1),), functions=(("R", 0),))
    with pytest.raises(SchemaError):
        Signature(functions=(("f", -1),))
    with pytest.raises(SchemaError):
        Signature.from_json({"predicates": [["R", 2.0]]})
    assert Signature.from_json({"predicates": [["R", 2]]}) == Signature(predicates=(("R", 2),))


KEYWORD_NAMES = ("forall", "exists", "and", "or", "not")


@pytest.mark.parametrize("name", [*KEYWORD_NAMES, "", "R\n", " R", "a b", "1x", "7", "x-y", "é"])
def test_signature_declares_only_identifiers_that_are_not_keywords(name):
    fault = "is a keyword" if name in KEYWORD_NAMES else "is not an identifier"
    with pytest.raises(SchemaError) as info:
        Signature(predicates=((name, 1),))
    assert str(info.value) == f"predicate symbol {name!r} {fault}"
    with pytest.raises(SchemaError) as info:
        Signature.from_json({"functions": [["c", 0], [name, 0]]})
    assert str(info.value) == f"function symbol {name!r} {fault}"


def test_the_lexer_reads_the_signature_name_rule():
    from cddkit.modeltheory import parser, syntax

    assert parser.KEYWORDS is syntax.KEYWORDS and parser.IDENTIFIER is syntax.IDENTIFIER
    # every declarable name is one identifier token, and every keyword is refused
    sig = Signature(predicates=(("_P9", 1), ("forall_", 1), ("Not", 1)), functions=(("exists2", 0),))
    sentence = parse_sentence("_P9(exists2) and forall_(exists2) and Not(exists2)", sig)
    assert parse_sentence(to_text(sentence), sig) == sentence


# --- nesting limits ----------------------------------------------------------------

DEEP_SIG = Signature(predicates=(("P", 1),), functions=(("a", 0), ("f", 1)))

# text of each shape at a size k, and the largest k within the limits: k
# parentheses around P(a) open k + 1 levels, as its argument list opens one;
# in the syntax tree the atom P(...) and the constant a are a level each, so
# a chain of k operands is k + 1 levels high
DEEP_SHAPES = {
    "parentheses": (lambda k: "(" * k + "P(a)" + ")" * k, PARENTHESIS_LIMIT - 1),
    "terms": (lambda k: "P(" + "f(" * k + "a" + ")" * k + ")", PARENTHESIS_LIMIT - 1),
    "not": (lambda k: "not " * k + "P(a)", SENTENCE_DEPTH_LIMIT - 2),
    "and": (lambda k: " and ".join(["P(a)"] * k), SENTENCE_DEPTH_LIMIT - 1),
    "or": (lambda k: " or ".join(["P(a)"] * k), SENTENCE_DEPTH_LIMIT - 1),
    "->": (lambda k: " -> ".join(["P(a)"] * k), SENTENCE_DEPTH_LIMIT - 1),
    "quantifiers": (lambda k: "".join(f"forall v{i}. " for i in range(k)) + "P(v0)", SENTENCE_DEPTH_LIMIT - 2),
}


@pytest.mark.parametrize("shape", DEEP_SHAPES)
def test_sentence_at_the_nesting_limit_parses_evaluates_and_prints(shape):
    text, k = DEEP_SHAPES[shape]
    sentence = parse_sentence(text(k), DEEP_SIG)
    struct = RelationalStructure(domain=(0,), relations={"P": {(0,)}}, functions={"a": {(): 0}, "f": {(0,): 0}})
    assert satisfies(struct, sentence) == (shape != "not" or k % 2 == 0)
    # printed and read back to the same tree
    assert parse_sentence(to_text(sentence), DEEP_SIG) == sentence
    with pytest.raises(ParseError, match="nested more than|levels deep"):
        parse_sentence(text(k + 1), DEEP_SIG)


# per shape, a syntax tree SENTENCE_DEPTH_LIMIT levels high around an innermost
# constant c, and its repr: k - 1 ands over k atoms, k nots, k quantifiers or
# k applications of f, with an atom and the constant below them
_K = SENTENCE_DEPTH_LIMIT - 2


def _atom(c):
    return Atom("P", (Apply(c, ()),))


def _atom_text(c):
    return f"Atom(pred='P', args=(Apply(func='{c}', args=()),))"


def _chain(c):
    tree = _atom(c)
    for _ in range(_K - 1):
        tree = And(tree, _atom("a"))
    return tree


def _chain_text(c):
    text = _atom_text(c)
    for _ in range(_K - 1):
        text = f"And(left={text}, right={_atom_text('a')})"
    return text


def _applications(c):
    term = Apply(c, ())
    for _ in range(_K):
        term = Apply("f", (term,))
    return Atom("P", (term,))


def _nots(c):
    tree = _atom(c)
    for _ in range(_K):
        tree = Not(tree)
    return tree


def _quantifiers(c):
    tree = _atom(c)
    for i in reversed(range(_K)):
        tree = Forall(f"v{i}", tree)
    return tree


DEEP_TREES = {
    "and": (_chain, _chain_text),
    "applications": (
        _applications,
        lambda c: "Atom(pred='P', args=(" + "Apply(func='f', args=(" * _K + f"Apply(func='{c}', args=())"
        + ",))" * _K + ",))",
    ),
    "not": (_nots, lambda c: "Not(body=" * _K + _atom_text(c) + ")" * _K),
    "quantifiers": (
        _quantifiers,
        lambda c: "".join(f"Forall(var='v{i}', body=" for i in range(_K)) + _atom_text(c) + ")" * _K,
    ),
}


@pytest.mark.parametrize("shape", DEEP_TREES)
def test_trees_at_the_depth_limit_compare_hash_and_print(shape):
    build, text = DEEP_TREES[shape]
    a, b, other = build("a"), build("a"), build("b")
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert a != other and not a == other
    assert len({a, b, other}) == 2
    assert repr(a) == text("a") and repr(other) == text("b")


# per node kind, a tree two levels high and a step that builds it one level
# higher, with a node of that kind last: Atom and Eq nest applications of f
_P_A = Atom("P", (Apply("a"),))
BUILT_SHAPES = {
    "Not": (_P_A, Not),
    "And": (_P_A, lambda tree: And(tree, _P_A)),
    "Or": (_P_A, lambda tree: Or(tree, _P_A)),
    "Implies": (_P_A, lambda tree: Implies(_P_A, tree)),
    "Forall": (Atom("P", (Var("x"),)), lambda tree: Forall("x", tree)),
    "Exists": (Atom("P", (Var("x"),)), lambda tree: Exists("x", tree)),
    "Atom": (_P_A, lambda tree: Atom("P", (Apply("f", tree.args),))),
    "Eq": (Eq(Apply("a"), Apply("a")), lambda tree: Eq(Apply("f", (tree.left,)), tree.right)),
}


def _built_at_the_limit(kind):
    tree, grow = BUILT_SHAPES[kind]
    for _ in range(SENTENCE_DEPTH_LIMIT - 2):
        tree = grow(tree)
    return tree


def _refused_by(build):
    """The class of the node whose constructor refused ``build()``."""
    with pytest.raises(SchemaError, match=f"^syntax tree more than {SENTENCE_DEPTH_LIMIT} levels deep$") as info:
        build()
    return type(info.traceback[-1].locals["self"])


@pytest.mark.parametrize("kind", BUILT_SHAPES)
def test_a_tree_built_in_code_past_the_depth_limit_is_refused_where_it_crosses(kind):
    tree = _built_at_the_limit(kind)
    grow = BUILT_SHAPES[kind][1]
    assert _refused_by(lambda: grow(tree)).__name__ == kind
    if kind in ("Atom", "Eq"):
        # an application 499 levels high, and one above it that would be 501
        term = Apply("f", (tree.args[0] if kind == "Atom" else tree.left,))
        assert _refused_by(lambda: Apply("f", (term,))) is Apply


@pytest.mark.parametrize("kind", BUILT_SHAPES)
def test_a_tree_built_in_code_at_the_depth_limit_passes_every_walk(kind):
    tree, twin = _built_at_the_limit(kind), _built_at_the_limit(kind)
    assert free_variables(tree) == frozenset()
    check_well_formed(tree, DEEP_SIG)
    text = to_text(tree)
    if kind in ("Atom", "Eq"):
        # nests more argument lists than the parser reads
        assert text.count("f(") == SENTENCE_DEPTH_LIMIT - 2
    else:
        assert parse_sentence(text, DEEP_SIG) == tree
    struct = RelationalStructure(
        domain=("e0",), relations={"P": {("e0",)}}, functions={"a": {(): "e0"}, "f": {("e0",): "e0"}}
    )
    assert satisfies(struct, tree)
    universe = enumerate_models(DEEP_SIG, Eq(Apply("a"), Apply("a")), 1)
    assert struct in universe
    assert enumerate_models(DEEP_SIG, tree, 1) == [model for model in universe if satisfies(model, tree)]
    assert tree is not twin and tree == twin and hash(tree) == hash(twin)
    assert repr(tree) == repr(twin) and repr(tree).startswith(f"{kind}(")
    clone = copy.copy(tree)
    assert clone is not tree and clone == tree and hash(clone) == hash(tree)
    assert copy.deepcopy(tree) is tree
    pickled = pickle.loads(pickle.dumps(tree))
    assert pickled == tree and hash(pickled) == hash(tree) and repr(pickled) == repr(tree)


def test_a_not_chain_under_forall_at_the_depth_limit_pickles_and_copies():
    # the shape that once recursed in the C pickler from 498 levels up
    tree = Atom("P", (Var("x"),))
    for _ in range(SENTENCE_DEPTH_LIMIT - 3):
        tree = Not(tree)
    tree = Forall("x", tree)
    assert tree._height == SENTENCE_DEPTH_LIMIT
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(tree, protocol))
        assert clone is not tree and clone == tree and hash(clone) == hash(tree) and clone._height == tree._height
    clone = copy.copy(tree)
    assert clone is not tree and clone == tree and hash(clone) == hash(tree)
    # a node shared by two parents stays one node
    shared = And(tree.body, tree.body)
    clone = pickle.loads(pickle.dumps(shared))
    assert clone == shared and clone.left is clone.right


def test_a_nodes_height_is_not_a_field():
    tree = Not(_P_A)
    for cls in (Var, Lit, Apply, Atom, Eq, Not, And, Or, Implies, Forall, Exists):
        assert "_height" not in cls.__slots__
    assert repr(tree) == "Not(body=Atom(pred='P', args=(Apply(func='a', args=()),)))"
    # a pickle lists the nodes in postorder, each child as [its index], and no height
    rebuild, (entries,) = tree.__reduce__()
    assert entries == [(Apply, ("a", ())), (Atom, ("P", ([0],))), (Not, ([1],))]
    assert rebuild(entries) == tree


def test_a_nodes_hash_is_its_field_values_hash_taken_when_it_is_built():
    tree = Forall("x", Or(Atom("P", (Var("x"), Apply("c"))), Not(Eq(Lit(Fraction(1, 2)), Var("x")))))
    for node in (tree, tree.body, tree.body.left, tree.body.left.args[1], tree.body.right.body.left):
        assert hash(node) == hash(node._values(node)) == node._hash
    # a field that cannot be hashed, such as a list of arguments, is refused as the node is built
    for build in (lambda: Atom("P", [Var("x")]), lambda: Apply("f", (Var("x"), [])), lambda: Lit([1])):
        with pytest.raises(TypeError, match="unhashable"):
            build()


def test_a_nodes_static_facts_are_not_fields():
    tree = Forall("x", Or(Atom("P", (Var("x"), Apply("c"))), Not(Eq(Lit(Fraction(1, 2)), Var("y")))))
    assert (tree._free, tree._quantified) == ({"y"}, True)
    assert list(tree._symbols) == [("predicate", "P", 2), ("function", "c", 0)]
    for cls in (Var, Lit, Apply, Atom, Eq, Not, And, Or, Implies, Forall, Exists):
        assert not {"_free", "_symbols", "_quantified"} & set(cls.__slots__)
    # neither the repr, equality, the hash nor a pickle sees them
    assert "_free" not in repr(tree) and "_symbols" not in repr(tree) and "_quantified" not in repr(tree)
    rebuild, (entries,) = tree.__reduce__()
    assert all(len(fields) == len(cls.__slots__) for cls, fields in entries)
    assert rebuild(entries) == tree and hash(rebuild(entries)) == hash(tree)
    # a node that adds nothing to its child's facts keeps the child's objects
    assert tree.body._symbols is tree.body.left._symbols and Not(tree)._free is tree._free


def test_a_term_in_the_place_of_a_formula_is_refused_when_compiled():
    # the facts count every node, wherever it stands; compiling refuses the tree
    struct = RelationalStructure(domain=("e0",), functions={"c": {(): "e0"}})
    assert free_variables(Var("x")) == {"x"} and not has_quantifier(Apply("c"))
    check_well_formed(Apply("c"), Signature(functions=(("c", 0),)))
    with pytest.raises(TypeError, match="^not a formula: Apply"):
        satisfies(struct, Apply("c"))


def test_trees_at_the_depth_limit_have_the_right_facts():
    # a conjunction of 498 distinct atoms, each over its own variable, under
    # one quantifier: 500 levels; the first atom is the deepest, and first in preorder
    tree = Atom("P0", (Var("x0"),))
    for i in range(1, SENTENCE_DEPTH_LIMIT - 2):
        tree = And(tree, Atom(f"P{i}", (Var(f"x{i}"),)))
    tree = Exists("x0", tree)
    assert tree._height == SENTENCE_DEPTH_LIMIT
    count = SENTENCE_DEPTH_LIMIT - 2
    assert free_variables(tree) == {f"x{i}" for i in range(1, count)} and not is_sentence(tree)
    assert has_quantifier(tree) and not has_quantifier(tree.body)
    assert list(tree._symbols) == [("predicate", f"P{i}", 1) for i in range(count)]
    sig = Signature(predicates=tuple((f"P{i}", 1) for i in range(count)))
    check_well_formed(tree, sig)
    for predicates, message in (
        (sig.predicates[1:], "^predicate symbol 'P0' not declared$"),
        ((("P0", 2),) + sig.predicates[1:-1], "^predicate 'P0' expects 2 arguments, got 1$"),
    ):
        with pytest.raises((UnknownSymbol, ArityMismatch), match=message):
            check_well_formed(tree, Signature(predicates=predicates))
    # each shape built in code at the limit
    p, a, f = ("predicate", "P", 1), ("function", "a", 0), ("function", "f", 1)
    uses = {"Forall": [p], "Exists": [p], "Atom": [p, f, a], "Eq": [f, a]}
    for kind in BUILT_SHAPES:
        tree = _built_at_the_limit(kind)
        assert is_sentence(tree) and has_quantifier(tree) is (kind in ("Forall", "Exists"))
        assert list(tree._symbols) == uses.get(kind, [p, a])


def test_nodes_take_their_fields_by_position_or_by_name():
    assert Forall(body=_P_A, var="x") == Forall("x", body=_P_A) == Forall("x", _P_A)
    assert Apply("a") == Apply("a", ()) == Apply(func="a") == Apply(args=(), func="a")
    for build in (Not, lambda: Not(_P_A, _P_A), lambda: Not(formula=_P_A), lambda: Forall("x", var="y")):
        with pytest.raises(TypeError):
            build()


def test_syntax_reprs_and_equality_are_the_field_values():
    f = Forall("x", Or(Eq(Var("x"), Lit(Fraction(1, 2))), Implies(Atom("P", (Var("x"), Apply("c"))), Not(Atom("Q", ())))))
    assert repr(f) == (
        "Forall(var='x', body=Or(left=Eq(left=Var(name='x'), right=Lit(value=Fraction(1, 2))), "
        "right=Implies(left=Atom(pred='P', args=(Var(name='x'), Apply(func='c', args=()))), "
        "right=Not(body=Atom(pred='Q', args=())))))"
    )
    g = Forall("x", Or(Eq(Var("x"), Lit(Fraction(2, 4))), f.body.right))
    assert f == g and hash(f) == hash(g)
    assert Var("x") != "x" and Var("x") != Lit(Fraction(1)) and Apply("f", (Var("x"),)) != Apply("f", ())
    assert Atom("P", (Var("x"),)) != Atom("P", (Var("y"),))
    assert And(Atom("P", ()), Atom("Q", ())) != Or(Atom("P", ()), Atom("Q", ()))


@pytest.mark.parametrize(
    "shape, k",
    [("parentheses", 200), ("not", 1000), ("and", 1000), ("or", 1000), ("->", 1000), ("terms", 1000),
     ("quantifiers", 1000)],
)
def test_deeply_nested_sentence_is_a_parse_error(shape, k):
    text, _ = DEEP_SHAPES[shape]
    with pytest.raises(ParseError) as info:
        parse_sentence(text(k), DEEP_SIG)
    # the parenthesis that opens one level too many: argument lists of
    # "P(f(f(..." open at offsets 1, 3, 5, ...
    offset = {"parentheses": PARENTHESIS_LIMIT, "terms": 2 * PARENTHESIS_LIMIT + 1}.get(shape)
    if offset is None:
        assert str(info.value) == f"syntax tree more than {SENTENCE_DEPTH_LIMIT} levels deep at offset 0"
    else:
        assert str(info.value) == f"parentheses nested more than {PARENTHESIS_LIMIT} deep at offset {offset}"


# text that is malformed past the point where its tree crosses the depth
# limit: the depth is refused first (these once gave "found ')' at offset
# 2405" and an UnknownSymbol for the undeclared Q)
@pytest.mark.parametrize("text", ["not " * 600 + "P(a) )", " and ".join(["P(a)"] * 599 + ["Q(a)"])])
def test_the_depth_limit_is_refused_before_a_later_error(text):
    with pytest.raises(ParseError) as info:
        parse_sentence(text, DEEP_SIG)
    assert str(info.value) == f"syntax tree more than {SENTENCE_DEPTH_LIMIT} levels deep at offset 0"


def test_chains_keep_their_associativity():
    sig = Signature(predicates=(("P", 1), ("Q", 1), ("R", 1)), functions=(("a", 0),))
    p, q, r = (Atom(name, (Apply("a", ()),)) for name in "PQR")
    assert parse_sentence("P(a) -> Q(a) -> R(a)", sig) == Implies(p, Implies(q, r))
    assert parse_sentence("P(a) and Q(a) and R(a)", sig) == And(And(p, q), r)
    assert parse_sentence("not not P(a) or Q(a)", sig) == Or(Not(Not(p)), q)
