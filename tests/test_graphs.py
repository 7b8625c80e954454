import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cddkit import data_path
from cddkit.errors import HigherOrderGraph, SchemaError
from cddkit.modeltheory import (
    And,
    Apply,
    Atom,
    ConceptNode,
    ConceptualGraph,
    Exists,
    Lit,
    RelationNode,
    RelationalStructure,
    Var,
    free_variables,
    graph_to_sentence,
    load_graph,
    parse_sentence,
    satisfies,
    to_text,
)

from cddkit.modeltheory.syntax import SENTENCE_DEPTH_LIMIT

from conftest import MALFORMED_JSON


def flatten_conjuncts(formula):
    while isinstance(formula, Exists):
        formula = formula.body
    atoms = []
    stack = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, And):
            stack.extend([node.right, node.left])
        else:
            atoms.append(node)
    return atoms


def canonical_structure(graph, sig):
    """One element per concept; extensions read off the graph itself."""
    elements = {c.id: f"m_{c.id}" for c in graph.concepts}
    relations = {name: set() for name, _ in sig.predicates}
    for c in graph.concepts:
        relations[c.type].add((elements[c.id],))
    for r in graph.relations:
        relations[r.name].add(tuple(elements[a] for a in r.args))
    functions = {}
    for c in graph.concepts:
        if c.referent is not None and not isinstance(c.referent, Fraction):
            functions[str(c.referent)] = {(): elements[c.id]}
    return RelationalStructure(
        domain=tuple(elements.values()), relations=relations, functions=functions
    )


def test_ecs_graph_translation():
    graph = load_graph(data_path("logic/ecs_graph.json").read_text())
    sig, sentence = graph_to_sentence(graph)
    assert to_text(sentence) == (
        "exists v1. exists v2. exists v3. ECS(v1) and Emissions(v2) and Engine(v3) "
        "and Controls(v1, v2) and Provides_Calibrations(v1, v3)"
    )
    atoms = flatten_conjuncts(sentence)
    relation_atoms = [a for a in atoms if isinstance(a, Atom) and len(a.args) == 2]
    assert len(relation_atoms) == 2
    # the two interaction relations are joined at the same first argument
    assert relation_atoms[0].args[0] == relation_atoms[1].args[0] == Var("v1")


def test_constraint_transformation_graph_translation():
    graph = load_graph(data_path("logic/cdd_graph.json").read_text())
    sig, sentence = graph_to_sentence(graph)
    atoms = flatten_conjuncts(sentence)
    names = sorted(a.pred for a in atoms)
    assert names == ["ObjectiveConstraint", "TransformsInto", "VariableConstraint"]
    assert not free_variables(sentence)


def test_smallest_graph():
    graph = ConceptualGraph(concepts=(ConceptNode("c", "T"),))
    sig, sentence = graph_to_sentence(graph)
    assert to_text(sentence) == "exists v1. T(v1)"
    assert sig.predicates == (("T", 1),)


@pytest.mark.parametrize("referent", [None, "unit"])
def test_graph_sentence_past_the_depth_limit_is_refused(referent):
    # without referents each concept adds an exists and an and: k concepts make
    # 2k + 1 levels; with a constant referent, k - 1 ands, an atom and the constant
    fits = (SENTENCE_DEPTH_LIMIT - 1) // 2 if referent is None else SENTENCE_DEPTH_LIMIT - 1
    for k in (fits, fits + 1):
        graph = ConceptualGraph(concepts=tuple(ConceptNode(f"c{i}", "T", referent) for i in range(k)))
        if k == fits:
            sig, sentence = graph_to_sentence(graph)
            assert parse_sentence(to_text(sentence), sig) == sentence
        else:
            with pytest.raises(SchemaError, match=f"^the graph's sentence is more than {SENTENCE_DEPTH_LIMIT} levels deep$"):
                graph_to_sentence(graph)


def test_fixed_referents_become_constants():
    graph = ConceptualGraph(
        concepts=(
            ConceptNode("engine", "Engine", referent="engine_1"),
            ConceptNode("speed", "Speed", referent="1350"),
        ),
        relations=(RelationNode("RunsAt", ("engine", "speed")),),
    )
    sig, sentence = graph_to_sentence(graph)
    assert not free_variables(sentence)
    atoms = flatten_conjuncts(sentence)
    runs = next(a for a in atoms if a.pred == "RunsAt")
    assert runs.args == (Apply("engine_1", ()), Lit(Fraction(1350)))
    assert ("engine_1", 0) in sig.functions


def test_higher_order_reference_rejected():
    with pytest.raises(HigherOrderGraph):
        ConceptualGraph(
            concepts=(ConceptNode("a", "T"), ConceptNode("b", "T")),
            relations=(
                RelationNode("R", ("a", "b"), id="r1"),
                RelationNode("Includes", ("r1", "a")),
            ),
        )


@pytest.mark.parametrize("text", MALFORMED_JSON.values(), ids=MALFORMED_JSON)
def test_load_graph_refuses_malformed_text(text):
    with pytest.raises(SchemaError, match="^graph document: "):
        load_graph(text)


def test_relation_needs_arguments():
    with pytest.raises(SchemaError):
        RelationNode("R", ())


def test_unknown_argument_rejected():
    with pytest.raises(SchemaError):
        ConceptualGraph(
            concepts=(ConceptNode("a", "T"),),
            relations=(RelationNode("R", ("a", "missing")),),
        )


def test_conflicting_arities_rejected():
    with pytest.raises(SchemaError):
        graph_to_sentence(
            ConceptualGraph(
                concepts=(ConceptNode("a", "T"), ConceptNode("b", "T")),
                relations=(RelationNode("T", ("a", "b")),),
            )
        )


def test_translation_is_satisfiable_in_its_canonical_structure():
    for name in ("logic/ecs_graph.json", "logic/cdd_graph.json"):
        graph = load_graph(data_path(name).read_text())
        sig, sentence = graph_to_sentence(graph)
        struct = canonical_structure(graph, sig)
        assert len(struct.domain) <= len(graph.concepts)
        assert satisfies(struct, sentence)


def test_translation_with_referents_is_satisfiable():
    graph = ConceptualGraph(
        concepts=(
            ConceptNode("ecs", "ECS", referent="unit_7"),
            ConceptNode("engine", "Engine"),
        ),
        relations=(RelationNode("Provides_Calibrations", ("ecs", "engine")),),
    )
    sig, sentence = graph_to_sentence(graph)
    struct = canonical_structure(graph, sig)
    assert satisfies(struct, sentence)


# --- every name the parser reads back, and no other ---------------------------------

# the names a graph may hold: identifiers (some spelled like the variables v1,
# v2), and keywords, identifiers with a newline or a space, and numbers
IDENTIFIERS = ("T", "U", "R", "v1", "v2", "v3")
NAMES = (*IDENTIFIERS, "not", "exists", "and", "T\n", "a b", "", "7", "1/2", "-3")


def _accepted(graph):
    """Whether the graph's names and arities make a signature, decided without the kernel."""
    identifier = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
    arities = {}
    for name, arity in [(c.type, 1) for c in graph.concepts] + [(r.name, len(r.args)) for r in graph.relations]:
        if arities.setdefault(name, arity) != arity:
            return False
    constants = {c.referent for c in graph.concepts if isinstance(c.referent, str)
                 and not re.fullmatch(r"-?[0-9]+(/[0-9]+)?", c.referent)}
    names = set(arities) | constants
    return not (set(arities) & constants) and all(
        identifier.match(n) and n not in {"forall", "exists", "and", "or", "not"} for n in names
    )


@st.composite
def graphs(draw):
    # half the graphs take identifiers only, so that many are accepted
    names = st.sampled_from(draw(st.sampled_from((IDENTIFIERS, NAMES))))
    referents = st.one_of(st.none(), names, st.integers(-2, 2))
    concepts = tuple(ConceptNode(f"c{i}", draw(names), draw(referents)) for i in range(draw(st.integers(1, 4))))
    ids = [c.id for c in concepts]
    relations = tuple(
        RelationNode(draw(names), tuple(draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3))))
        for _ in range(draw(st.integers(0, 3)))
    )
    return ConceptualGraph(concepts, relations)


@settings(derandomize=True, max_examples=600, deadline=None, database=None)
@given(graphs())
def test_an_accepted_graph_reads_back_and_any_other_is_refused(graph):
    if not _accepted(graph):
        with pytest.raises(SchemaError):
            graph_to_sentence(graph)
        return
    sig, sentence = graph_to_sentence(graph)
    assert parse_sentence(to_text(sentence), sig) == sentence


@pytest.mark.parametrize(
    "concepts, relations, message",
    [
        ((ConceptNode("a", "not"),), (), "predicate symbol 'not' is a keyword"),
        ((ConceptNode("a", "T\n"),), (), "predicate symbol 'T\\n' is not an identifier"),
        ((ConceptNode("a", "T"),), (RelationNode("R\n", ("a",)),), "predicate symbol 'R\\n' is not an identifier"),
        ((ConceptNode("a", "T", "or"),), (), "function symbol 'or' is a keyword"),
        ((ConceptNode("a", "T", "x y"),), (), "function symbol 'x y' is not an identifier"),
    ],
    ids=["keyword-type", "newline-type", "newline-relation", "keyword-referent", "spaced-referent"],
)
def test_the_signature_refuses_a_name_the_parser_would_not_read(concepts, relations, message):
    graph = ConceptualGraph(concepts, relations)  # the nodes take any name; the signature decides
    with pytest.raises(SchemaError) as info:
        graph_to_sentence(graph)
    assert str(info.value) == message
