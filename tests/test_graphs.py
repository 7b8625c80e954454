from fractions import Fraction

import pytest

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
