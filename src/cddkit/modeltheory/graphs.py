"""Conceptual graphs and their translation to existential sentences.

A conceptual graph is bipartite: concept nodes carry a type and an
optional referent, relation nodes connect ordered lists of concept
nodes.  First-order only: a relation node may not reference another
relation node.  Translation introduces one existential variable per
unfixed concept, one constant (or rational literal) per fixed referent,
a monadic type atom per concept, and one relation atom per relation
node.  Every name is checked once, by the graph's ``Signature``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .._frozen import Frozen
from ..errors import HigherOrderGraph, SchemaError, read_json, reading
from .syntax import (
    RATIONAL_LITERAL,
    SENTENCE_DEPTH_LIMIT,
    And,
    Apply,
    Atom,
    Exists,
    Formula,
    Lit,
    Signature,
    Term,
    Var,
    coerce_value,
)

__all__ = ["ConceptNode", "RelationNode", "ConceptualGraph", "graph_to_sentence", "load_graph"]


class ConceptNode(Frozen):
    __slots__ = ("id", "type", "referent")

    # the referent as read from JSON
    def __init__(self, id: str, type: str, referent: str | int | float | Fraction | None = None):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "type", type)
        object.__setattr__(self, "referent", referent)


class RelationNode(Frozen):
    __slots__ = ("name", "args", "id")

    def __init__(self, name: str, args: tuple[str, ...], id: str | None = None):
        args = tuple(args)  # concept node ids, ordered
        if len(args) < 1:
            raise SchemaError(f"relation {name!r} needs at least one argument")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "id", id)


class ConceptualGraph(Frozen):
    __slots__ = ("concepts", "relations")

    def __init__(self, concepts: tuple[ConceptNode, ...], relations: tuple[RelationNode, ...] = ()):
        concepts, relations = tuple(concepts), tuple(relations)
        if not concepts:
            raise SchemaError("a conceptual graph needs at least one concept")
        concept_ids = [c.id for c in concepts]
        if len(set(concept_ids)) != len(concept_ids):
            raise SchemaError("concept ids must be unique")
        relation_ids = {r.id for r in relations if r.id is not None}
        for r in relations:
            for arg in r.args:
                if arg in relation_ids:
                    raise HigherOrderGraph(
                        f"relation {r.name!r} references relation node {arg!r}; "
                        "only concept nodes may be arguments"
                    )
                if arg not in concept_ids:
                    raise SchemaError(f"relation {r.name!r} references unknown node {arg!r}")
        object.__setattr__(self, "concepts", concepts)
        object.__setattr__(self, "relations", relations)


def graph_to_sentence(graph: ConceptualGraph) -> tuple[Signature, Formula]:
    """Model-theoretic reading of a conceptual graph.

    Returns the derived signature and a closed existential sentence:
    a conjunction of one type atom per concept and one atom per
    relation node, quantifying over concepts without referents.  The
    signature, of the concept types, relation names and constant
    referents, refuses a name the parser would not read, and each
    variable is the next ``v<n>`` it does not declare.  A sentence more
    than ``SENTENCE_DEPTH_LIMIT`` levels deep, which the syntax nodes'
    constructor refuses, is refused with the graph's own message: about
    250 concepts without referents, each of which adds an ``exists`` and
    an ``and``.
    """
    terms: dict[str, Term] = {}
    constants = []
    for c in graph.concepts:
        if c.referent is None:
            continue
        if isinstance(c.referent, str) and not RATIONAL_LITERAL.fullmatch(c.referent):
            constants.append(c.referent)
            terms[c.id] = Apply(c.referent, ())
        else:
            # numbers and numeric text become exact rationals; booleans, NaN,
            # infinities and any other JSON value are refused
            try:
                terms[c.id] = Lit(coerce_value(c.referent))
            except SchemaError as exc:
                raise SchemaError(f"referent of concept {c.id!r}: {exc}") from exc

    predicates: dict[str, int] = {}
    for c in graph.concepts:
        prior = predicates.setdefault(c.type, 1)
        if prior != 1:
            raise SchemaError(f"symbol {c.type!r} used with conflicting arities")
    for r in graph.relations:
        prior = predicates.setdefault(r.name, len(r.args))
        if prior != len(r.args):
            raise SchemaError(f"symbol {r.name!r} used with conflicting arities")

    sig = Signature(
        predicates=tuple(sorted(predicates.items())),
        functions=tuple((name, 0) for name in sorted(set(constants))),
    )
    declared = {*predicates, *constants}
    names = (f"v{n}" for n in itertools.count(1))
    variables = []
    for c in graph.concepts:
        if c.referent is None:
            variables.append(next(n for n in names if n not in declared))
            terms[c.id] = Var(variables[-1])

    atoms: list[Formula] = [Atom(c.type, (terms[c.id],)) for c in graph.concepts]
    atoms += [Atom(r.name, tuple(terms[a] for a in r.args)) for r in graph.relations]
    try:
        body = atoms[0]
        for atom in atoms[1:]:
            body = And(body, atom)
        for name in reversed(variables):
            body = Exists(name, body)
    except SchemaError:
        raise SchemaError(f"the graph's sentence is more than {SENTENCE_DEPTH_LIMIT} levels deep") from None
    return sig, body


def _entries(doc: dict, key: str) -> list[dict]:
    entries = doc.get(key, [])
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise SchemaError(f"graph {key!r} must be a JSON array of objects, got {entries!r}")
    return entries


def load_graph(text_or_doc) -> ConceptualGraph:
    """Load ``{"concepts": [{"id","type","referent"?}], "relations": [...]}``."""
    doc = read_json(text_or_doc, "graph document")
    if not isinstance(doc, dict) or "concepts" not in doc:
        raise SchemaError("graph document needs a 'concepts' array")
    concepts = []
    for entry in _entries(doc, "concepts"):
        with reading("concept entry"):
            concepts.append(
                ConceptNode(
                    id=str(entry["id"]),
                    type=str(entry["type"]),
                    referent=entry.get("referent"),
                )
            )
    relations = []
    for entry in _entries(doc, "relations"):
        with reading("relation entry"):
            args = entry["args"]
            if not isinstance(args, list):
                raise SchemaError(f"relation {entry.get('name')!r} args must be a JSON array")
            relations.append(
                RelationNode(
                    name=str(entry["name"]),
                    args=tuple(str(a) for a in args),
                    id=str(entry["id"]) if "id" in entry else None,
                )
            )
    return ConceptualGraph(concepts=tuple(concepts), relations=tuple(relations))
