"""Every value class behaves as the frozen dataclass with the same fields would.

Each class is checked against a ``dataclasses.make_dataclass(...,
frozen=True)`` reference built from the fields the class declares, in
order, with their defaults.  A structure and an interpretation hold
read-only views of their maps, which the dataclass cannot hash; their
hash is that of the views' items.
"""

import copy
import dataclasses
import importlib
import pickle
from fractions import Fraction
from types import MappingProxyType

import pytest

from cddkit._frozen import Frozen
from cddkit.designspace import (
    DEFAULT_TOLERANCE,
    DesignProblem,
    DesignVariable,
    FeasibleRegion,
    ObjectiveConstraint,
)
from cddkit.modeltheory.graphs import ConceptNode, ConceptualGraph, RelationNode
from cddkit.modeltheory.parser import _Token
from cddkit.modeltheory.structures import BuiltinFunction, Interpretation, RelationalStructure, Theory
from cddkit.modeltheory.syntax import (
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
    Signature,
    Var,
)
from cddkit.orthotope import (
    FaceCheck,
    MaximalityCertificate,
    OracleResult,
    Orthotope,
    SolveResult,
    StepCheck,
)
from cddkit.rosetta import Diagonal, MCell, NCell, RosettaReport
from cddkit.surface import Interval, QuadraticResponseSurface

UNIT = Interval(0.0, 1.0)
WIDE = Interval(-1.0, 1.0)
SURFACE = QuadraticResponseSurface("z", "u", 1.0, (1.0,), (0.5,))
VARIABLE = DesignVariable("x", "", WIDE)
PROBLEM = DesignProblem((VARIABLE,), (SURFACE,), (ObjectiveConstraint("z", 3.0),), (0.0,))
UNCONSTRAINED = DesignProblem((VARIABLE,), (SURFACE,), (), (0.0,))
BOX = Orthotope((UNIT,))
FACE = FaceCheck(0, "lo", "z", 0.5)
CERTIFICATE = MaximalityCertificate((FACE,), 1e-9)
X, Y = Var("x"), Var("y")
P_X, Q_X = Atom("P", (X,)), Atom("Q", (X,))
SIGNATURE = Signature(predicates=(("P", 1),))
CONCEPT = ConceptNode("c", "T")
ZERO, ONE = Fraction(0), Fraction(1)

# class -> (every field in constructor order with a sample value, one changed field);
# the sample values are those the constructor stores, so a rebuild from them is equal
SAMPLES = {
    Interval: (dict(lo=0.0, hi=1.0), dict(hi=2.0)),
    QuadraticResponseSurface: (
        dict(name="z", unit="u", beta0=1.0, linear=(1.0,), quadratic=(0.5,)), dict(name="w")
    ),
    DesignVariable: (dict(name="x", unit="m", ambient=WIDE), dict(unit="s")),
    ObjectiveConstraint: (dict(surface="z", bound=3.0), dict(bound=4.0)),
    DesignProblem: (
        dict(
            variables=(VARIABLE,),
            surfaces=(SURFACE,),
            constraints=(ObjectiveConstraint("z", 3.0),),
            seed=(0.0,),
            ranking=(0,),
            tolerance=1e-3,
            name="p",
        ),
        dict(name="q"),
    ),
    FeasibleRegion: (dict(problem=PROBLEM), dict(problem=UNCONSTRAINED)),
    Orthotope: (dict(intervals=(UNIT,)), dict(intervals=(UNIT, UNIT))),
    FaceCheck: (dict(axis=0, side="lo", blocked_by="z", margin=0.5), dict(side="hi")),
    MaximalityCertificate: (dict(faces=(FACE,), epsilon=1e-9), dict(epsilon=1e-6)),
    SolveResult: (
        dict(orthotope=BOX, bindings=(("ambient", "z"),), ranking=(0,), certificate=CERTIFICATE), dict(ranking=(1,))
    ),
    OracleResult: (dict(greedy_box=BOX, volume_box=None, resolution=21, ranking=(0,)), dict(resolution=41)),
    StepCheck: (
        dict(factor=0, grid_lo=0.0, grid_hi=1.0, stored_lo=0.0, stored_hi=1.0, tolerance=0.1),
        dict(tolerance=0.2),
    ),
    MCell: (
        dict(obj_a="a", obj_b="b", z_a=(1.0,), z_b=(2.0,), feasible=(True,), bound_a=1.5, bound_b=None),
        dict(bound_b=2.5),
    ),
    NCell: (
        dict(
            var_a="x", var_b="y", x_a=(0.0, 1.0), x_b=(0.0, 1.0), feasible=(True,) * 4, rects=((UNIT, UNIT),)
        ),
        dict(rects=()),
    ),
    Diagonal: (dict(var="x", ambient=WIDE, held=UNIT, admitted=UNIT), dict(var="y")),
    RosettaReport: (
        dict(
            problem_name="p",
            objective_names=("a",),
            variable_names=("x",),
            q_matrix=((1.0,),),
            m_cells=(),
            n_cells=(),
            diagonals=(Diagonal("x", WIDE, UNIT, UNIT),),
            design_point=(0.0,),
            resolution=5,
        ),
        dict(resolution=7),
    ),
    Var: (dict(name="x"), dict(name="y")),
    Lit: (dict(value=Fraction(1, 2)), dict(value=ONE)),
    Apply: (dict(func="f", args=(X,)), dict(func="g")),
    Atom: (dict(pred="P", args=(X,)), dict(pred="Q")),
    Eq: (dict(left=X, right=Lit(ONE)), dict(right=Y)),
    Not: (dict(body=P_X), dict(body=Q_X)),
    And: (dict(left=P_X, right=Q_X), dict(right=P_X)),
    Or: (dict(left=P_X, right=Q_X), dict(right=P_X)),
    Implies: (dict(left=P_X, right=Q_X), dict(right=P_X)),
    Forall: (dict(var="x", body=P_X), dict(var="y")),
    Exists: (dict(var="x", body=P_X), dict(var="y")),
    Signature: (dict(predicates=(("P", 1),), functions=(("f", 1),)), dict(functions=())),
    _Token: (dict(kind="ident", text="x", pos=0), dict(pos=1)),
    BuiltinFunction: (dict(params=("a",), body="a"), dict(body="1")),
    RelationalStructure: (
        dict(
            domain=(ZERO, ONE),
            relations={"R": frozenset({(ZERO,)})},
            functions={"f": {(ZERO,): ONE, (ONE,): ZERO}},
        ),
        dict(relations={"R": frozenset()}),
    ),
    Interpretation: (
        dict(signature=SIGNATURE, predicate_map={"P": "R"}, function_map={}),
        dict(predicate_map={"P": "S"}),
    ),
    Theory: (dict(name="t", signature=SIGNATURE, sentences=(Forall("x", P_X),)), dict(name="u")),
    ConceptNode: (dict(id="c", type="T", referent="r"), dict(id="d")),
    RelationNode: (dict(name="R", args=("c",), id="r1"), dict(name="S")),
    ConceptualGraph: (dict(concepts=(CONCEPT,), relations=(RelationNode("R", ("c",)),)), dict(relations=())),
}

# the fields that have a default; a class stands for a fresh instance of it per object
DEFAULTS = {
    DesignProblem: dict(ranking=None, tolerance=DEFAULT_TOLERANCE, name="problem"),
    Apply: dict(args=()),
    Signature: dict(predicates=(), functions=()),
    RelationalStructure: dict(relations=dict, functions=dict),
    ConceptNode: dict(referent=None),
    RelationNode: dict(id=None),
    ConceptualGraph: dict(relations=()),
}


def _reference(cls):
    """The frozen dataclass with the fields of ``cls``."""
    fields = []
    for name in SAMPLES[cls][0]:
        default = DEFAULTS.get(cls, {}).get(name, dataclasses.MISSING)
        if isinstance(default, type):
            fields.append((name, object, dataclasses.field(default_factory=default)))
        elif default is dataclasses.MISSING:
            fields.append((name, object))
        else:
            fields.append((name, object, dataclasses.field(default=default)))
    return dataclasses.make_dataclass(cls.__qualname__, fields, frozen=True)


def _hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return str(exc)


def _stored(obj, names):
    return {name: getattr(obj, name) for name in names}


CLASSES = [pytest.param(cls, id=cls.__qualname__) for cls in SAMPLES]


def test_every_value_class_has_a_sample():
    for module in ("designspace", "orthotope", "rosetta", "surface", "modeltheory.graphs",
                   "modeltheory.parser", "modeltheory.structures", "modeltheory.syntax"):
        importlib.import_module(f"cddkit.{module}")
    assert set(Frozen.__subclasses__()) == set(SAMPLES)
    assert len(SAMPLES) == 36


@pytest.mark.parametrize("cls", CLASSES)
def test_fields_are_the_slots_in_constructor_order(cls):
    kwargs, _ = SAMPLES[cls]
    assert cls.__slots__ == tuple(kwargs)
    obj = cls(**kwargs)
    assert _stored(obj, kwargs) == kwargs
    assert cls(*kwargs.values()) == obj
    assert not hasattr(obj, "__dict__")


@pytest.mark.parametrize("cls", CLASSES)
def test_a_wrong_call_is_a_type_error(cls):
    kwargs, _ = SAMPLES[cls]
    names, values = tuple(kwargs), tuple(kwargs.values())
    required = [v for name, v in kwargs.items() if name not in DEFAULTS.get(cls, {})]
    # with more than one field, the last two calls pass as many values as there are fields
    middle = dict(zip(names[1:-1], values[1:-1]))
    calls = [
        lambda: cls(*values, None),  # one positional value too many
        lambda: cls(values[0], **middle, unknown=values[-1]),
        lambda: cls(values[0], **{names[0]: values[0]}, **middle),  # the first field by position and by name
    ]
    if required:
        calls.append(lambda: cls(*required[:-1]))  # too few fields
    for call in calls:
        with pytest.raises(TypeError):
            call()


# the records that only store their fields: their constructor is Frozen's
STORED = [cls for cls in SAMPLES if cls.__init__ is Frozen.__init__]


def test_the_records_that_only_store_their_fields_share_one_constructor():
    assert {cls.__qualname__ for cls in STORED} == {
        "ObjectiveConstraint", "FeasibleRegion", "FaceCheck", "MaximalityCertificate",
        "SolveResult", "OracleResult", "StepCheck", "MCell", "NCell", "Diagonal", "RosettaReport", "_Token",
    }
    for cls in STORED:
        kwargs, _ = SAMPLES[cls]
        with pytest.raises(TypeError, match=f"^{cls.__qualname__} takes the fields {', '.join(kwargs)}$"):
            cls(*kwargs.values(), None)


# the classes whose maps are read-only views, each with the hashable form of its
# fields: every map, and every table in one, as a frozenset of its items
VIEWS = {
    RelationalStructure: lambda s: (
        s.domain,
        frozenset(s.relations.items()),
        frozenset((name, frozenset(table.items())) for name, table in s.functions.items()),
    ),
    Interpretation: lambda i: (i.signature, frozenset(i.predicate_map.items()), frozenset(i.function_map.items())),
}


@pytest.mark.parametrize("cls", CLASSES)
def test_repr_and_hash_match_the_dataclass(cls):
    kwargs, _ = SAMPLES[cls]
    obj = cls(**kwargs)
    if cls in VIEWS:
        # the dataclass holds the same views, which it cannot hash
        ref = _reference(cls)(**_stored(obj, kwargs))
        assert repr(obj) == repr(ref)
        assert hash(obj) == hash(VIEWS[cls](obj)) == hash(cls(**kwargs))
        return
    ref = _reference(cls)(**kwargs)
    assert repr(obj) == repr(ref)
    assert _hash_or_error(obj) == _hash_or_error(ref)


def _views(obj):
    """Every read-only map of ``obj``, and every table held in one."""
    maps = [value for value in _stored(obj, obj.__slots__).values() if isinstance(value, MappingProxyType)]
    return maps + [table for m in maps for table in m.values() if isinstance(table, MappingProxyType)]


@pytest.mark.parametrize("cls", [pytest.param(cls, id=cls.__qualname__) for cls in VIEWS])
def test_maps_are_read_only_views_of_dicts_the_instance_owns(cls):
    kwargs = copy.deepcopy(SAMPLES[cls][0])
    obj = cls(**kwargs)
    views = _views(obj)
    assert len(views) == {RelationalStructure: 3, Interpretation: 2}[cls]
    for view in views:
        with pytest.raises(TypeError):
            view["new"] = None
        with pytest.raises(TypeError):
            del view[next(iter(view), "new")]
    # the caller's dicts are copied: changing them changes nothing
    for value in kwargs.values():
        if isinstance(value, dict):
            for inner in value.values():
                if isinstance(inner, dict):
                    inner.clear()
            value.clear()
    assert obj == cls(**SAMPLES[cls][0])
    assert hash(obj) == hash(cls(**SAMPLES[cls][0]))


@pytest.mark.parametrize("cls", CLASSES)
def test_equality_matches_the_dataclass(cls):
    kwargs, change = SAMPLES[cls]
    Ref = _reference(cls)
    obj, twin, other = cls(**kwargs), cls(**kwargs), cls(**{**kwargs, **change})
    ref, ref_other = Ref(**kwargs), Ref(**{**kwargs, **change})
    assert (obj == twin, obj != twin) == (ref == Ref(**kwargs), ref != Ref(**kwargs)) == (True, False)
    assert (obj == other, obj != other) == (ref == ref_other, ref != ref_other) == (False, True)
    # another class with the same values is never equal, from either side
    assert obj.__eq__(ref) is NotImplemented and ref.__eq__(obj) is NotImplemented
    assert (obj == ref, obj != ref, ref == obj, ref != obj) == (False, True, False, True)


@pytest.mark.parametrize("cls", [p for p in CLASSES if p.values[0] in DEFAULTS])
def test_defaults_match_the_dataclass(cls):
    kwargs, _ = SAMPLES[cls]
    defaults = DEFAULTS[cls]
    required = {name: value for name, value in kwargs.items() if name not in defaults}
    obj, ref = cls(**required), _reference(cls)(**required)
    assert _stored(obj, defaults) == _stored(ref, defaults)
    assert obj == cls(**required)
    for name, default in defaults.items():
        if isinstance(default, type):  # a fresh object each time
            assert getattr(obj, name) is not getattr(cls(**required), name)


@pytest.mark.parametrize("cls", CLASSES)
def test_assignment_and_deletion_are_refused(cls):
    kwargs, change = SAMPLES[cls]
    obj, ref = cls(**kwargs), _reference(cls)(**kwargs)
    for name in (*kwargs, "new_attribute"):
        for target in (obj, ref):
            with pytest.raises(AttributeError, match=f"cannot assign to field {name!r}"):
                setattr(target, name, change.get(name))
            with pytest.raises(AttributeError, match=f"cannot delete field {name!r}"):
                delattr(target, name)
    assert _stored(obj, kwargs) == kwargs


@pytest.mark.parametrize("cls", CLASSES)
def test_copies_and_pickles_are_equal(cls):
    obj = cls(**SAMPLES[cls][0])
    for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(clone) is cls and clone == obj
