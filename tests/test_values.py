"""Semantics shared by the package's value classes: equality and hashing
over their fields, immutability after construction, the repr, the field
setting of the shared constructor and each constructor's validation errors."""

import copy
import importlib
import pickle
import pkgutil
import weakref

import pytest

from monodyn.config import DEFAULT_BOUNDS, Bounds, parse_bounds
from monodyn.dimension import DimElement, TalentedWindow
import monodyn
from monodyn.errors import FiringError, Frozen, ParseError, ShapeError, Stopped
from monodyn.graph import Graph, StructureReport
from monodyn.grid import MAX_GRID_CELLS, GridSpec, Palette
from monodyn.lpa import CompareVerdict, SimplicityVerdict
from monodyn.matrix import IntMatrix
from monodyn.monoid import MonoidPresentation, MonoidTable, WordEquality
from monodyn.sandpile import ChipConfig, Odometer
from monodyn.shifteq import ESWitness, InvariantReport, SearchExhausted, SEWitness, SSEChain

M1 = IntMatrix(1, 1, (2,))
M2 = IntMatrix(2, 2, (1, 1, 1, 0))
PRES = MonoidPresentation(("a", "b"), (((2, 0), (0, 1)),))
GRAPH = Graph.build(["u", "s"], [("u", "s", 2)])
REPORT = InvariantReport((3,), 0, (3,), 0, (1, -2), (1, -2), "no_obstruction")
STOP = Stopped("node_budget", 2, 3)

# (class, fields in declaration order, a field to change, its changed value)
VALUES = [
    (Bounds, dict(search_depth=6, max_elements=10, max_power=64, firing_budget=9, max_inner_dim=3,
                  max_lag=4, coeff_bound=2, node_budget=50), "max_lag", 5),
    (IntMatrix, dict(rows=2, cols=2, entries=(1, 1, 1, 0)), "entries", (1, 1, 1, 1)),
    (Graph, dict(vertices=("u", "s"), edges=(("u", "s", 2),), weights=None), "weights", (1, 0)),
    (StructureReport, dict(sinks=("s",), strongly_connected=False, scc_partition=(("u",), ("s",)),
                           sandpile=True, sink_name="s", outdegrees=(2, 0), indegrees=(0, 2)),
     "sink_name", None),
    (ChipConfig, dict(counts=(1, 0), absorbed=3), "counts", (0, 1)),
    (Odometer, dict(firings=(2, 5)), "firings", (2, 4)),
    (GridSpec, dict(rows=3, cols=4, mode="open"), "mode", "closed"),
    (Palette, dict(colors=((0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3))), "colors",
     ((0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 4))),
    (MonoidPresentation, dict(generators=("a", "b"), relations=(((2, 0), (0, 1)),)), "generators",
     ("a", "c")),
    (WordEquality, dict(verdict="yes", path=((1, 0), (0, 1)), stopped=None), "path", ((1, 0),)),
    (MonoidTable, dict(generators=("a",), elements=((0,), (1,)), add=((0, 1), (1, 0)), identity=0,
                       generator_classes=(1,)), "identity", 1),
    (DimElement, dict(matrix=M2, vec=(1, 0), stage=2), "stage", 3),
    (TalentedWindow, dict(graph=GRAPH, radius=1, presentation=PRES), "radius", 2),
    (SimplicityVerdict, dict(simple=False, failure="cofinality", witness_vertex="u",
                             witness_target=("s",), witness_cycle=None), "witness_vertex", "s"),
    (CompareVerdict, dict(kind="unknown", detail="d", generator_images=(1,), se_witness=None,
                          invariants=None, stopped=STOP), "detail", "e"),
    (ESWitness, dict(r=M1, s=M1), "s", IntMatrix(1, 1, (3,))),
    (SEWitness, dict(r=M1, s=M1, lag=2), "lag", 3),
    (SSEChain, dict(matrices=(M1, M1), witnesses=(ESWitness(M1, IntMatrix(1, 1, (1,))),)),
     "matrices", (M1, IntMatrix(1, 1, (1,)))),
    (SearchExhausted, dict(stopped=Stopped(None, bounds=(("max_lag", 2),)), invariants=REPORT), "stopped",
     Stopped(None, bounds=(("max_lag", 3),))),
    (InvariantReport, dict(bf_factors_a=(3,), bf_free_rank_a=0, bf_factors_b=(3,), bf_free_rank_b=0,
                           charpoly_core_a=(1, -2), charpoly_core_b=(1, -2), verdict="no_obstruction"),
     "verdict", "obstruction"),
    (Stopped, dict(by="firing_budget", bound=5, work=5, bounds=(), config=ChipConfig((1, 0)),
                   odometer=Odometer((2, 3))), "work", 4),
]
IDS = [cls.__name__ for cls, *_ in VALUES]
# The classes whose fields are set by Frozen.__init__ alone.
GENERIC = [row for row in VALUES if "__init__" not in vars(row[0])]


def test_every_value_class_is_listed():
    for info in pkgutil.walk_packages(monodyn.__path__, "monodyn."):
        importlib.import_module(info.name)
    found, todo = set(), [Frozen]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("monodyn.") and sub not in found:
                found.add(sub)
                todo.append(sub)
    assert len(VALUES) == len(set(IDS)) and {cls for cls, *_ in VALUES} == found
    assert sorted(cls.__name__ for cls, *_ in GENERIC) == [
        "ESWitness", "InvariantReport", "MonoidTable", "Odometer", "SEWitness", "SearchExhausted",
        "StructureReport", "TalentedWindow",
    ]


@pytest.mark.parametrize("cls, fields, changed, value", VALUES, ids=IDS)
def test_equality_hash_and_repr(cls, fields, changed, value):
    assert cls._fields == tuple(fields)
    a = cls(**fields)
    b = cls(*fields.values())
    assert a == b and not a != b
    assert a != cls(**{**fields, changed: value})
    assert a != tuple(fields.values())  # another type never compares equal
    compared = tuple(v for name, v in fields.items() if not (cls is ChipConfig and name == "absorbed"))
    assert hash(a) == hash(b) == hash(compared)  # the field tuple's hash, as it always was
    for name, v in fields.items():
        assert getattr(a, name) is v
    assert weakref.ref(a)() is a
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is cls and twin == a and repr(twin) == repr(a)
    assert repr(a) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"


@pytest.mark.parametrize("cls, fields, changed, value", GENERIC, ids=[cls.__name__ for cls, *_ in GENERIC])
def test_shared_constructor_rejects_bad_fields(cls, fields, changed, value):
    name, values, first = cls.__name__, tuple(fields.values()), next(iter(fields))
    assert cls(*values[:1], **dict(list(fields.items())[1:])) == cls(*values)
    for args, named, message in [
        (values[:-1], {}, f"{name}() missing fields {list(fields)[-1]!r}"),
        ((), {}, f"{name}() missing fields {', '.join(map(repr, fields))}"),
        ((), dict(list(fields.items())[:-1]), f"{name}() missing fields {list(fields)[-1]!r}"),
        (values, {"other": value}, f"{name}() got an unexpected field 'other'"),
        (values, {first: value}, f"{name}() got multiple values for field {first!r}"),
        ((*values, value), {}, f"{name}() takes {len(values)} fields but {len(values) + 1} were given"),
    ]:
        with pytest.raises(TypeError) as info:
            cls(*args, **named)
        assert str(info.value) == message


def test_a_class_keeps_the_equality_and_hash_it_defines():
    class ByFirst(Frozen):
        __slots__ = ("x", "y")

        def __eq__(self, other):
            return isinstance(other, ByFirst) and self.x == other.x

        def __hash__(self):
            return 7

    class OnlyEquality(Frozen):  # Python drops the hash of a class that defines __eq__
        __slots__ = ("x",)

        def __eq__(self, other):
            return True

    assert ByFirst(1, 2) == ByFirst(1, 3) and hash(ByFirst(1, 2)) == 7
    assert OnlyEquality(1) == OnlyEquality(2) and OnlyEquality.__hash__ is None


def test_chip_config_ignores_absorbed():
    a, b = ChipConfig((1, 2), absorbed=0), ChipConfig((1, 2), absorbed=7)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert ChipConfig((1, 2)).absorbed == 0


def test_graph_caches_do_not_enter_equality():
    a, b = Graph.build(["u", "s"], [("u", "s", 2)]), Graph.build(["u", "s"], [("u", "s", 2)])
    assert a.index == {"u": 0, "s": 1} and a.sandpile_sink == "s"
    assert a == b and hash(a) == hash(b)
    with pytest.raises(AttributeError, match="cannot assign to field 'index'"):
        a.index = {}


@pytest.mark.parametrize("cls, fields, changed, value", VALUES, ids=IDS)
def test_fields_cannot_be_set_or_deleted(cls, fields, changed, value):
    a = cls(**fields)
    for name in [*fields, "other"]:
        with pytest.raises(AttributeError, match=f"cannot assign to field {name!r}"):
            setattr(a, name, value)
        with pytest.raises(AttributeError, match=f"cannot delete field {name!r}"):
            delattr(a, name)
    assert a == cls(**fields)


# (class, positional arguments, error type, message); several faults in one
# call show which check runs first.
INVALID = [
    (Bounds, (6, 10, -1), ParseError, "bound 'max_power' must be nonnegative"),
    (Bounds, (-1, 10, -1), ParseError, "bound 'search_depth' must be nonnegative"),
    (IntMatrix, (0, 2, ()), ShapeError, "matrix dimensions must be positive, got 0x2"),
    (IntMatrix, (2, -1, (1,)), ShapeError, "matrix dimensions must be positive, got 2x-1"),
    (IntMatrix, (2, 2, (1, 2, 3)), ShapeError, "expected 4 entries for a 2x2 matrix, got 3"),
    (ChipConfig, ((1, -1),), FiringError, "negative chip count"),
    (GridSpec, (0, 3), ShapeError, "grid dimensions must be positive"),
    (GridSpec, (0, 3, "twisted"), ShapeError, "grid dimensions must be positive"),
    (GridSpec, (MAX_GRID_CELLS, 2), ShapeError,
     f"a {MAX_GRID_CELLS}x2 grid exceeds the limit of MAX_GRID_CELLS = {MAX_GRID_CELLS} cells"),
    (GridSpec, (2, 2, "twisted"), ParseError, "grid mode must be 'closed' or 'open', got 'twisted'"),
    (Palette, (((0, 0, 0),) * 3,), ParseError, "palette needs exactly four colors"),
    (Palette, (((0, 0, 0),) * 3 + ((0, 0, 256),),), ParseError, "palette channels must be in 0..255"),
    (Palette, (((0, 0, 0),) * 3 + ((0, 0),),), ParseError, "palette channels must be in 0..255"),
    (MonoidPresentation, (("a", "a"), (((1,), (0,)),)), ParseError, "duplicate generator names"),
    (MonoidPresentation, (("a", "b"), (((1, 0), (0,)),)), ShapeError,
     "relation vector length does not match generator count"),
    (MonoidPresentation, (("a", "b"), (((1, 0), (0, 1)), ((1, 1), (1, 1)))), ParseError,
     "relation equates a vector with itself"),
    (MonoidPresentation, (("a", "b"), (((1, 0), (0, -1)),)), ParseError,
     "relation vectors must be nonnegative"),
    (DimElement, (IntMatrix(1, 2, (1, 1)), (1,)), ShapeError, "stage matrix must be square"),
    (DimElement, (IntMatrix(1, 1, (-1,)), (1, 2)), ShapeError, "stage matrix must be nonnegative"),
    (DimElement, (M2, (1,)), ShapeError, "vector length 1 does not match matrix size 2"),
    (SSEChain, ((M1, M1), ()), ShapeError, "chain needs exactly one witness per link"),
]


@pytest.mark.parametrize("cls, args, error, message", INVALID, ids=[c.__name__ for c, *_ in INVALID])
def test_validation_errors(cls, args, error, message):
    with pytest.raises(error) as info:
        cls(*args)
    assert type(info.value) is error and str(info.value) == message


def test_bounds_replace():
    b = DEFAULT_BOUNDS.replace(max_lag=7, node_budget=0)
    assert (b.max_lag, b.node_budget) == (7, 0)
    assert b == Bounds(max_lag=7, node_budget=0) and DEFAULT_BOUNDS == Bounds()
    assert DEFAULT_BOUNDS.replace() == DEFAULT_BOUNDS
    with pytest.raises(ParseError, match="bound 'coeff_bound' must be nonnegative"):
        DEFAULT_BOUNDS.replace(coeff_bound=-1)
    with pytest.raises(TypeError):
        DEFAULT_BOUNDS.replace(depth=1)


def test_bounds_files():
    b = parse_bounds("# comment\nmax-lag = 7\n\nnode_budget=3  # trailing\n")
    assert b == Bounds(max_lag=7, node_budget=3)  # the defaults, two of them overridden
    assert parse_bounds("") == DEFAULT_BOUNDS
    for text, message in [
        ("max_lag", "line 1: config line must be 'key = value'"),
        ("\nlag = 2", "line 2: unknown bound 'lag'"),
        ("max_lag = two", "line 1: bound 'max_lag' needs an integer, got 'two'"),
        ("max_lag = -2", "bound 'max_lag' must be nonnegative"),
    ]:
        with pytest.raises(ParseError) as info:
            parse_bounds(text)
        assert str(info.value) == message
