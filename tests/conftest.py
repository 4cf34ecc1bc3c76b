"""Shared graph fixtures used across the suite.

``four_vertex_sandpile`` is the four-vertex sandpile graph whose 8-chip run drives the
worked stabilization trace; ``two_cycle_loop_sink`` is the two-cycle-with-loop graph
extended by an edge into a sink.
"""

import os
from pathlib import Path

import pytest

import monodyn
from monodyn.graph import Graph

# Child processes (``python -m monodyn.cli``) import the same package as the
# tests, also when it is found through pytest's ``pythonpath`` setting alone.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(monodyn.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")])
)


@pytest.fixture
def four_vertex_sandpile() -> Graph:
    # u, v, z each with an edge to the sink, a loop on v and z, and the
    # u <-> v, u <-> z back-and-forth pairs.  Outdegree 3 everywhere but s.
    return Graph.build(
        ["u", "v", "z", "s"],
        [
            ("u", "s"),
            ("u", "v"),
            ("u", "z"),
            ("v", "s"),
            ("v", "v"),
            ("v", "u"),
            ("z", "s"),
            ("z", "z"),
            ("z", "u"),
        ],
    )


@pytest.fixture
def graph_two_cycle_loop() -> Graph:
    # Loop at u, edge u -> v, edge v -> u.  Adjacency [[1,1],[1,0]].
    return Graph.build(["u", "v"], [("u", "u"), ("u", "v"), ("v", "u")])


@pytest.fixture
def two_cycle_loop_sink(graph_two_cycle_loop) -> Graph:
    # Same plus an edge from v into a fresh sink.
    return Graph.build(
        ["u", "v", "s"],
        [("u", "u"), ("u", "v"), ("v", "u"), ("v", "s")],
    )


@pytest.fixture
def rose(request) -> Graph:
    """Single vertex with n loops; parametrize indirectly with the petal count."""
    n = getattr(request, "param", 2)
    return Graph.build(["v"], [("v", "v", n)])


def rose_graph(petals: int) -> Graph:
    return Graph.build(["v"], [("v", "v", petals)])


@pytest.fixture
def simplicity_trio() -> tuple[Graph, Graph, Graph]:
    """Left: edge into an exit-less two-cycle.  Middle: two-cycle draining
    into a sink.  Right: two-cycle with a loop on one vertex."""
    left = Graph.build(["w", "u", "v"], [("w", "u"), ("u", "v"), ("v", "u")])
    middle = Graph.build(["u", "v", "w"], [("u", "v"), ("v", "u"), ("v", "w")])
    right = Graph.build(["u", "v"], [("u", "u"), ("u", "v"), ("v", "u")])
    return left, middle, right


FOUR_VERTEX_SANDPILE_TEXT = """\
# four-vertex sandpile graph
v u
v v
v z
v s
e u s
e u v
e u z
e v s
e v v
e v u
e z s
e z z
e z u
"""
