"""Shared graph fixtures used across the suite.

``four_vertex_sandpile`` is the four-vertex sandpile graph whose 8-chip run drives the
worked stabilization trace; ``two_cycle_loop_sink`` is the two-cycle-with-loop graph
extended by an edge into a sink.

Every test runs under a wall-clock limit (``TEST_TIME_LIMIT_S``), so a
regression that makes a bounded procedure run away fails its test instead of
hanging the suite.  A test stuck in one long C call never returns to the
interpreter loop that delivers the alarm, so a watchdog thread dumps every
thread's traceback to the terminal and ends the run 30 s after the limit.
"""

import faulthandler
import os
import signal
from pathlib import Path

import pytest
from hypothesis import strategies as st

import monodyn
from monodyn.graph import Graph

# Child processes (``python -m monodyn.cli``) import the same package as the
# tests, also when it is found through pytest's ``pythonpath`` setting alone.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(monodyn.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")])
)

TEST_TIME_LIMIT_S = 60

# A copy of the terminal's stderr: pytest captures fd 2 while a test runs.
STDERR_COPY = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[STDERR_COPY] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[STDERR_COPY])


class TimeLimitExceeded(BaseException):
    """Not an ``Exception``, so hypothesis does not catch it and shrink, which
    would run the slow example again and again."""


@pytest.fixture(autouse=True)
def time_limit(request):
    """Fail the running test once it has taken ``TEST_TIME_LIMIT_S`` seconds,
    and end the run if the test ignores that for another 30 s."""

    def expire(signum, frame):
        raise TimeLimitExceeded(f"test ran longer than {TEST_TIME_LIMIT_S} s")

    faulthandler.dump_traceback_later(
        TEST_TIME_LIMIT_S + 30, exit=True, file=request.config.stash[STDERR_COPY]
    )
    timers = hasattr(signal, "setitimer")  # no interval timers on some platforms
    if timers:
        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
        if timers:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


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


def reachable_from(g: Graph, start: str) -> set[str]:
    """The vertices a depth-first search from ``start`` meets: the oracle
    for ``Graph.reached``, sharing none of its code."""
    seen = {start}
    stack = [start]
    while stack:
        for dst, _ in g.out_adj[stack.pop()]:
            if dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return seen


@st.composite
def digraphs(draw, max_vertices: int = 7) -> Graph:
    """Directed multigraphs on 1 to ``max_vertices`` vertices with up to two
    edges per vertex drawn, loops and repeated edges included; a repeated
    edge adds to the multiplicity."""
    n = draw(st.integers(1, max_vertices))
    names = [f"v{i}" for i in range(n)]
    vertex = st.sampled_from(names)
    edges = draw(st.lists(st.tuples(vertex, vertex, st.integers(1, 2)), max_size=2 * n))
    return Graph.build(names, edges)


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
