"""Seeded random graph corpora for cross-checking the dynamic and
presentation-based monoid constructions against each other."""

from __future__ import annotations

from random import Random
from typing import Iterator

from .graph import Graph


def random_sandpile_graph(
    rng: Random,
    max_vertices: int = 5,
    max_outdegree: int = 3,
) -> Graph:
    """Random graph with a unique sink reachable from every vertex.

    Every non-sink vertex first gets one edge toward a strictly later vertex
    (guaranteeing a path to the sink), then extra edges, loops, and parallel
    copies are sprinkled subject to the outdegree cap.
    """
    n = rng.randint(2, max_vertices)
    names = [f"v{i}" for i in range(1, n)] + ["s"]
    edges: list[tuple[str, str, int]] = []
    outdeg = {v: 0 for v in names}
    for i in range(n - 1):
        target = rng.choice(names[i + 1 :])
        edges.append((names[i], target, 1))
        outdeg[names[i]] += 1
    for _ in range(rng.randint(0, 2 * n)):
        src = rng.choice(names[:-1])
        if outdeg[src] >= max_outdegree:
            continue
        dst = rng.choice(names)
        edges.append((src, dst, 1))
        outdeg[src] += 1
    g = Graph.build(names, edges)
    assert g.sandpile_sink is not None
    return g


def sandpile_corpus(
    seed: int, count: int, max_vertices: int = 5, max_outdegree: int = 3
) -> Iterator[Graph]:
    """Deterministic stream of distinct random sandpile graphs."""
    rng = Random(seed)
    seen: set[tuple] = set()
    produced = 0
    attempts = 0
    while produced < count and attempts < 100 * count:
        attempts += 1
        g = random_sandpile_graph(rng, max_vertices, max_outdegree)
        key = (g.vertices, g.edges)
        if key in seen:
            continue
        seen.add(key)
        produced += 1
        yield g
