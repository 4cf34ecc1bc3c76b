"""Finitely presented commutative monoids.

Elements of the free commutative monoid on n generators are length-n vectors
of nonnegative integers.  A presentation is a list of relation pairs
(lhs, rhs); the congruence it generates connects two vectors when one can be
turned into the other by repeatedly replacing an embedded lhs by the matching
rhs or vice versa, additively in context.

Word equality is decided by bounded bidirectional search and is deliberately
tri-state: "no" is only ever backed by a certificate, either a fully
enumerated congruence class that misses the other element, or a difference
vector outside the lattice spanned by the relation differences.  A bound
running out yields "unknown", never "no".  Graph monoids can be infinite, so
the honest third state is unavoidable.

Enumeration works with normal forms instead.  The congruence is membership
in the pure-difference binomial ideal of the relations, and a Gröbner basis
of that ideal under the graded reverse lexicographic order, read as rewriting
rules lead -> tail, sends every vector to the one normal form of its class
(Eisenbud-Sturmfels, "Binomial ideals", 1996).  The completion that builds it
is bounded by the node budget.  The monoid is finite exactly when every
generator has a pure power among the leading terms, so an infinite monoid is
recognized before any element is listed.

Presentation file format::

    gens: a b c
    2a+b = c        # one relation per line, terms <coeff><generator>
    a = 0
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .config import DEFAULT_BOUNDS
from .errors import ParseError, ShapeError
from .graph import Graph, structure_report

Vector = tuple[int, ...]

YES = "yes"
NO = "no"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class MonoidPresentation:
    generators: tuple[str, ...]
    relations: tuple[tuple[Vector, Vector], ...]

    def __post_init__(self):
        n = len(self.generators)
        if len(set(self.generators)) != n:
            raise ParseError("duplicate generator names")
        for lhs, rhs in self.relations:
            if len(lhs) != n or len(rhs) != n:
                raise ShapeError("relation vector length does not match generator count")
            if lhs == rhs:
                raise ParseError("relation equates a vector with itself")
            if any(x < 0 for x in lhs + rhs):
                raise ParseError("relation vectors must be nonnegative")

    def validate_element(self, vec: Sequence[int]) -> Vector:
        if len(vec) != len(self.generators):
            raise ShapeError(
                f"element length {len(vec)} does not match {len(self.generators)} generators"
            )
        if any(x < 0 for x in vec):
            raise ParseError("element coefficients must be nonnegative")
        return tuple(vec)


@dataclass(frozen=True)
class WordEquality:
    verdict: str  # "yes" | "no" | "unknown"
    path: tuple[Vector, ...] | None = None


@dataclass(frozen=True)
class MonoidTable:
    """Finite commutative monoid as an explicit Cayley table.

    ``elements`` are canonical representative vectors over ``generators``;
    ``add[i][j]`` is the index of the sum; ``generator_classes[k]`` is the
    index of the class of the k-th generator.
    """

    generators: tuple[str, ...]
    elements: tuple[Vector, ...]
    add: tuple[tuple[int, ...], ...]
    identity: int
    generator_classes: tuple[int, ...]

    @staticmethod
    def from_generator_action(
        generators: Sequence[str],
        elements: Sequence[Vector],
        gen_add: Sequence[Sequence[int]],
        identity: int,
        parents: Sequence[tuple[int, int] | None],
    ) -> "MonoidTable":
        """Cayley table of a monoid generated by ``generators``, from the
        action of the generators alone.

        ``gen_add[c][g]`` is the class of element c plus generator g, and
        ``parents[j] = (p, g)`` records that class j is class p plus generator
        g, with p < j; the identity's entry is None.  Then
        ``add[i][j] = gen_add[add[i][p]][g]``, so each entry costs one lookup:
        column j is column p pushed through generator g's column of gen_add.
        """
        n = len(elements)
        if len(gen_add) != n or len(parents) != n:
            raise ValueError("elements, gen_add and parents must have one entry per class")
        by_generator = list(zip(*gen_add))
        cols: list[list[int]] = [[]] * n
        cols[identity] = list(range(n))
        for j, link in enumerate(parents):
            if j == identity:
                if link is not None:
                    raise ValueError("the identity class has no parent")
                continue
            if link is None or not 0 <= link[0] < j:
                raise ValueError(f"parent of class {j} must be a class below it")
            p, g = link
            cols[j] = list(map(by_generator[g].__getitem__, cols[p]))
        return MonoidTable(
            generators=tuple(generators),
            elements=tuple(elements),
            add=tuple(zip(*cols)),
            identity=identity,
            generator_classes=tuple(gen_add[identity]),
        )

    @property
    def size(self) -> int:
        return len(self.elements)

    def add_classes(self, i: int, j: int) -> int:
        return self.add[i][j]

    def unit_class(self) -> int:
        """Class of the sum of all generators (the order unit)."""
        acc = self.identity
        for c in self.generator_classes:
            acc = self.add[acc][c]
        return acc

    def check_laws(self) -> None:
        n = self.size
        for i in range(n):
            if self.add[self.identity][i] != i or self.add[i][self.identity] != i:
                raise AssertionError("identity law fails")
        for i in range(n):
            for j in range(n):
                if self.add[i][j] != self.add[j][i]:
                    raise AssertionError("commutativity fails")
        for i in range(n):
            for j in range(n):
                ij = self.add[i][j]
                for k in range(n):
                    if self.add[ij][k] != self.add[i][self.add[j][k]]:
                        raise AssertionError("associativity fails")

    def to_json_dict(self) -> dict:
        return {
            "generators": list(self.generators),
            "elements": [list(e) for e in self.elements],
            "addition": [list(r) for r in self.add],
            "identity": self.identity,
            "generator_classes": list(self.generator_classes),
        }


def graph_monoid_presentation(
    g: Graph, *, weighted: bool = False, sink_zero: bool = False
) -> MonoidPresentation:
    """Presentation on the vertices with one relation per non-sink vertex v:
    w(v) copies of v equal the sum of the targets of v's edges.

    Unweighted means w is constantly 1; weighted uses the declared weights or
    the vertex weighting (outdegree) when none were declared.  ``sink_zero``
    deletes the unique sink generator and erases it from right-hand sides,
    which requires the graph to be a sandpile graph.
    """
    if sink_zero:
        rep = structure_report(g)
        if not rep.sandpile:
            raise ParseError("sink elimination requires a unique sink reachable from every vertex")
        gens = g.nonsink_vertices
    else:
        gens = g.vertices
    pos = {v: i for i, v in enumerate(gens)}
    relations = []
    for v in g.vertices:
        if g.is_sink(v):
            continue
        w = g.vertex_weight(v) if weighted else 1
        lhs = [0] * len(gens)
        lhs[pos[v]] = w
        rhs = [0] * len(gens)
        for dst, mult in g.out_adj[v]:
            if dst in pos:
                rhs[pos[dst]] += mult
        if tuple(lhs) != tuple(rhs):
            relations.append((tuple(lhs), tuple(rhs)))
    return MonoidPresentation(tuple(gens), tuple(relations))


def order_unit(p: MonoidPresentation) -> Vector:
    """Sum of all vertex generators."""
    return (1,) * len(p.generators)


def _one_step(w: Vector, relations) -> list[Vector]:
    out = []
    for lhs, rhs in relations:
        if all(a >= b for a, b in zip(w, lhs)):
            out.append(tuple(a - b + c for a, b, c in zip(w, lhs, rhs)))
        if all(a >= b for a, b in zip(w, rhs)):
            out.append(tuple(a - b + c for a, b, c in zip(w, rhs, lhs)))
    return out


def _lattice_contains(rows: Sequence[Vector], v: Sequence[int]) -> bool:
    """Whether v is an integer combination of ``rows``.

    The rows are brought to echelon form by integer row operations (the
    smallest entry of each column divides the others out, Euclid-style),
    then v is reduced against the pivots, which leave the columns before
    theirs alone: v lies in the lattice exactly when nothing is left over."""
    rows = [list(r) for r in rows]
    echelon: list[tuple[int, list[int]]] = []
    for col in range(len(v)):
        active = [r for r in rows if r[col]]
        rows = [r for r in rows if not r[col]]
        while len(active) > 1:
            active.sort(key=lambda r: abs(r[col]))
            pivot = active[0]
            kept = [pivot]
            for r in active[1:]:
                q = r[col] // pivot[col]
                r = [a - q * b for a, b in zip(r, pivot)]
                (kept if r[col] else rows).append(r)
            active = kept
        if active:
            echelon.append((col, active[0]))
    v = list(v)
    for col, r in echelon:
        q = v[col] // r[col]
        v = [a - q * b for a, b in zip(v, r)]
    return not any(v)


def congruent_difference_possible(p: MonoidPresentation, x: Vector, y: Vector) -> bool:
    """Necessary condition for x ~ y: every rewrite step changes the vector
    by some +-(lhs - rhs), so congruent vectors lie in the same coset of the
    relation-difference lattice.  A coset mismatch is a sound certificate of
    inequality."""
    if x == y:
        return True
    diffs = [tuple(a - b for a, b in zip(lhs, rhs)) for lhs, rhs in p.relations]
    return _lattice_contains(diffs, [a - b for a, b in zip(x, y)])


def words_equal(
    p: MonoidPresentation,
    x: Sequence[int],
    y: Sequence[int],
    depth: int = DEFAULT_BOUNDS.search_depth,
    *,
    node_budget: int = DEFAULT_BOUNDS.node_budget,
) -> WordEquality:
    """Bidirectional breadth-first search over one-step rewrites.

    Returns yes (with a replayable rewrite path) when the classes connect
    within the depth bound.  Returns no on either of two certificates: the
    difference x - y lies outside the relation-difference lattice, or one
    side's entire congruence class was enumerated without reaching the
    other element.  Anything else is unknown.
    """
    x = p.validate_element(x)
    y = p.validate_element(y)
    if x == y:
        return WordEquality(YES, (x,))
    if not congruent_difference_possible(p, x, y):
        return WordEquality(NO)
    relations = p.relations
    parents: tuple[dict[Vector, Vector | None], dict[Vector, Vector | None]] = (
        {x: None},
        {y: None},
    )
    frontiers: list[list[Vector]] = [[x], [y]]
    steps = [0, 0]
    exhausted = [False, False]
    nodes = 2

    def build_path(meet: Vector) -> tuple[Vector, ...]:
        # Chain from x to meet, then meet to y; the meet vector exists in
        # both parent maps once the frontiers touch.
        left: list[Vector] = []
        v: Vector | None = meet
        while v is not None:
            left.append(v)
            v = parents[0][v]
        left.reverse()
        right: list[Vector] = []
        v = parents[1][meet]
        while v is not None:
            right.append(v)
            v = parents[1][v]
        return tuple(left + right)

    while True:
        expandable = [
            s for s in (0, 1) if not exhausted[s] and steps[s] < depth and frontiers[s]
        ]
        if not expandable:
            if exhausted[0] or exhausted[1]:
                return WordEquality(NO)
            return WordEquality(UNKNOWN)
        side = min(expandable, key=lambda s: len(frontiers[s]))
        own, other = parents[side], parents[1 - side]
        new_frontier: list[Vector] = []
        for w in frontiers[side]:
            for w2 in _one_step(w, relations):
                if w2 in own:
                    continue
                own[w2] = w
                if w2 in other:
                    return WordEquality(YES, build_path(w2))
                new_frontier.append(w2)
                nodes += 1
                if nodes > node_budget:
                    return WordEquality(UNKNOWN)
        frontiers[side] = new_frontier
        steps[side] += 1
        if not new_frontier:
            exhausted[side] = True


class _OutOfBudget(Exception):
    pass


def _grevlex_key(v: Vector) -> tuple:
    """Sort key of the graded reverse lexicographic order: the higher degree
    is larger, and at equal degree so is the smaller last differing entry."""
    return sum(v), tuple(-x for x in reversed(v))


def _rule(lead: Vector, tail: Vector) -> tuple:
    """Rewriting rule lead -> tail with the lead's support and the sparse
    difference tail - lead precomputed for ``_normal_form``."""
    support = tuple((i, c) for i, c in enumerate(lead) if c)
    delta = tuple((i, t - l) for i, (l, t) in enumerate(zip(lead, tail)) if t != l)
    return lead, tail, support, delta


def _normal_form(v: Vector, rules, budget: list[int] | None = None) -> Vector:
    """Rewrite v until no rule's lead embeds in it, each rule as often as it
    fits at once.  When ``budget`` is given, every rule examined costs one
    unit of ``budget[0]``."""
    w = list(v)
    changed = True
    while changed:
        if budget is not None:
            budget[0] -= len(rules)
            if budget[0] < 0:
                raise _OutOfBudget
        changed = False
        for _, _, support, delta in rules:
            q = min([w[i] // c for i, c in support])
            if q:
                for i, d in delta:
                    w[i] += q * d
                changed = True
    return tuple(w)


def _groebner_rules(p: MonoidPresentation, node_budget: int) -> list[tuple] | None:
    """Binomial Gröbner completion of the relations in the graded reverse
    lexicographic order, as rewriting rules, or None when the budget runs out.

    Pairs are taken lowest lcm degree first and skipped when their leads are
    coprime; a new rule sends every rule whose lead it divides back to the
    queue of equations.  Every rule examined during a reduction and every
    pair formed costs one unit of ``node_budget``."""
    budget = [node_budget]
    rules: dict[int, tuple] = {}
    equations = deque(p.relations)
    pairs: list[tuple[int, int, int]] = []  # (lcm degree, newer rule id, older rule id)
    next_id = 0
    try:
        while equations or pairs:
            if equations:
                a, b = equations.popleft()
            else:
                _, i, j = heapq.heappop(pairs)
                if i not in rules or j not in rules:
                    continue
                (l1, t1, _, _), (l2, t2, _, _) = rules[i], rules[j]
                lcm = tuple(map(max, l1, l2))
                a = tuple(m - x + y for m, x, y in zip(lcm, l1, t1))
                b = tuple(m - x + y for m, x, y in zip(lcm, l2, t2))
            a = _normal_form(a, rules.values(), budget)
            b = _normal_form(b, rules.values(), budget)
            if a == b:
                continue
            lead, tail = (a, b) if _grevlex_key(a) > _grevlex_key(b) else (b, a)
            for rid, (l, t, _, _) in list(rules.items()):
                if all(x >= y for x, y in zip(l, lead)):
                    del rules[rid]
                    equations.append((l, t))
            for rid, (l, _, _, _) in rules.items():
                if any(x and y for x, y in zip(l, lead)):
                    budget[0] -= 1
                    heapq.heappush(pairs, (sum(map(max, l, lead)), next_id, rid))
            if budget[0] < 0:
                return None
            rules[next_id] = _rule(lead, tail)
            next_id += 1
    except _OutOfBudget:
        return None
    return list(rules.values())


def enumerate_monoid(
    p: MonoidPresentation,
    max_elements: int = DEFAULT_BOUNDS.max_elements,
    *,
    node_budget: int = DEFAULT_BOUNDS.node_budget,
) -> MonoidTable | None:
    """Breadth-first generation from 0 by adding generators, classifying
    each vector by its Gröbner normal form.

    Returns None (unknown) when the completion runs out of ``node_budget``,
    when some generator has no pure-power leading term (the monoid is then
    infinite), or when more than ``max_elements`` classes appear.
    """
    k = len(p.generators)
    rules = _groebner_rules(p, node_budget)
    if rules is None:
        return None
    # Finite exactly when every generator has a pure-power leading term.
    if len({support[0][0] for _, _, support, _ in rules if len(support) == 1}) < k:
        return None
    zero: Vector = (0,) * k
    # Walks go from the first vector discovered in a class (anchors); the
    # published element label is the lexicographically least vector seen in
    # the class.
    anchors: list[Vector] = [zero]
    labels: list[Vector] = [zero]
    normal_forms: list[Vector] = [zero]
    # parents[c] is the (class, generator) step that first produced class c.
    parents: list[tuple[int, int] | None] = [None]
    nf2class: dict[Vector, int] = {zero: 0}

    # Classes enter `pending` once, in index order, so gen_add rows line up
    # with class indices.  gen_add[c][i] is the class of rep(c) + generator
    # i; the table follows from this generator action since class addition
    # is well-defined on the congruence quotient.
    gen_add: list[list[int]] = []
    pending = deque([0])
    while pending:
        ci = pending.popleft()
        base, base_nf = anchors[ci], normal_forms[ci]
        row = []
        for gi in range(k):
            y = base[:gi] + (base[gi] + 1,) + base[gi + 1:]
            nf = _normal_form(base_nf[:gi] + (base_nf[gi] + 1,) + base_nf[gi + 1:], rules)
            cls = nf2class.get(nf)
            if cls is None:
                cls = len(anchors)
                if cls >= max_elements:
                    return None
                anchors.append(y)
                labels.append(y)
                normal_forms.append(nf)
                parents.append((ci, gi))
                nf2class[nf] = cls
                pending.append(cls)
            elif y < labels[cls]:
                labels[cls] = y
            row.append(cls)
        gen_add.append(row)

    return MonoidTable.from_generator_action(p.generators, labels, gen_add, 0, parents)


def replay_path(p: MonoidPresentation, path: Sequence[Vector]) -> bool:
    """Check that consecutive path entries differ by one relation application."""
    diffs = set()
    for lhs, rhs in p.relations:
        d = tuple(a - b for a, b in zip(rhs, lhs))
        diffs.add(d)
        diffs.add(tuple(-x for x in d))
    for a, b in zip(path, path[1:]):
        step = tuple(y - x for x, y in zip(a, b))
        if step not in diffs:
            return False
        # The replaced side must actually be embedded in the source vector.
        ok = False
        for lhs, rhs in p.relations:
            if step == tuple(r - l for l, r in zip(lhs, rhs)) and all(
                x >= l for x, l in zip(a, lhs)
            ):
                ok = True
            if step == tuple(l - r for l, r in zip(lhs, rhs)) and all(
                x >= r for x, r in zip(a, rhs)
            ):
                ok = True
        if not ok:
            return False
    return True


def _format_side(p: MonoidPresentation, vec: Vector) -> str:
    terms = []
    for coeff, name in zip(vec, p.generators):
        if coeff == 0:
            continue
        terms.append(name if coeff == 1 else f"{coeff}{name}")
    return "+".join(terms) if terms else "0"


def parse_element(p: MonoidPresentation, text: str) -> Vector:
    """Parse a term like ``2a+b`` (or ``0``) over the presentation's generators."""
    text = text.strip()
    vec = [0] * len(p.generators)
    if text == "0":
        return tuple(vec)
    pos = {name: i for i, name in enumerate(p.generators)}
    for term in text.split("+"):
        term = term.strip()
        if not term:
            raise ParseError(f"empty term in {text!r}")
        digits = ""
        while term and term[0].isdigit():
            digits += term[0]
            term = term[1:]
        coeff = int(digits) if digits else 1
        if term not in pos:
            raise ParseError(f"unknown generator {term!r}")
        vec[pos[term]] += coeff
    return tuple(vec)


def serialize_presentation(p: MonoidPresentation) -> str:
    lines = ["gens: " + " ".join(p.generators)]
    for lhs, rhs in p.relations:
        lines.append(f"{_format_side(p, lhs)} = {_format_side(p, rhs)}")
    return "\n".join(lines) + "\n"


def parse_presentation(text: str) -> MonoidPresentation:
    gens: tuple[str, ...] | None = None
    relations: list[tuple[Vector, Vector]] = []
    stub: MonoidPresentation | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if gens is None:
            if not line.startswith("gens:"):
                raise ParseError("first record must be 'gens: <names>'", line=lineno)
            gens = tuple(line[len("gens:"):].split())
            if not gens:
                raise ParseError("no generators declared", line=lineno)
            stub = MonoidPresentation(gens, ())
            continue
        if "=" not in line:
            raise ParseError("relation line must contain '='", line=lineno)
        left, right = line.split("=", 1)
        try:
            lhs = parse_element(stub, left)
            rhs = parse_element(stub, right)
        except ParseError as err:
            raise ParseError(str(err), line=lineno) from None
        relations.append((lhs, rhs))
    if gens is None:
        raise ParseError("presentation file is empty")
    return MonoidPresentation(gens, tuple(relations))


def find_unit_isomorphism(
    p1: MonoidPresentation,
    t1: MonoidTable,
    t2: MonoidTable,
    *,
    require_unit: bool = True,
) -> tuple[int, ...] | None:
    """Exhaustive search for a monoid isomorphism t1 -> t2 determined by
    generator images, optionally required to match the order units.

    A tuple of images defines a well-defined homomorphism exactly when the
    presentation relations of t1 hold among the images; additivity is then
    automatic because every element carries its expression over the
    generators as its representative vector.  Returns the generator image
    tuple or None when no isomorphism exists.
    """
    if t1.size != t2.size:
        return None
    k = len(t1.generator_classes)

    def sum_of(images: Sequence[int], vec: Vector) -> int:
        acc = t2.identity
        for coeff, img in zip(vec, images):
            for _ in range(coeff):
                acc = t2.add[acc][img]
        return acc

    unit1 = t1.unit_class()
    unit2 = t2.unit_class()
    # Relations become checkable as soon as every generator they mention has
    # an image; grouping them by that point prunes the search early.
    checkpoint: list[list[tuple[Vector, Vector]]] = [[] for _ in range(k + 1)]
    for lhs, rhs in p1.relations:
        support = [i for i in range(k) if lhs[i] or rhs[i]]
        level = (max(support) + 1) if support else 0
        checkpoint[level].append((lhs, rhs))

    def extend(images: list[int]) -> tuple[int, ...] | None:
        level = len(images)
        for lhs, rhs in checkpoint[level]:
            if sum_of(images, lhs[:level]) != sum_of(images, rhs[:level]):
                return None
        if level == k:
            mapped = [sum_of(images, rep) for rep in t1.elements]
            if len(set(mapped)) != t1.size:
                return None
            if require_unit and mapped[unit1] != unit2:
                return None
            return tuple(images)
        for img in range(t2.size):
            found = extend(images + [img])
            if found is not None:
                return found
        return None

    return extend([])
