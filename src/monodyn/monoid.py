"""Finitely presented commutative monoids.

Elements of the free commutative monoid on n generators are length-n vectors
of nonnegative integers.  A presentation is a list of relation pairs
(lhs, rhs); the congruence it generates connects two vectors when one can be
turned into the other by repeatedly replacing an embedded lhs by the matching
rhs or vice versa, additively in context.

Word equality is decided by normal forms.  The congruence is
membership in the pure-difference binomial ideal of the relations, and a
Gröbner basis of that ideal, read as rewriting rules lead -> tail, sends
every vector to the one normal form of its class (Eisenbud-Sturmfels,
"Binomial ideals", 1996).  Relations that orient into coprime leads under
one term order already are one; others are completed in the graded reverse
lexicographic order, bounded by the node budget.  Word equality is
tri-state: "yes" carries a rewrite path that replays in relation steps, "no"
means different normal forms (or, out of budget, a coset mismatch), and
"unknown" only that the node budget ran out, in the completion, the
rewriting or the path.  Every charge to the budget goes through ``_spend``,
which raises ``errors.Stopped`` by ``node_budget`` once the charges pass
it; the two entry points, ``words_equal`` and ``_enumerate_monoid``, catch
it.  The monoid is finite exactly when every generator has a pure power
among the leading terms.

Enumeration calls ``_normal_form`` only for a basis with a mixed lead, one
of two or more generators.  The classes are the standard monomials, the
vectors no lead divides, so when the leads are exactly one pure power c_g g
per generator they are the box of vectors with v_g < c_g.  ``_box_action``
builds the generator action on that box for the presentation and for the
sandpile monoid, whose stable configurations are the same box (c_g the
outdegree): an index step below each threshold, and at a threshold the
neighbour rule v + e_h = (v - e_g + e_h) + e_g, g another nonzero digit of
v, which fills each threshold block after the first of a column in one pass
through a finished column.  Only the k vectors (c_h - 1) e_h fold the
rule's tail through the table being built.  Every entry waits only for
entries that stand for smaller vectors in the term order that orients the
basis, so the build ends; in a fold, a tail coefficient m costs at most
about min(m, table size) lookups, since a repeated threshold crossing skips
whole periods of the generator's orbit.

Presentation file format::

    gens: a b c
    2a+b = c        # one relation per line, terms <coeff><generator>
    a = 0
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from itertools import compress, repeat, takewhile
from operator import add, ge, itemgetter, sub
from typing import TYPE_CHECKING, Sequence

from .config import DEFAULT_BOUNDS
from .errors import Frozen, ParseError, ShapeError, Stopped, integer, records

if TYPE_CHECKING:
    from .graph import Graph

Vector = tuple[int, ...]

YES = "yes"
NO = "no"
UNKNOWN = "unknown"


class MonoidPresentation(Frozen):
    __slots__ = ("generators", "relations")

    def __init__(self, generators: tuple[str, ...], relations: tuple[tuple[Vector, Vector], ...]):
        n = len(generators)
        if len(set(generators)) != n:
            raise ParseError("duplicate generator names")
        for lhs, rhs in relations:
            if len(lhs) != n or len(rhs) != n:
                raise ShapeError("relation vector length does not match generator count")
            if lhs == rhs:
                raise ParseError("relation equates a vector with itself")
            if min(lhs + rhs) < 0:  # not empty: lhs != rhs
                raise ParseError("relation vectors must be nonnegative")
        super().__init__(generators, relations)

    def validate_element(self, vec: Sequence[int]) -> Vector:
        if len(vec) != len(self.generators):
            raise ShapeError(
                f"element length {len(vec)} does not match {len(self.generators)} generators"
            )
        if any(x < 0 for x in vec):
            raise ParseError("element coefficients must be nonnegative")
        return tuple(vec)


class WordEquality(Frozen):
    __slots__ = ("verdict", "path", "stopped")

    def __init__(
        self,
        verdict: str,  # "yes" | "no" | "unknown"
        path: tuple[Vector, ...] | None = None,
        stopped: Stopped | None = None,  # by "node_budget", exactly when unknown
    ):
        super().__init__(verdict, path, stopped)


class MonoidTable(Frozen):
    """Finite commutative monoid as an explicit Cayley table.

    ``elements`` are canonical representative vectors over ``generators``;
    ``add[i][j]`` is the index of the sum; ``generator_classes[k]`` is the
    index of the class of the k-th generator.
    """

    __slots__ = ("generators", "elements", "add", "identity", "generator_classes")

    @staticmethod
    def from_generator_action(
        generators: Sequence[str],
        elements: Sequence[Vector],
        action: Sequence[Sequence[int]],
        identity: int,
        parents: Sequence[tuple[int, int] | None],
    ) -> "MonoidTable":
        """Cayley table of a monoid generated by ``generators``, from the
        action of the generators alone.

        ``action[g][c]`` is the class of element c plus generator g (one
        column per generator), and ``parents[j] = (p, g)`` records that class
        j is class p plus generator g, with p < j; the identity's entry is
        None.  Then ``add[i][j] = action[g][add[i][p]]``, so each entry costs
        one lookup: column j is column p pushed through generator g's column.
        The monoid is commutative, so column j is row j as well.
        """
        n = len(elements)
        if len(action) != len(generators):
            raise ValueError("there must be one action column per generator")
        if len(parents) != n or any(len(col) != n for col in action):
            raise ValueError("elements, action columns and parents must have one entry per class")
        if any(col and (min(col) < 0 or max(col) >= n) for col in action):
            raise ValueError("action entries must be classes, in range(len(elements))")
        columns = dict(enumerate(action))  # unlike a list, no column for g = -1
        cols: list[tuple[int, ...]] = [()] * n
        cols[identity] = tuple(range(n))
        for j, link in enumerate(parents):
            if j == identity:
                if link is not None:
                    raise ValueError("the identity class has no parent")
                continue
            if link is None or not 0 <= link[0] < j:
                raise ValueError(f"parent of class {j} must be a class below it")
            p, g = link
            try:
                cols[j] = itemgetter(*cols[p])(columns[g])  # n >= 2 items, so a tuple
            except KeyError:
                raise ValueError(f"parent of class {j} must name one of the generators") from None
        return MonoidTable(
            tuple(generators),
            tuple(elements),
            tuple(cols),
            identity,
            tuple(col[identity] for col in action),
        )

    @property
    def size(self) -> int:
        return len(self.elements)

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
        if g.sandpile_sink is None:
            raise ParseError("sink elimination requires a unique sink reachable from every vertex")
        gens = g.nonsink_vertices
    else:
        gens = g.vertices
    pos = {v: i for i, v in enumerate(gens)}
    relations = []
    for v in g.nonsink_vertices:
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


def congruent_difference_possible(p: MonoidPresentation, x: Vector, y: Vector) -> bool:
    """Necessary condition for x ~ y: every rewrite step changes the vector
    by some +-(lhs - rhs), so congruent vectors lie in the same coset of the
    relation-difference lattice.  A coset mismatch is a sound certificate of
    inequality."""
    if x == y:
        return True
    from .smith import lattice_contains

    diffs = [tuple(a - b for a, b in zip(lhs, rhs)) for lhs, rhs in p.relations]
    return lattice_contains(diffs, [a - b for a, b in zip(x, y)])


def _spend(budget: list, units: int) -> None:
    """Charge ``units`` to a budget ``[spent, limit]``, or ``[spent, limit,
    bounds]``, and raise ``Stopped`` by ``node_budget``, listing the bounds,
    once ``spent`` passes ``limit``."""
    budget[0] += units
    if budget[0] > budget[1]:
        raise Stopped("node_budget", budget[1], budget[0], *budget[2:])


def words_equal(
    p: MonoidPresentation,
    x: Sequence[int],
    y: Sequence[int],
    *,
    node_budget: int = DEFAULT_BOUNDS.node_budget,
) -> WordEquality:
    """Decide x ~ y by normal forms under ``_rewriting_rules``.

    Equal normal forms give yes with the loop-erased path x -> nf(x) = nf(y)
    <- y in single relation steps, checked by ``replay_path``; different ones
    give a certified no.  The completion, the rewriting and the path all
    spend ``node_budget``: every rule examined and every path step costs one
    unit, and a completed rule's own path is walked, and paid for, only when
    the yes-path follows the rule.  When it runs out, a coset mismatch still
    certifies no; otherwise the verdict is unknown, stopped by the budget.
    """
    x = p.validate_element(x)
    y = p.validate_element(y)
    if x == y:
        return WordEquality(YES, (x,))
    budget = [0, node_budget]
    try:
        rules = _rewriting_rules(p, budget)
        # Rewrite what x and y do not share first, so the loop erasure cuts
        # the rest; a monoid need not cancel, so if that fails, rewrite all
        # of both.
        for shared in dict.fromkeys((tuple(map(min, x, y)), (0,) * len(x))):
            x_steps, y_steps = [], []
            x_nf = _normal_form(tuple(map(sub, x, shared)), rules, budget, x_steps)
            y_nf = _normal_form(tuple(map(sub, y, shared)), rules, budget, y_steps)
            if x_nf == y_nf:
                back = [(pth, -q) for pth, q in reversed(y_steps)]
                path = _walk(x, x_steps + back, budget)
                if path[-1] != y or not replay_path(p, path):
                    raise AssertionError("rewrite path does not replay from x to y")
                return WordEquality(YES, tuple(path))
        return WordEquality(NO)
    except Stopped as spent:
        if not congruent_difference_possible(p, x, y):
            return WordEquality(NO)
        return WordEquality(UNKNOWN, stopped=spent.with_traceback(None))


def _grevlex_above(a: Vector, b: Vector) -> bool:
    """Whether a > b in the graded reverse lexicographic order: the higher
    degree is larger, and at equal degree so is the smaller last differing
    entry.  Vectors of one length only."""
    da, db = sum(a), sum(b)
    return da > db if da != db else a[::-1] < b[::-1]


def _rule(lead: Vector, tail: Vector, path) -> tuple:
    """Rewriting rule lead -> tail with the lead's support and the sparse
    difference tail - lead precomputed for ``_normal_form``, and a path from
    lead to tail in single relation steps."""
    support = tuple((i, c) for i, c in enumerate(lead) if c)
    delta = tuple((i, t - l) for i, (l, t) in enumerate(zip(lead, tail)) if t != l)
    return lead, tail, support, delta, path


def _normal_form(v: Vector, rules, budget: list | None = None, steps: list | None = None) -> Vector:
    """Rewrite v until no rule's lead embeds in it, each rule as often as it
    fits at once, appending (the rule's path, q) to ``steps`` for q copies.
    With ``budget``, every rule examined costs one unit of it."""
    w = list(v)
    changed = True
    while changed:
        if budget is not None:
            _spend(budget, len(rules))
        changed = False
        for _, _, support, delta, path in rules:
            i, c = support[0]
            if w[i] < c:
                continue
            q = min([w[i] // c for i, c in support])
            if q:
                for i, d in delta:
                    w[i] += q * d
                changed = True
                if steps is not None:
                    steps.append((path, q))
    return tuple(w)


class _Recipe:
    """The path of a completed rule, kept as the walk that makes it: from
    ``start`` along ``steps``, reversed when ``flip``.  ``_walk`` takes that
    walk into ``path`` the first time a walk follows the rule."""

    __slots__ = ("start", "steps", "flip", "path")

    def __init__(self, start: Vector, steps: list, flip: bool):
        self.start, self.steps, self.flip = start, steps, flip
        self.path: tuple[Vector, ...] | None = None


def _walk(v: Vector, steps: list, budget: list) -> list[Vector]:
    """The loop-erased walk from v that follows each (path, q) of ``steps``
    |q| times, backwards when q < 0, shifted to where it is applied.  Its
    steps, counted before the loop erasure, are paid for from ``budget``.  A
    path is a tuple of vectors or a ``_Recipe``; the recipes not yet walked
    are walked first, each after those it follows, and their steps are paid
    for then."""
    pending = [path for path, _ in steps if path.__class__ is _Recipe]
    while pending:
        recipe = pending[-1]
        if recipe.path is not None:
            pending.pop()
            continue
        inner = [pth for pth, _ in recipe.steps if pth.__class__ is _Recipe and pth.path is None]
        if inner:
            pending += inner
            continue
        pending.pop()
        walk = _follow(recipe.start, recipe.steps, budget)
        recipe.path = tuple(reversed(walk) if recipe.flip else walk)
    return _follow(v, steps, budget)


def _follow(v: Vector, steps: list, budget: list) -> list[Vector]:
    """``_walk`` once every recipe that ``steps`` follow has been walked."""
    steps = [(path.path if path.__class__ is _Recipe else path, q) for path, q in steps]
    _spend(budget, sum(abs(q) * (len(path) - 1) for path, q in steps))
    walk, index = [v], {v: 0}  # index may keep vectors cut from the walk
    for path, q in steps:
        if q < 0:
            path, q = path[::-1], -q
        shifts = [tuple(map(sub, u, path[0])) for u in path[1:]]
        for _ in range(q):
            w = walk[-1]
            for s in shifts:
                u = tuple(map(add, w, s))
                i = index.get(u, len(walk))
                if i < len(walk) and walk[i] == u:
                    del walk[i + 1:]
                else:
                    index[u] = len(walk)
                    walk.append(u)
    return walk


def _rewriting_rules(p: MonoidPresentation, budget: list) -> list[tuple]:
    """Rules ``_rule(lead, tail, path)`` whose normal forms decide the
    congruence.  The completion walks no rule's path: it keeps the recipe of
    each, for ``_walk``.

    Say every relation has a single-generator side, its head (the left one
    when both are), and no generator heads two relations.  If the digraph
    from each head to the generators of its tail (the other side) is
    acyclic, each lead exceeds its tail lexicographically when heads come
    before their tails' generators; if instead each lead is the larger side
    in grevlex, it exceeds its tail in that order.  Either way the leads are
    powers of distinct generators under one term order: coprime, so already
    a Gröbner basis (Buchberger's first criterion), and no completion runs.
    Acyclic rules come in topological order, so one ``_normal_form`` pass
    rewrites.  Otherwise ``_groebner_rules`` completes the relations."""
    n = len(p.generators)
    heads: dict[int, tuple[Vector, Vector]] = {}
    uses: dict[int, list[int]] = {}  # the generators of each head's tail
    for lhs, rhs in p.relations:
        lead, tail = (lhs, rhs) if lhs.count(0) == n - 1 else (rhs, lhs)
        if lead.count(0) != n - 1:
            return _groebner_rules(p, budget)
        head = next(compress(range(n), lead))
        if head in heads:
            return _groebner_rules(p, budget)
        heads[head] = lead, tail
        uses[head] = list(compress(range(n), tail))
    # Kahn's algorithm: waiting[h] counts the tails of heads that hold h.
    waiting = dict.fromkeys(heads, 0)
    for h in heads:
        for g in uses[h]:
            if g in waiting:
                waiting[g] += 1
    order = [h for h, k in waiting.items() if k == 0]
    for h in order:  # ``order`` grows as it runs
        for g in uses[h]:
            if g in waiting:
                waiting[g] -= 1
                if waiting[g] == 0:
                    order.append(g)
    if len(order) < len(heads):  # a cycle; grevlex may still orient every relation
        for lead, tail in heads.values():
            if not _grevlex_above(lead, tail):
                return _groebner_rules(p, budget)
        order = list(heads)
    rules = []
    for h in order:  # as ``_rule`` builds them, but from the sparse tail
        lead, tail = heads[h]
        delta = ((h, -lead[h]), *[(g, tail[g]) for g in uses[h]])  # h may come twice
        rules.append((lead, tail, ((h, lead[h]),), delta, (lead, tail)))
    return rules


def _groebner_rules(p: MonoidPresentation, budget: list) -> list[tuple]:
    """Binomial Gröbner completion of the relations in the graded reverse
    lexicographic order, as rewriting rules.

    Pairs are taken lowest lcm degree first and skipped when their leads are
    coprime; a new rule sends every rule whose lead it divides back to the
    queue of equations.  Every rule examined during a reduction and every
    pair formed costs one unit of ``budget``.  Each equation a = b carries
    steps from a to b (a relation, the S-pair a <- lcm -> b, or the path of
    a rule sent back); with both reductions they give the new rule's path as
    a ``_Recipe``.  The completion never walks a
    recipe: a rule's path can take far more steps than the budget allows
    (10^12 a = b with b = a gives the rule 10^12 b -> b), and only a
    yes-path that follows the rule needs it."""
    rules: dict[int, tuple] = {}
    equations = deque((lhs, rhs, [((lhs, rhs), 1)]) for lhs, rhs in p.relations)
    pairs: list[tuple[int, int, int]] = []  # (lcm degree, newer rule id, older rule id)
    next_id = 0
    while equations or pairs:
        if equations:
            a, b, steps = equations.popleft()
        else:
            _, i, j = heapq.heappop(pairs)
            if i not in rules or j not in rules:
                continue
            (l1, t1, _, _, p1), (l2, t2, _, _, p2) = rules[i], rules[j]
            lcm = tuple(map(max, l1, l2))
            a = tuple(m - x + y for m, x, y in zip(lcm, l1, t1))
            b = tuple(m - x + y for m, x, y in zip(lcm, l2, t2))
            steps = [(p1, -1), (p2, 1)]
        a_steps, b_steps = [], []
        a = _normal_form(a, rules.values(), budget, a_steps)
        b = _normal_form(b, rules.values(), budget, b_steps)
        if a == b:
            continue
        lead, tail = (a, b) if _grevlex_above(a, b) else (b, a)
        back = [(pth, -q) for pth, q in reversed(a_steps)]
        path = _Recipe(a, back + steps + b_steps, lead != a)
        for rid, (l, t, _, _, pth) in list(rules.items()):
            if all(x >= y for x, y in zip(l, lead)):
                del rules[rid]
                equations.append((l, t, [(pth, 1)]))
        formed = len(pairs)
        for rid, (l, _, _, _, _) in rules.items():
            if any(x and y for x, y in zip(l, lead)):
                heapq.heappush(pairs, (sum(map(max, l, lead)), next_id, rid))
        _spend(budget, len(pairs) - formed)
        rules[next_id] = _rule(lead, tail, path)
        next_id += 1
    return list(rules.values())


def _box_action(
    radix: Sequence[int], tails: Sequence[Sequence[tuple[int, int]]]
) -> tuple[list[list[int]], list[tuple[int, int] | None]]:
    """Generator action and parents of the monoid whose elements are the box
    of vectors v with 0 <= v_g < c_g = radix[g], listed in lexicographic
    (mixed-radix) order, where c_g copies of generator g rewrite to the sum
    of ``tails[g]``, (generator, multiplicity) pairs.

    These are the standard monomials of a basis whose leads are exactly one
    pure power c_g g per generator: the sandpile monoid's stable
    configurations (c_g the outdegree) and any such Gröbner basis.  Column g
    of the action is index + s_g, s_g = stride[g], the index of the vector
    one copy of g higher, except on g's threshold, where v_g = c_g - 1.  The
    parent of a nonzero vector lowers its last nonzero entry by one.

    The threshold entries of h come in blocks of s_h consecutive indices,
    one for each value of the digits before h.  They are marked missing
    (``None``) by one slice assignment per block, or, when h has fewer
    offsets s_h than blocks, by one extended slice per offset, every
    c_h s_h-th index: the last generator's take one assignment, not one
    per block.  The columns are finished in order h = 0, 1, ...  For any
    digit g != h with v_g > 0, v + e_h = (v - e_g + e_h) + e_g, so the
    entry is ``action[g][a]``, a the entry s_g below it: the neighbour
    rule.  In a block after the first, g is the last nonzero digit before
    h, the same for the whole block, and the block is the block s_g below
    it pushed through the finished column g, one pass.  In the first block,
    and on the stack below, g is the last nonzero digit other than h, and
    each entry takes the two lookups.  Only (c_h - 1) e_h has no such g: it
    folds the tail into 0 by index steps and lookups ``action[t][y]`` into
    the table being built.

    A lookup that is still missing is another threshold entry.  It is
    pushed on an explicit stack and resolved first by the same rules, and
    the entry below resumes, a fold where it stopped.  The stack never meets
    an entry in progress.  One term order puts every lead above its tail:
    the basis's own order, or on a sandpile graph the weights x = L^-1 1 > 0
    refined by lex, since L x = 1 > 0 for the reduced Laplacian L = D - A, a
    nonsingular M-matrix, says that d_k x_k outweighs the tail.  An entry
    (h, x) stands for the vector v + e_h it resolves, and each entry it
    waits for stands for a strictly smaller one.  Under the neighbour rule,
    (h, x - s_g) stands for v - e_g + e_h, and (g, a) for
    nf(v - e_g + e_h) + e_g, which is smaller because v - e_g + e_h is not a
    standard monomial and its rewrite lowers it.  In a fold, the rewrite
    lowers v + e_h, every lookup and every skipped period lowers it further
    (counting the chips set aside for later), and a term order has
    u <= u + w.  So no entry repeats on the stack.

    A tail multiplicity m does not cost m lookups in a fold: the room below
    t's threshold is added by one index step, and each crossing of the
    threshold, one lookup, is recorded; when one repeats, the chips since
    then are a whole period of t's orbit and are dropped.  So adding m
    copies takes at most min(m, size / c_t) + 1 lookups, in each of the k
    folds.  Of the sum over h of size / c_h threshold entries, only the
    sum over h of s_h in first blocks are resolved one by one.
    """
    k = len(radix)
    size = math.prod(radix)
    stride = [math.prod(radix[g + 1:]) for g in range(k)]
    tops = [(r - 1) * s for r, s in zip(radix, stride)]
    action: list[list] = []
    parents: list[tuple[int, int] | None] = [None] * size
    for g, (r, s) in enumerate(zip(radix, stride)):
        block = r * s  # index ranges over which only v_g and later entries change
        col = list(range(s, size + s))
        blocks = size // block
        if s < blocks:  # g's threshold, v_g = r - 1: one slice per offset
            nones = [None] * blocks
            for b in range(block - s, block):
                col[b::block] = nones
        else:  # or one slice per block
            for b in range(block - s, size, block):
                col[b:b + s] = repeat(None, s)
        action.append(col)
        for j in range(1, r):
            parents[j * s::block] = zip(range((j - 1) * s, size, block), repeat(g))
    paused: dict[int, tuple] = {}  # the fold of (c_g - 1) e_g, by g, while it waits

    def resolve(h: int, x: int) -> int:
        """Entry x of column h, and every missing entry it waits for."""
        stack = [(h, x)]
        while stack:
            g, e = stack[-1]
            col = action[g]
            rest = e - tops[g]
            if rest:  # v + e_g = (v - e_f + e_g) + e_f, f the last other nonzero digit
                f = parents[rest][1]
                below = e - stride[f]
                a = col[below]
                if a is None:
                    stack.append((g, below))
                    continue
                y = action[f][a]
                if y is None:
                    stack.append((f, a))
                    continue
            else:  # v = (c_g - 1) e_g: fold the tail into 0
                y, pos, left, seen = paused.pop(g, (0, 0, None, None))
                tail = tails[g]
                while pos < len(tail):
                    t, m = tail[pos]
                    if left is None:
                        left, seen = m, None
                    st, rt = stride[t], radix[t]
                    while left > (room := rt - 1 - y // st % rt):
                        y += room * st  # now on t's threshold
                        left -= room
                        z = action[t][y]
                        if z is None:
                            break
                        if seen is None:
                            seen = {}
                        elif y in seen:  # a whole period of t's orbit
                            left %= seen[y] - left
                            if not left:
                                continue
                        seen[y] = left
                        y, left = z, left - 1
                    else:
                        y += left * st
                        pos, left = pos + 1, None
                        continue
                    paused[g] = y, pos, left, seen
                    stack.append((t, y))
                    break
                if pos < len(tail):  # waiting for (t, y)
                    continue
            col[e] = y
            stack.pop()
        return action[h][x]

    for h, (r, s, top) in enumerate(zip(radix, stride, tops)):
        col = action[h]
        if col[top] is None:
            resolve(h, top)
        for x in range(top + 1, top + s):  # the first block: no nonzero digit before h
            f = parents[x - top][1]
            a = col[x - stride[f]]
            y = action[f][a]
            col[x] = resolve(f, a) if y is None else y
        block = r * s
        if s == 1:
            for b in range(top + block, size, block):
                f = parents[b - top][1]
                col[b] = action[f][col[b - stride[f]]]
        else:
            for b in range(top + block, size, block):
                f = parents[b - top][1]
                below = b - stride[f]
                col[b:b + s] = itemgetter(*col[below:below + s])(action[f])
    return action, parents


class _NormalFormStep:
    """Column g of the generator action on normal forms, computed when read:
    ``self[v]`` is the normal form of v + e_g."""

    __slots__ = ("rules", "g")

    def __init__(self, rules: list[tuple], g: int):
        self.rules, self.g = rules, g

    def __getitem__(self, v: Vector) -> Vector:
        g = self.g
        return _normal_form(v[:g] + (v[g] + 1,) + v[g + 1:], self.rules)


class _Classes(dict):
    """Class numbers by normal form, where a form not met yet reads as None,
    as an unmet box index does in a list."""

    def __missing__(self, key: Vector) -> None:
        return None


def enumerate_monoid(
    p: MonoidPresentation,
    max_elements: int = DEFAULT_BOUNDS.max_elements,
    *,
    node_budget: int = DEFAULT_BOUNDS.node_budget,
) -> MonoidTable | None:
    """Breadth-first generation from 0 by adding generators, one class per
    Gröbner normal form.

    Returns None (unknown) when the completion runs out of ``node_budget``,
    when some generator has no pure-power leading term (the monoid is then
    infinite), or when more than ``max_elements`` classes appear;
    ``_enumerate_monoid`` raises the ``Stopped`` that names which of the
    three stopped it.
    """
    try:
        return _enumerate_monoid(p, max_elements, node_budget)
    except Stopped:
        return None


def _enumerate_monoid(p: MonoidPresentation, max_elements: int, node_budget: int) -> MonoidTable:
    """``enumerate_monoid``'s table, or ``Stopped`` by ``"node_budget"``,
    ``"infinite"`` or ``"max_elements"``, listing both bounds.

    Classes are numbered in the order a breadth-first search from 0 meets
    them, adding generators in order; a class's parent is the step that met
    it first, and its label the lexicographically least vector the search
    met in it.  When the leads are exactly one pure power c_g g per
    generator, the normal forms are the box of ``_box_action``: the search
    steps through its action and finds classes in a list indexed by box
    index.  A basis with a mixed lead has no box, and the same search
    steps by ``_normal_form`` and finds classes in a dict of normal forms,
    which reads None for a form not met yet, as the list does.  No rewrite path
    is walked, so ``node_budget`` pays only for the completion's reductions
    and pairs."""
    k = len(p.generators)
    held = {"max_elements": max_elements, "node_budget": node_budget}
    rules = _rewriting_rules(p, [0, node_budget, held])
    # Finite exactly when every generator has a pure-power leading term.
    powers = {
        support[0][0]: (lead, tail) for lead, tail, support, _, _ in rules if len(support) == 1
    }
    if len(powers) < k:
        raise Stopped("infinite", bounds=held)
    if len(powers) == len(rules):
        radix = [powers[g][0][g] for g in range(k)]
        tails = [[(t, m) for t, m in enumerate(powers[g][1]) if m] for g in range(k)]
        size = math.prod(radix)
        if size > max_elements:
            raise Stopped("max_elements", max_elements, size, held)
        steps: Sequence = _box_action(radix, tails)[0]
        keys: list = [0]  # the box index of each class
        class_of: list | dict = [None] * size
    else:
        size = max_elements
        steps = [_NormalFormStep(rules, g) for g in range(k)]
        keys = [(0,) * k]  # the normal form of each class
        class_of = _Classes()
    class_of[keys[0]] = 0
    # Vectors met by the search have entries summing to at most the class
    # count, so base-(size + 1) digits encode them, ordered as integers in
    # the lexicographic order of the vectors.
    units = [(size + 1) ** (k - 1 - g) for g in range(k)]
    anchors = [0]  # the first vector met in each class
    labels = [0]  # the least vector met in each class
    parents: list[tuple[int, int] | None] = [None]
    action: list[list[int]] = [[] for _ in range(k)]
    generators = list(zip(range(k), units, action, steps))
    for ci, key in enumerate(keys):  # ``keys`` grows as it runs
        base = anchors[ci]
        for gi, unit, col, step in generators:
            y = base + unit
            found = step[key]
            cls = class_of[found]
            if cls is None:
                cls = len(keys)
                if cls >= max_elements:
                    raise Stopped("max_elements", max_elements, cls + 1, held)
                keys.append(found)
                anchors.append(y)
                labels.append(y)
                parents.append((ci, gi))
                class_of[found] = cls
            elif y < labels[cls]:
                labels[cls] = y
            col.append(cls)
    digits = [[y // unit % (size + 1) for y in labels] for unit in units]
    elements = list(zip(*digits)) if k else [()]
    return MonoidTable.from_generator_action(p.generators, elements, action, 0, parents)


def replay_path(p: MonoidPresentation, path: Sequence[Vector]) -> bool:
    """Check that consecutive path entries differ by one relation application."""
    by_step: dict[Vector, list[tuple[Vector, Vector]]] = {}  # rhs - lhs -> relations
    for lhs, rhs in p.relations:
        by_step.setdefault(tuple(map(sub, rhs, lhs)), []).append((lhs, rhs))
    for a, b in zip(path, path[1:]):
        forward = by_step.get(tuple(map(sub, b, a)), ())
        backward = by_step.get(tuple(map(sub, a, b)), ())
        # The replaced side must actually be embedded in the source vector.
        if not (
            any(all(map(ge, a, lhs)) for lhs, _ in forward)
            or any(all(map(ge, a, rhs)) for _, rhs in backward)
        ):
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
        digits = "".join(takewhile(str.isdigit, term))
        name = term[len(digits):]
        coeff = integer(digits, f"bad coefficient in term {term!r}") if digits else 1
        if name not in pos:
            raise ParseError(f"unknown generator {name!r}")
        vec[pos[name]] += coeff
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
    for lineno, line in records(text):
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
) -> tuple[int, ...] | None:
    """Exhaustive search for a monoid isomorphism t1 -> t2 determined by
    generator images that matches the order units.

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
            if mapped[unit1] != unit2:
                return None
            return tuple(images)
        for img in range(t2.size):
            found = extend(images + [img])
            if found is not None:
                return found
        return None

    return extend([])
