"""One Nash blow-up step and the iterated resolution tree.

A blow-up of a cone C is the multiset of localizations of C + Hull(S) at
its vertices, where S collects the sums of d linearly independent Hilbert
basis elements. S is never enumerated in the blow-up: for u in the dual
cone, min u . x over S is the weight of a minimum-weight basis of the
linear matroid on the Hilbert basis, which the greedy algorithm finds
(Edmonds 1971), and that oracle builds C + Hull(S) by cutting planes
(as in Emiris-Fisikopoulos-Konaxis-Penaranda, arXiv:1108.5985). One
loop keeps one incremental double description of the homogenization
cone: each round reads its inequalities and cuts it by the violators,
and the polyhedron is read off it once, when nothing is violated; the
localizations come off its incidence. ``sum_set`` still lists S
explicitly and serves as the reference.

The tree expands non-smooth cones recursively, with optional pruning of
small-index simplicial cones and memoization keyed by canonical form.
Each node holds one :class:`MemoEntry`, its subtree's statistics: a leaf
builds its own, a memoized node holds the memo's object, and an expanded
node builds one from its children's entries, the object the memo keeps
and the cache writes. Output reads a node's I and I* off its cone. Each
tree keeps the class registry of :func:`cones.canonical_key`, so a cone
whose class the tree has already keyed stops its key search at the first
image that sorts to the class's minimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, islice

from . import intlinalg as la
from .cones import (
    Cone,
    _HullDD,
    canonical_key,
    dual_index,
    index,
    is_smooth,
    localize,
)
from .errors import BudgetExceeded
from .hilbert import HilbertBasis, hilbert_basis

SMOOTH = "smooth"
EXPANDED = "expanded"
PRUNED_KNOWN = "pruned-known"
PRUNED_DEPTH = "pruned-depth"
MEMOIZED = "memoized"


def sum_set(h):
    """Sums of d linearly independent basis elements, as a set.

    Each independent d-subset is met once: its first d - 1 elements have a
    nonzero cofactor normal n, and its last element x has n . x != 0, as
    n . x is the determinant of all d. Raises ValueError when there are
    fewer than d elements, none included.
    """
    elements = h.elements if isinstance(h, HilbertBasis) else tuple(tuple(v) for v in h)
    if not elements or len(elements) < len(elements[0]):
        raise ValueError("sum_set needs at least d basis elements in Z^d")
    d = len(elements[0])
    sums = set()
    for head in combinations(range(len(elements)), d - 1):
        rows = [elements[i] for i in head]
        n = la.normal(rows, d)
        if not any(n):
            continue
        total = tuple(map(sum, zip((0,) * d, *rows)))  # the zero row serves d = 1
        for x in elements[head[-1] + 1 if head else 0 :]:
            if la.dot(n, x):
                sums.add(la.vadd(total, x))
    return sums


def _min_weight_sum(elements, u, d):
    """A point of the sum set minimizing u . x: the sum of a minimum-weight
    basis of the linear matroid on the elements, found greedily (Edmonds
    1971) as the first d elements, in (u . h, h) order, independent of
    those before them."""
    ordered = [h for _, h in sorted((la.dot(u, h), h) for h in elements)]
    basis = [ordered[i] for i in islice(la.independent(ordered), d)]
    if len(basis) < d:
        raise AssertionError("Hilbert basis smaller than the dimension")
    return tuple(map(sum, zip(*basis)))


def _sum_hull(c):
    """The polyhedron C + Hull S by cutting planes, without enumerating S:
    seed with the greedy minimizers of an interior u of C^v (the sum of
    C's facet normals) and of each facet normal, then ask the oracle about
    every inequality n . x >= b of the hull whose normal it has not seen,
    and cut the hull by each minimizer with n . x < b, until none is
    violated. One double description of the homogenization cone serves
    every round: a round cuts it by its new points only.

    A normal the oracle has answered never cuts again, so none is asked
    about twice. Its minimum m over S is its minimum over P, which holds
    every hull, so each inequality n . x >= b of a hull has b >= m. Once
    n is answered, the hull holds a point at m (a seed or the cut) or
    already had b = m, and it only grows, so b = m from then on. A
    positive multiple of n orders the elements as n does, so each seed
    weight counts through its primitive normal: C's facets are among
    them, each a facet of every hull at its seed's value.
    """
    elements = hilbert_basis(c).elements
    d = c.dim
    interior = tuple(map(sum, zip(*c.facets)))
    weights = (interior,) + c.facets
    hull = _HullDD(c, sorted({_min_weight_sum(elements, u, d) for u in weights}))
    seen = {la.primitive(u) for u in weights}
    while True:
        # Exact: the hull of points of S lies in P, and once every
        # inequality of it holds on all of S (the oracle's minimum is not
        # below b), S and so P = C + Hull S lie in it too.
        cuts = set()
        for n, b in hull.inequalities():
            if n in seen:
                continue  # its minimum over S is b already
            seen.add(n)
            x = _min_weight_sum(elements, n, d)
            if la.dot(n, x) < b:
                cuts.add(x)
        if not cuts:
            return hull.polyhedron()
        hull.add(sorted(cuts))


def nash_blowup(c):
    """The multiset of localizations of C + Hull S at its vertices, with
    the polyhedron built by the greedy oracle's cutting planes and each
    tangent cone read off its incidence."""
    p = _sum_hull(c)
    return tuple(localize(p, v) for v in p.vertices)


# ------------------------------------------------------------------ trees


@dataclass(frozen=True)
class MemoEntry:
    """Statistics of a subtree: a tree node's, a memo value and a cache record."""

    dim: int
    index: int
    dual_index: int
    depth_below: int
    size: int
    max_facets: int
    has_pruned: bool
    child_keys: tuple


@dataclass
class TreeNode:
    cone: Cone
    status: str
    key: bytes
    entry: MemoEntry
    children: list = field(default_factory=list)
    resolved: bool = True


@dataclass
class ResolutionTree:
    """A resolution_tree result; its settings and running counts also steer
    the expansion that fills it in. ``registry`` is the class registry of
    :func:`cones.canonical_key` for this tree's cones: it lives and dies
    with the tree, so no key work is shared between trees."""

    prune_below_index: object
    memoize: bool
    max_depth: int
    max_nodes: int
    memo: dict
    new_memo_keys: list = field(default_factory=list)
    nodes_created: int = 1
    budget_hit: bool = False
    root: TreeNode = None
    registry: set = field(default_factory=set)


@dataclass(frozen=True)
class TreeStats:
    depth: int
    size: int
    max_facets: int
    resolved: bool


def tree_stats(tree) -> TreeStats:
    """Raw subtree statistics; memoized nodes count as fully expanded."""
    e = tree.root.entry
    return TreeStats(e.depth_below, e.size, e.max_facets, tree.root.resolved)


def unique_cone_count(tree) -> int:
    """Number of distinct cone classes reachable in the tree (memo-deduplicated).

    Each key reached from a memoized node is expanded through the memo once,
    even where it heads a depth-capped node, so visit order never matters."""
    seen, expanded = set(), set()
    stack = [tree.root]
    while stack:
        item = stack.pop()
        if isinstance(item, TreeNode):
            seen.add(item.key)
            stack.extend(item.children)
            if item.status == MEMOIZED:
                stack.append(item.key)
        elif item not in expanded:
            expanded.add(item)
            seen.add(item)
            entry = tree.memo.get(item)
            if entry is not None:
                stack.extend(entry.child_keys)
    return len(seen)


def _leaf(cone, status, key, pruned=False, resolved=True):
    entry = MemoEntry(cone.dim, index(cone), dual_index(cone), 0, 1, len(cone.facets), pruned, ())
    return TreeNode(cone, status, key, entry, resolved=resolved)


def _expand(tree, cone, depth):
    # Module level and handed its tree: a nested recursive closure would
    # refer to itself through its own cell, and that cycle would keep the
    # memo alive until a full garbage collection.
    key = canonical_key(cone, tree.registry)
    if is_smooth(cone):
        return _leaf(cone, SMOOTH, key)
    if (
        tree.prune_below_index is not None
        and cone.is_simplicial
        and index(cone) < tree.prune_below_index
    ):
        return _leaf(cone, PRUNED_KNOWN, key, pruned=True)
    if depth >= tree.max_depth or tree.budget_hit:
        return _leaf(cone, PRUNED_DEPTH, key, resolved=False)
    entry = tree.memo.get(key) if tree.memoize else None
    if entry is not None and depth + entry.depth_below <= tree.max_depth:
        return TreeNode(cone, MEMOIZED, key, entry)

    children = sorted(
        nash_blowup(cone), key=lambda ch: (canonical_key(ch, tree.registry), ch.facets)
    )
    tree.nodes_created += len(children)
    if tree.nodes_created > tree.max_nodes:
        tree.budget_hit = True
        return _leaf(cone, PRUNED_DEPTH, key, resolved=False)
    nodes = [_expand(tree, ch, depth + 1) for ch in children]
    below = [n.entry for n in nodes]
    entry = MemoEntry(
        cone.dim,
        index(cone),
        dual_index(cone),
        1 + max(e.depth_below for e in below),
        1 + sum(e.size for e in below),
        max(len(cone.facets), *(e.max_facets for e in below)),
        any(e.has_pruned for e in below),
        tuple(n.key for n in nodes),
    )
    node = TreeNode(cone, EXPANDED, key, entry, nodes, all(n.resolved for n in nodes))
    if tree.memoize and node.resolved and key not in tree.memo:
        tree.memo[key] = entry
        tree.new_memo_keys.append(key)
    return node


def resolution_tree(
    c,
    prune_below_index=None,
    memoize=True,
    max_depth=32,
    max_nodes=100_000,
    memo=None,
) -> ResolutionTree:
    """Expand the full resolution tree of c.

    Smooth cones become leaves; with pruning, simplicial cones of index
    strictly below the threshold become pruned-known leaves; nodes at
    max_depth become pruned-depth leaves. With memoization, a cone whose
    canonical key heads a resolved subtree that fits within max_depth at
    this depth becomes a memoized leaf carrying the cached subtree
    statistics; only resolved subtrees are memoized. Children are ordered
    by canonical key. Raises ValueError when max_depth < 0 or
    max_nodes < 1, and BudgetExceeded (with the partial tree attached)
    when more than max_nodes nodes are created.
    """
    if max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    if max_nodes < 1:
        raise ValueError(f"max_nodes must be >= 1, got {max_nodes}")
    tree = ResolutionTree(
        prune_below_index, memoize, max_depth, max_nodes, {} if memo is None else memo
    )
    tree.root = _expand(tree, c, 0)
    if tree.budget_hit:
        raise BudgetExceeded(f"node budget {max_nodes} exceeded", tree=tree)
    return tree
