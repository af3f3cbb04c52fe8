"""One Nash blow-up step and the iterated resolution tree.

A blow-up of a cone C is the multiset of localizations of C + Hull(S) at
its vertices, where S collects the sums of d linearly independent Hilbert
basis elements. The tree expands non-smooth cones recursively, with
optional pruning of small-index simplicial cones and memoization keyed by
canonical form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from . import intlinalg as la
from .cones import (
    Cone,
    canonical_key,
    dual_index,
    index,
    is_smooth,
    localize,
    minkowski_sum_hull,
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
    n . x is the determinant of all d.
    """
    elements = h.elements if isinstance(h, HilbertBasis) else tuple(tuple(v) for v in h)
    d = len(elements[0])
    if len(elements) < d:
        raise AssertionError("Hilbert basis smaller than the dimension")
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


def nash_blowup(c):
    """The multiset of localizations of C + Hull S at its vertices."""
    p = minkowski_sum_hull(c, sum_set(hilbert_basis(c)))
    return tuple(localize(p, v) for v in p.vertices)


# ------------------------------------------------------------------ trees


@dataclass
class TreeNode:
    cone: Cone
    index: int
    dual_index: int
    status: str
    key: bytes
    children: list = field(default_factory=list)
    depth_below: int = 0
    size: int = 1
    max_facets: int = 0
    resolved: bool = True
    has_pruned: bool = False


@dataclass(frozen=True)
class MemoEntry:
    """Cached statistics of a resolved subtree."""

    dim: int
    index: int
    dual_index: int
    depth_below: int
    size: int
    max_facets: int
    has_pruned: bool
    child_keys: tuple


@dataclass
class ResolutionTree:
    root: TreeNode
    prune_below_index: object
    memoize: bool
    max_depth: int
    max_nodes: int
    nodes_created: int
    memo: dict
    new_memo_keys: list
    budget_hit: bool = False


@dataclass(frozen=True)
class TreeStats:
    depth: int
    size: int
    max_facets: int
    resolved: bool


def tree_stats(tree) -> TreeStats:
    """Raw subtree statistics; memoized nodes count as fully expanded."""
    root = tree.root if isinstance(tree, ResolutionTree) else tree
    return TreeStats(root.depth_below, root.size, root.max_facets, root.resolved)


def unique_cone_count(tree) -> int:
    """Number of distinct cone classes reachable in the tree (memo-deduplicated)."""
    seen = set()
    memo = tree.memo

    def walk_key(key):
        if key in seen:
            return
        seen.add(key)
        entry = memo.get(key)
        if entry is not None:
            for ck in entry.child_keys:
                walk_key(ck)

    def walk(node):
        seen.add(node.key)
        if node.status == MEMOIZED:
            for ck in memo[node.key].child_keys:
                walk_key(ck)
        for ch in node.children:
            walk(ch)

    walk(tree.root)
    return len(seen)


def _child_sort_key(cone):
    return (canonical_key(cone), cone.facets)


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
    by canonical key. Raises BudgetExceeded (with the partial tree
    attached) when more than max_nodes nodes are created.
    """
    memo_map = {} if memo is None else memo
    new_keys: list = []
    created = [1]
    budget_hit = [False]

    def expand(cone, depth):
        node = TreeNode(
            cone,
            index(cone),
            dual_index(cone),
            EXPANDED,
            canonical_key(cone),
            max_facets=len(cone.facets),
        )
        if is_smooth(cone):
            node.status = SMOOTH
            return node
        if prune_below_index is not None and cone.is_simplicial and node.index < prune_below_index:
            node.status = PRUNED_KNOWN
            node.has_pruned = True
            return node
        if depth >= max_depth or budget_hit[0]:
            node.status = PRUNED_DEPTH
            node.resolved = False
            return node
        entry = memo_map.get(node.key) if memoize else None
        if entry is not None and depth + entry.depth_below <= max_depth:
            node.status = MEMOIZED
            node.depth_below = entry.depth_below
            node.size = entry.size
            node.max_facets = entry.max_facets
            node.has_pruned = entry.has_pruned
            return node

        children = sorted(nash_blowup(cone), key=_child_sort_key)
        created[0] += len(children)
        if created[0] > max_nodes:
            budget_hit[0] = True
            node.status = PRUNED_DEPTH
            node.resolved = False
            return node
        node.children = [expand(ch, depth + 1) for ch in children]
        node.depth_below = 1 + max(ch.depth_below for ch in node.children)
        node.size = 1 + sum(ch.size for ch in node.children)
        node.max_facets = max([node.max_facets] + [ch.max_facets for ch in node.children])
        node.resolved = all(ch.resolved for ch in node.children)
        node.has_pruned = any(ch.has_pruned for ch in node.children)
        if memoize and node.resolved and node.key not in memo_map:
            memo_map[node.key] = MemoEntry(
                cone.dim,
                node.index,
                node.dual_index,
                node.depth_below,
                node.size,
                node.max_facets,
                node.has_pruned,
                tuple(ch.key for ch in node.children),
            )
            new_keys.append(node.key)
        return node

    tree = ResolutionTree(
        expand(c, 0),
        prune_below_index,
        memoize,
        max_depth,
        max_nodes,
        created[0],
        memo_map,
        new_keys,
        budget_hit[0],
    )
    if budget_hit[0]:
        raise BudgetExceeded(f"node budget {max_nodes} exceeded", tree=tree)
    return tree
