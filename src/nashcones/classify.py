"""Enumeration and classification of simplicial cones by (dimension, index).

Every simplicial cone has a presentation in Hermite normal form with
coprime rows; enumerating those matrices for a fixed index and removing
duplicates under row permutation + unimodular column action yields one
representative per equivalence class.

The HNF presentations of the class of ``m`` are exactly the column HNFs
of the d! row permutations of ``m``, its orbit. :func:`intlinalg.hnf_orbit`
walks it by adjacent row swaps, repairing the form with one 2x2 unimodular
fix of two columns per swap. :func:`classify` walks the sorted enumeration
once: a matrix not yet marked starts a new class (and is the lex-least
member of it), and marks its whole orbit, walked from the matrix itself,
which already is a column HNF.

A class's dual index comes from its presentation alone
(:func:`_dual_index`), and its cone is built only when read
(:attr:`ConeClass.cone`), so a table builds no cone but those of its
factor classes, which the factor order reads.

The same orbit gives the class's finest direct sum, by the rule
:func:`cones.direct_sum_decompose` states: the first image with the most
cuts (:func:`cones._finest_split`) has one diagonal block per factor.
Each factor is the class whose presentation is the least image of its
block's orbit, and the factors are ordered by :func:`cones._factor_order`,
the order ``direct_sum_decompose`` sorts by.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from math import gcd

from . import intlinalg as la
from .cones import _factor_order, _finest_split, simplicial_cone

_LETTERS = "ABCDEFGH"


def _letter(dim):
    if dim < 1 or dim > len(_LETTERS):
        raise ValueError(f"no class letter for dimension {dim}")
    return _LETTERS[dim - 1]


@dataclass(frozen=True)
class ConeClass:
    """One GL(d,Z)-equivalence class of simplicial cones."""

    name: str
    dim: int
    index: int
    dual_index: int
    presentation: tuple
    reducibility: tuple  # factor class names, finest first; () if irreducible

    @cached_property
    def cone(self):
        """The representative cone {x : presentation x >= 0}, built on
        first read; every later read returns the same object."""
        return simplicial_cone(self.presentation)

    @property
    def display(self):
        return _display(self.name)

    @property
    def reducibility_label(self):
        """Paper-style direct-sum label, e.g. 'B_{2,1} + 2A'; '' if irreducible."""
        terms = []
        for name, k in Counter(self.reducibility).items():
            disp = _display(name)
            if k == 1:
                terms.append(disp)
            elif name == "A":
                terms.append(f"{k}A")
            else:
                terms.append(f"{k} {disp}")
        return " ⊕ ".join(terms)


def _display(name):
    """Paper-style class label: 'C_4_7' -> 'C_{4,7}'; 'A' stays 'A'."""
    if name == "A":
        return "A"
    letter, i, j = name.split("_")
    return f"{letter}_{{{i},{j}}}"


def _divisors(n):
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def _ordered_factorizations(n, k):
    if k == 1:
        yield (n,)
        return
    for d in _divisors(n):
        for rest in _ordered_factorizations(n // d, k - 1):
            yield (d,) + rest


def enumerate_hnf(d, idx):
    """All HNF presentation matrices of d-dim simplicial cones of index idx.

    Lower triangular, positive diagonal with product idx, off-diagonal
    entries reduced below the row diagonal, every row coprime. Sorted
    lexicographically. For each diagonal, every row i is built once, as
    its coprime head over [0, diag[i]), then diag[i], then zeros, and the
    matrices are the product of the row lists.
    """
    if d < 1 or idx < 1:
        raise ValueError("dimension and index must be positive")
    results = []
    for diag in _ordered_factorizations(idx, d):
        per_row = []
        for i, di in enumerate(diag):
            tail = (di,) + (0,) * (d - 1 - i)
            per_row.append([h + tail for h in product(range(di), repeat=i) if gcd(di, *h) == 1])
        results.extend(product(*per_row))
    results.sort()
    return results


def _perm_equivalent(adj_new, det_new, other, perms):
    """Whether some row permutation of ``other`` equals ``new @ U``, U unimodular.

    ``adj_new`` and ``det_new`` are the adjugate and determinant of ``new``;
    both matrices must have the same index. A direct pairwise test, kept as
    an oracle for the orbit marking in :func:`classify`.
    """
    for perm in perms:
        m = la.matmul(adj_new, tuple(other[i] for i in perm))
        if all(x % det_new == 0 for row in m for x in row):
            return True
    return False


@lru_cache(maxsize=None)
def classify(d, idx):
    """All equivalence classes of d-dim simplicial cones with index idx.

    Classes are named <letter>_<index>_<j> with j following the
    lexicographic order of the lex-least HNF presentation in each class.
    Reducibility lists the direct-sum factor names, or () if irreducible.
    """
    letter = _letter(d)  # before any d!-sized orbit search starts
    if d == 1:
        if idx != 1:
            return ()
        return (ConeClass("A", 1, 1, 1, ((1,),), ()),)

    classes = []
    # The HNFs of every orbit kept so far: the walk reaches each orbit
    # first at its least member and marks the whole orbit there.
    seen = set()
    for m in enumerate_hnf(d, idx):
        if m in seen:
            continue
        images = list(la._hnf_walk(m))
        seen.update(images)
        blocks = _finest_split(images)
        if len(blocks) == 1:
            reducibility = ()
        else:
            factors = sorted(map(_factor_name, blocks), key=lambda k: _factor_order(k.cone))
            reducibility = tuple(k.name for k in factors)
        name = f"{letter}_{idx}_{len(classes) + 1}"
        classes.append(ConeClass(name, d, idx, _dual_index(m, idx), m, reducibility))
    return tuple(classes)


def _dual_index(rows, idx):
    """The dual index I* of the simplicial cone {x : rows x >= 0}, where
    rows is square with |det| = idx, read off rows without the cone.

    The cone's rays are the primitive cofactor normals n_j of the rows
    other than j, n_j / g_j with g_j = gcd(n_j), and the n_j are the
    columns of adj(rows) up to sign, with |det adj(rows)| = idx^(d-1).
    So I* = idx^(d-1) / (g_0 ... g_{d-1})."""
    d = len(rows)
    g = 1
    for j in range(d):
        g *= la.vec_gcd(la.normal(rows[:j] + rows[j + 1 :], d))
    return idx ** (d - 1) // g


def _factor_name(rows):
    """The class of the simplicial cone with facet rows ``rows``, in any
    presentation: the one whose presentation is the least HNF of their
    orbit. Rows already in column HNF, as each block of
    :func:`cones._finest_split` is (a diagonal block of one), are walked
    as they stand, without :func:`intlinalg.column_hnf`."""
    d = len(rows)
    in_hnf = all(
        len(row) == d and row[i] > 0 and not any(row[i + 1 :])
        and all(0 <= x < row[i] for x in row[:i])
        for i, row in enumerate(rows)
    )
    least = min(la._hnf_walk(rows) if in_hnf else la.hnf_orbit(rows))
    for cls in classify(d, la.lattice_index(least)):
        if cls.presentation == least:
            return cls
    raise AssertionError("factor not found in its classification table")


def class_counts(d, index_max):
    """T_d(I) for I = 1..index_max."""
    return [len(classify(d, i)) for i in range(1, index_max + 1)]


_NAME_RE = re.compile(r"^([A-H])_(\d+)_(\d+)$")


def cone_by_name(name):
    """Resolve a class name like 'C_3_3' to its representative cone.

    Only the names :func:`classify` gives are accepted, spelled exactly as
    it gives them: 'C_03_1', 'A_1_1' or a trailing newline is malformed.
    """
    if name == "A":
        return classify(1, 1)[0].cone
    m = _NAME_RE.match(name)
    if m:
        letter, idx, j = m.group(1), int(m.group(2)), int(m.group(3))
        dim = _LETTERS.index(letter) + 1
        table = classify(dim, idx)
        if not 1 <= j <= len(table):
            raise ValueError(f"{name}: only {len(table)} classes of dimension {dim}, index {idx}")
        if table[j - 1].name == name:
            return table[j - 1].cone
    raise ValueError(f"malformed class name {name!r} (expected like C_3_3)")
