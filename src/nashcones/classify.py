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

A class is its presentation: ``ConeClass(name, dim, index,
presentation)``, and everything else it holds is computed from the
presentation on first read and kept, so a table pass walks orbits and
builds no cone, splits no cone and names no factor. The cone comes from
:func:`cones.simplicial_cone`, I* is :func:`cones.dual_index` of it,
and the factors are :func:`cones.direct_sum_decompose` of it, the
package's one direct-sum rule, each named by the class whose
presentation is the least image of its facets' orbit.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from math import gcd

from . import intlinalg as la
from .cones import direct_sum_decompose, dual_index, simplicial_cone

_LETTERS = "ABCDEFGH"


def _letter(dim):
    if dim < 1 or dim > len(_LETTERS):
        raise ValueError(f"no class letter for dimension {dim}")
    return _LETTERS[dim - 1]


@dataclass(frozen=True)
class ConeClass:
    """One GL(d,Z)-equivalence class of simplicial cones, a function of
    its four fields; every other value is computed from the presentation
    on first read and kept."""

    name: str
    dim: int
    index: int
    presentation: tuple

    @cached_property
    def dual_index(self):
        """I* of the class cone."""
        return dual_index(self.cone)

    @cached_property
    def reducibility(self):
        """Factor class names in the factor order; () if irreducible:
        :func:`cones.direct_sum_decompose` of the class cone."""
        factors = direct_sum_decompose(self.cone)
        if len(factors) == 1:
            return ()
        return tuple(_factor_name(f.facets).name for f in factors)

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
    A pass walks each class orbit once and computes nothing else; a
    class's I*, factor names and cone are computed when first read.
    """
    letter = _letter(d)  # before any d!-sized orbit search starts
    if d == 1:
        if idx != 1:
            return ()
        return (ConeClass("A", 1, 1, ((1,),)),)

    classes = []
    # The HNFs of every orbit kept so far: the walk reaches each orbit
    # first at its least member and marks the whole orbit there.
    seen = set()
    for m in enumerate_hnf(d, idx):
        if m in seen:
            continue
        seen.update(la._hnf_walk(m))
        classes.append(ConeClass(f"{letter}_{idx}_{len(classes) + 1}", d, idx, m))
    return tuple(classes)


def _factor_name(rows):
    """The class of the simplicial cone with facet rows ``rows``, in any
    presentation: the one whose presentation is the least HNF of their
    orbit."""
    least = min(la.hnf_orbit(rows))
    for cls in classify(len(rows), la.lattice_index(least)):
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
