"""Enumeration and classification of simplicial cones by (dimension, index).

Every simplicial cone has a presentation in Hermite normal form with
coprime rows; enumerating those matrices for a fixed index and removing
duplicates under row permutation + unimodular column action yields one
representative per equivalence class.

The HNF presentations of the class of ``m`` are exactly the column HNFs
of the d! row permutations of ``m``: the images :func:`intlinalg.hnf_images`
lists. :func:`classify` walks the sorted enumeration once: a matrix not
yet marked starts a new class (and is the lex-least member of it, so a
factor is named by its least image), and marks the rest of its orbit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from math import gcd

from . import intlinalg as la
from .cones import Cone, direct_sum_decompose, index as cone_index, simplicial_cone

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
    cone: Cone = field(compare=False)

    @property
    def display(self):
        return _display(self.name)

    @property
    def reducibility_label(self):
        """Paper-style direct-sum label, e.g. 'B_{2,1} + 2A'; '' if irreducible."""
        if not self.reducibility:
            return ""
        terms = []
        for name in dict.fromkeys(self.reducibility):
            k = self.reducibility.count(name)
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
    lexicographically.
    """
    if d < 1 or idx < 1:
        raise ValueError("dimension and index must be positive")
    results = []
    for diag in _ordered_factorizations(idx, d):
        per_row = []
        feasible = True
        for i, di in enumerate(diag):
            choices = []
            for head in product(range(di), repeat=i):
                g = di
                for x in head:
                    g = gcd(g, x)
                if g == 1:
                    choices.append(head)
            if not choices:
                feasible = False
                break
            per_row.append(choices)
        if not feasible:
            continue
        for combo in product(*per_row):
            rows = tuple(
                combo[i] + (diag[i],) + (0,) * (d - 1 - i) for i in range(d)
            )
            results.append(rows)
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
        cone = Cone(1, ((1,),), ((1,),))
        return (ConeClass("A", 1, 1, 1, ((1,),), (), cone),)

    classes = []
    # HNFs in the orbit of a kept class that the walk has not reached yet;
    # each comes up exactly once, so it is dropped when it does.
    pending = set()
    for m in enumerate_hnf(d, idx):
        if m in pending:
            pending.remove(m)
            continue
        pending.update(la.hnf_images(m))
        pending.discard(m)
        cone = simplicial_cone(m)
        factors = direct_sum_decompose(cone)
        if len(factors) == 1:
            reducibility = ()
        else:
            reducibility = tuple(_factor_name(f) for f in factors)
        name = f"{letter}_{idx}_{len(classes) + 1}"
        istar = abs(la.det(cone.rays))
        classes.append(ConeClass(name, d, idx, istar, m, reducibility, cone))
    return tuple(classes)


def _factor_name(f):
    if f.dim == 1:
        return "A"
    least = min(la.hnf_images(f.facets))
    for cls in classify(f.dim, cone_index(f)):
        if cls.presentation == least:
            return cls.name
    raise AssertionError("factor not found in its classification table")


def class_counts(d, index_max):
    """T_d(I) for I = 1..index_max."""
    return [len(classify(d, i)) for i in range(1, index_max + 1)]


_NAME_RE = re.compile(r"^([A-H])_(\d+)_(\d+)$")


def cone_by_name(name):
    """Resolve a class name like 'C_3_3' to its representative cone."""
    if name == "A":
        return classify(1, 1)[0].cone
    m = _NAME_RE.match(name)
    if not m:
        raise ValueError(f"malformed class name {name!r} (expected like C_3_3)")
    letter, idx, j = m.group(1), int(m.group(2)), int(m.group(3))
    dim = _LETTERS.index(letter) + 1
    table = classify(dim, idx)
    if not 1 <= j <= len(table):
        raise ValueError(f"{name}: only {len(table)} classes of dimension {dim}, index {idx}")
    return table[j - 1].cone
