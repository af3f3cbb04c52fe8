"""Reference routes that faster library code is checked against."""

from nashcones import intlinalg as la
from nashcones.cones import cone_from_facets


def localize_by_tight_facets(p, v):
    """The tangent cone of p at the vertex v as a double description of
    its own: the cone of the inequalities of p tight at v."""
    tight = [n for n, b in p.inequalities if la.dot(n, v) == b]
    return cone_from_facets(tight)
