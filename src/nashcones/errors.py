"""Exception types shared across the package."""


class LatticeError(ValueError):
    """Base class for integer linear algebra errors."""


class ZeroVector(LatticeError):
    pass


class NotInteger(LatticeError):
    """An entry is not an integer (a float, Fraction or str, say)."""


class NotSquare(LatticeError):
    pass


class Singular(LatticeError):
    pass


class RankDeficient(LatticeError):
    pass


class NotFullRank(LatticeError):
    pass


class BoxTooLarge(LatticeError):
    """A side of a parallelepiped's HNF box is longer than a range can be."""


class NotProper(ValueError):
    """The input does not define a pointed, full-dimensional cone."""


class NotAVertex(ValueError):
    pass


class ZeroDenominator(ArithmeticError):
    pass


class BudgetExceeded(RuntimeError):
    """Node budget hit during tree expansion; carries the partial tree."""

    def __init__(self, message, tree=None):
        super().__init__(message)
        self.tree = tree
