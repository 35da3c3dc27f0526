"""Exception types shared across the package."""


class CfrowError(Exception):
    """Base class for all package errors."""


class IndexBeyondExpansion(CfrowError):
    pass


class BadRange(CfrowError):
    pass


class SingularPrefix(CfrowError):
    pass


class NotSingularisable(CfrowError):
    def __init__(self, position, reason=""):
        self.position = position
        super().__init__(f"cannot singularise at position {position}: {reason}")


class AdjacentPositions(CfrowError):
    pass


class NotContractable(CfrowError):
    def __init__(self, m, n):
        self.m = m
        self.n = n
        super().__init__(f"denominator of partial block [{m},{n}] vanishes")


class OutOfDomain(CfrowError):
    pass


class BadRegionSpec(CfrowError):
    """A region spec names no builder, lacks a parameter or does not parse."""


class ZeroInput(CfrowError):
    """Orbit terminated: the map fixes 0."""


class CapExceeded(CfrowError):
    pass


class NeverEnters(CapExceeded):
    """A forward walk proved it can never visit its region: x's
    recurrence state repeated with no visit (`Region.x_only`), or it
    reached the x = 0 line, which the region misses
    (`Region.meets_x_zero`).  A backward walk answers None for it."""


class BackwardCapExceeded(CfrowError):
    pass


class BoundaryUndecidable(CfrowError):
    """An exact digit comparison (`digits.order`) matched its cap of
    digits undecided: two equal streams with no surd state to compare,
    such as two copies of one irrational read from a generator."""


class InvalidSingularisationArea(CfrowError):
    def __init__(self, condition, detail=""):
        self.condition = condition
        super().__init__(f"singularisation area violates condition ({condition}): {detail}")


class MismatchAt(CfrowError):
    def __init__(self, k, detail=""):
        self.k = k
        super().__init__(f"convergent verification failed at index {k}: {detail}")


class NonIntegrable(CfrowError):
    pass


class NoMeasurePath(CfrowError):
    """A measure method the region's class has no path for."""


class BadTolerance(CfrowError):
    """A quadrature tolerance that is not a finite float > 0."""


class BadSampleCount(CfrowError):
    """A Monte Carlo sample count that is not an int >= 1."""


class NullSetPoint(CfrowError):
    pass


class FixedRay(CfrowError):
    pass
