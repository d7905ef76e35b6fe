"""Exception types shared across the library."""


class MockThetaError(Exception):
    """Base class for all library errors."""


class NonConvergent(MockThetaError):
    """A series hit the term cap before its tail bound reached the target."""


class PoleAtZ1(MockThetaError):
    """First elliptic argument is within the pole threshold of Z + Z*tau."""


class PoleProximity(MockThetaError):
    """A lattice-sum denominator is within the pole threshold of zero."""


class NotPositiveDefinite(MockThetaError):
    """Gram matrix fails the positive-definiteness requirement."""


class ZeroDivisorProximity(MockThetaError):
    """Evaluation point is too close to a zero of a denominator factor."""


class ConditionViolation(MockThetaError):
    """A lattice context violates one of its structural conditions."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class SingularDecomposition(MockThetaError):
    """Orthogonal splitting failed because a block Gram matrix is singular."""


class UnsupportedCase(MockThetaError):
    """Requested algebra family/parameters are not available."""


class InfiniteSet(MockThetaError):
    """A weight enumeration would be infinite for the requested level."""
