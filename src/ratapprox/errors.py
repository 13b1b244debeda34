"""Typed domain errors shared across the package.

Every error that crosses the CLI boundary is serialized by its class name,
so names here are part of the output contract.
"""

from __future__ import annotations


class RatApproxError(Exception):
    """Base class for all domain errors."""


class DegenerateRational(RatApproxError):
    """A quadratic-surd expression simplified to a rational number.

    Carries the exact rational ``value`` so callers can recover.
    """

    def __init__(self, value, message: str = "value is rational"):
        super().__init__(message)
        self.value = value


class MixedField(RatApproxError):
    """Arithmetic between quadratic irrationals over different fields."""


class PrecisionExhausted(RatApproxError):
    """A certified computation cannot be decided at the available precision."""


class InsufficientDepth(RatApproxError):
    """Not enough continued-fraction digits to complete the operation."""


class RationalTarget(RatApproxError):
    """Operation requires an irrational target."""


class GammaOnOrbit(RatApproxError):
    """gamma is congruent to s*alpha (mod 1), so its expansion is not unique."""


class OutOfRegime(RatApproxError):
    """The digit profile has m < 4, outside the series formula's hypothesis."""


class SingularSystem(RatApproxError):
    """The coefficient system is singular (duplicate denominators)."""


class InsufficientPairs(RatApproxError):
    """Too few pairs for the requested fit or detection."""


class BlowUp(RatApproxError):
    """The next index is past the digit budget as construct_psi applies it.

    ``partial`` holds the construction completed so far (may be None).
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class NotPeriodic(RatApproxError):
    """Periodic-expansion construction requires a quadratic irrational."""


class OrbitLeavesQuadrant(RatApproxError):
    """Automorph iteration left the positive quadrant."""


class InvariantViolation(RatApproxError):
    """An internal invariant failed: a bug, never an answer.

    Raised instead of `assert`, so the checks also run under `python -O`.
    """
