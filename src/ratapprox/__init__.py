"""Order-N rational approximation toolkit.

Exact continued fractions, Ostrowski numeration, distances ||s*alpha - gamma||,
approximation-set fitting and verification, Pell-type conic orbits, and the
Psi-driven existence construction, all over exact rational and quadratic-field
arithmetic.
"""

from .approx import (
    ApproxSet,
    DecayReport,
    PsiSpec,
    construct_psi,
    detect_line,
    fit_coefficients,
    growth_profile,
    line_set,
    nearest_numerators,
    verify_order,
)
from .cf import CFContext
from .conic import (
    Automorph,
    ConicForm,
    conic_orbit,
    find_seed,
    fundamental_automorph,
    laurent_expansion,
    minimal_polynomial,
    pell4,
    periodic_construction,
    quad_detect,
)
from .errors import (
    BlowUp,
    DegenerateRational,
    GammaOnOrbit,
    InsufficientDepth,
    InsufficientPairs,
    InvariantViolation,
    MixedField,
    NotPeriodic,
    OrbitLeavesQuadrant,
    OutOfRegime,
    PrecisionExhausted,
    RatApproxError,
    RationalTarget,
    SingularSystem,
)
from .exactnum import (
    Certified,
    QuadIrr,
    RatInterval,
    RealTarget,
    enclose,
    qi_normalize,
)
from .ostrowski import (
    DeltaProfile,
    IntDigits,
    RealDigits,
    delta_profile,
    dist_bound,
    dist_direct,
    dist_formula,
    ostrowski_int,
    ostrowski_real,
)

__version__ = "0.1.0"
