"""Four-party perfect-correlation constraints and their satisfiability.

The quantum prediction for the four-particle parity experiment is
<ABCD> = -cos(a + b - c - d), so certain angle combinations force the
product ABCD with certainty. Deterministic one-party response values
would then have to satisfy every forced product simultaneously. Each
constraint is a parity equation over GF(2) in the distinct (party,
angle) response variables, so ``check_satisfiable`` settles the question
by Gaussian elimination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .core import validate_outcome

PARTIES = ("A", "B", "C", "D")

_ANGLE_RESOLUTION = 1e-12
_TWO_PI = 2 * math.pi

#: Angles must be smaller than this in magnitude. From 2**13 on, floats
#: are spaced 1.8e-12 apart, coarser than the grid, and k * 2*pi first
#: misses grid point 0 at k = 1304 (8193.27).
_MAX_ANGLE = 2.0**13
#: Above this, an angle reduced modulo 2*pi names the grid point 0.
_SEAM = _TWO_PI - _ANGLE_RESOLUTION / 2


def canonical_angle(theta: float) -> float:
    """Reduce an angle to [0, 2*pi) on a 1e-12 grid.

    Variable identity in a constraint system is decided by this canonical
    form: an angle names the grid point nearest to it modulo 2*pi, and
    within half a step of the 0/2*pi seam, on either side, that point is 0.
    An angle of magnitude 2**13 or more is rejected, since the float error
    of k * 2*pi there outgrows the grid.
    """
    if not abs(theta) < _MAX_ANGLE:
        if not math.isfinite(theta):
            raise ValueError("angle must be finite")
        raise ValueError(f"angle {theta!r} is too large: its magnitude must be below 2**13 = 8192")
    r = math.fmod(theta, _TWO_PI)
    if r < 0:
        r += _TWO_PI
    if r > _SEAM:
        return 0.0
    return round(r / _ANGLE_RESOLUTION) * _ANGLE_RESOLUTION


@dataclass(frozen=True)
class ProductConstraint:
    """Requires the product of the named response variables to equal
    target. A factor may repeat; repeated factors square away to +1."""

    factors: tuple[tuple[str, float], ...]
    target: int

    def __post_init__(self):
        if not self.factors:
            raise ValueError("a product constraint needs at least one factor")
        validate_outcome(self.target)
        for party, angle in self.factors:
            if party not in PARTIES:
                raise ValueError(f"unknown party {party!r}, expected one of {PARTIES}")
            if not math.isfinite(angle):
                raise ValueError("factor angle must be finite")

    def canonical_factors(self) -> tuple[tuple[str, float], ...]:
        return tuple((p, canonical_angle(a)) for p, a in self.factors)


@dataclass(frozen=True)
class SatResult:
    """Outcome of constraint checking.

    ``assignments_checked`` is 2**(number of distinct variables), the size
    of the assignment space the verdict covers: an unsatisfiable verdict
    rules out every assignment, and a witness is the satisfying one with
    the lowest assignment index.
    """

    satisfiable: bool
    witness: Mapping[tuple[str, float], int] | None
    assignments_checked: int


def ghz_correlation(a: float, b: float, c: float, d: float) -> float:
    """<ABCD> = -cos(a + b - c - d)."""
    for v in (a, b, c, d):
        if not math.isfinite(v):
            raise ValueError("angles must be finite")
    return -math.cos(a + b - c - d)


def ghz_constraint_system(phi: float, include_fifth: bool = False) -> list[ProductConstraint]:
    """The four perfect-correlation constraints at angle step phi, plus
    optionally the canonical fifth that makes the system contradictory.

    The four base rows all satisfy a + b - c - d = 0 and hence force
    ABCD = -1. The fifth instantiates a + b - c - d = pi (forcing +1) as
    A(2*phi)*B(0)*C(0)*D(0) = +1, which needs 2*phi = pi; other
    instantiations can be built directly from ProductConstraint.
    """
    if not math.isfinite(phi):
        raise ValueError("phi must be finite")
    if not abs(2 * phi) < _MAX_ANGLE:
        raise ValueError(f"phi = {phi!r} is too large: the constraint angle 2*phi must be below 2**13 in magnitude")
    residue = canonical_angle(phi) % math.pi
    if min(residue, abs(residue - math.pi)) < _ANGLE_RESOLUTION * 2:
        raise ValueError("phi must not be 0 modulo pi; the variables collapse")

    constraints = [
        ProductConstraint((("A", 0.0), ("B", 0.0), ("C", 0.0), ("D", 0.0)), -1),
        ProductConstraint((("A", phi), ("B", 0.0), ("C", phi), ("D", 0.0)), -1),
        ProductConstraint((("A", phi), ("B", 0.0), ("C", 0.0), ("D", phi)), -1),
        ProductConstraint((("A", 2 * phi), ("B", 0.0), ("C", phi), ("D", phi)), -1),
    ]
    if include_fifth:
        if abs(canonical_angle(phi) - math.pi / 2) > _ANGLE_RESOLUTION * 2:
            raise ValueError(
                "the canonical fifth constraint is defined only at phi = pi/2 "
                "(it instantiates the +1 case at angle sum pi)"
            )
        constraints.append(
            ProductConstraint((("A", 2 * phi), ("B", 0.0), ("C", 0.0), ("D", 0.0)), +1)
        )
    return constraints


def check_satisfiable(constraints: list[ProductConstraint]) -> SatResult:
    """Decide the system by Gaussian elimination over GF(2).

    A variable is named by its factor's canonical form, and each distinct
    raw factor is canonicalized once per call. Bit v of an assignment index
    gives sorted variable v's value (0 -> -1, 1 -> +1). Factors that repeat
    an even number of times square away; the rest form the constraint's
    mask, and the product meets the target exactly when the bits under the
    mask have parity (popcount(mask) + [target == -1]) mod 2."""
    canon: dict[tuple[str, float], tuple[str, float]] = {}
    for c in constraints:
        for f in c.factors:
            if f not in canon:
                canon[f] = (f[0], canonical_angle(f[1]))
    ordered = sorted(set(canon.values()))
    bit_of = {v: 1 << i for i, v in enumerate(ordered)}
    bit = {f: bit_of[v] for f, v in canon.items()}
    total = 1 << len(ordered)

    # echelon rows keyed by their lowest set bit, the row's pivot
    pivots: dict[int, tuple[int, int]] = {}
    for c in constraints:
        mask = 0
        for f in c.factors:
            mask ^= bit[f]
        parity = (mask.bit_count() + (c.target == -1)) & 1
        while mask:
            low = mask & -mask
            if low not in pivots:
                pivots[low] = (mask, parity)
                break
            pivot_mask, pivot_parity = pivots[low]
            mask ^= pivot_mask
            parity ^= pivot_parity
        if not mask and parity:  # the row reduced to 0 = 1
            return SatResult(satisfiable=False, witness=None, assignments_checked=total)

    # Fix bits from the highest down: a pivot bit is forced by the higher
    # bits of its row, every other bit stays 0. No smaller index satisfies
    # the rows, since each 0 was free and each 1 was forced.
    x = 0
    for low in sorted(pivots, reverse=True):
        mask, parity = pivots[low]
        if ((mask & x).bit_count() ^ parity) & 1:
            x |= low
    witness = {v: (1 if x & (1 << i) else -1) for i, v in enumerate(ordered)}
    return SatResult(satisfiable=True, witness=witness, assignments_checked=total)


def evaluate_constraint(
    constraint: ProductConstraint, assignment: Mapping[tuple[str, float], int]
) -> int:
    """Product of the assigned values over the constraint's factors."""
    product = 1
    for key in constraint.canonical_factors():
        product *= assignment[key]
    return product
