"""Domain types shared by every other module.

Outcomes are plain ints in {-1, +1} so products and averages can be
written directly. Hidden-variable tags are opaque hashable values; the
engine never looks inside one. It passes tags to the model's response
functions: once per distinct tag when it compiles a declared tag
distribution into class weights, and per drawn tag otherwise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from numbers import Complex, Rational, Real
from typing import Any, Callable, Hashable, Sequence

import numpy as np

from .errors import ModelError

#: The four setting pairs (alice index, bob index), in canonical order.
SETTING_PAIRS: tuple[tuple[int, int], ...] = ((1, 1), (1, 2), (2, 1), (2, 2))

#: Index of a setting pair within SETTING_PAIRS, used to key random streams.
PAIR_CODES: dict[tuple[int, int], int] = {p: i for i, p in enumerate(SETTING_PAIRS)}


#: Tolerance policy: an exact (Rational) value gets no slack. A float gets
#: DOMAIN_SLACK in a domain check (an entry of [-1, 1], a nonnegative pair
#: cell, weights summing to 1), for the rounding of values computed from
#: exact ones, and VERDICT_SLACK in a verdict against the CHSH bound 2, for
#: the rounding of a sum of four such values.
DOMAIN_SLACK = 1e-12
VERDICT_SLACK = 1e-9


def is_exact(value) -> bool:
    """Whether value is Rational: a float or a Fraction by its exact type,
    which is faster, and any other type (subclasses too) by the ABC check."""
    return type(value) is Fraction or type(value) is not float and isinstance(value, Rational)


def within(value, limit, slack) -> bool:
    """Whether value <= limit: exactly when value is Rational, otherwise
    as a float up to ``slack`` (DOMAIN_SLACK or VERDICT_SLACK). NaN is
    never within a limit."""
    if is_exact(value):
        return value <= limit
    return float(value) <= limit + slack


def _complex_types(values: Sequence) -> bool:
    """Whether any of values is a complex number: 1+0j equals 1 and
    hashes as 1, so only its type tells it from an outcome."""
    return any(issubclass(kind, Complex) and not issubclass(kind, Real) for kind in set(map(type, values)))


def validate_outcome(value: int) -> int:
    """Check that a measurement outcome is -1 or +1 (and not a complex
    number) and return it."""
    if (value != 1 and value != -1) or _complex_types((value,)):
        raise ValueError(f"outcome must be -1 or +1, got {value!r}")
    return int(value)


def _check_unit_interval(name: str, value) -> None:
    # an exact value is decided in integers, as |numerator| <= denominator
    if not (abs(value.numerator) <= abs(value.denominator) if is_exact(value)
            else within(value, 1, DOMAIN_SLACK) and within(-value, 1, DOMAIN_SLACK)):
        raise ValueError(f"{name} must lie in [-1, 1], got {value}")


@dataclass(frozen=True)
class Behavior:
    """The outcome quadruple (A1, A2, B1, B2) a hidden variable induces.

    Two tags that produce the same quadruple are statistically
    indistinguishable in a four-setting experiment, so at most 16
    effective classes exist regardless of the tag domain.
    """

    a1: int
    a2: int
    b1: int
    b2: int

    def __post_init__(self):
        for v in (self.a1, self.a2, self.b1, self.b2):
            validate_outcome(v)
        object.__setattr__(self, "_hash", hash(self.outcomes()))  # the generated hash's value, once

    def __hash__(self) -> int:
        return self._hash

    def outcomes(self) -> tuple[int, int, int, int]:
        return (self.a1, self.a2, self.b1, self.b2)

    def alice(self, index: int) -> int:
        return self.a1 if index == 1 else self.a2

    def bob(self, index: int) -> int:
        return self.b1 if index == 1 else self.b2

    @property
    def code(self) -> int:
        """Bit-packed form, a1 most significant, +1 encoded as bit 1."""
        return (
            ((self.a1 > 0) << 3)
            | ((self.a2 > 0) << 2)
            | ((self.b1 > 0) << 1)
            | (self.b2 > 0)
        )

    @classmethod
    def from_code(cls, code: int) -> "Behavior":
        if not 0 <= code < 16:
            raise ValueError(f"behavior code must be in 0..15, got {code}")
        bit = lambda k: 1 if code & (1 << k) else -1
        return cls(bit(3), bit(2), bit(1), bit(0))

    def compact(self) -> str:
        """Four-character form like '+-++' in (a1, a2, b1, b2) order."""
        return "".join("+" if v > 0 else "-" for v in self.outcomes())

    @classmethod
    def from_compact(cls, s: str) -> "Behavior":
        if len(s) != 4 or any(c not in "+-" for c in s):
            raise ValueError(f"expected four chars of '+'/'-', got {s!r}")
        return cls(*(1 if c == "+" else -1 for c in s))


#: All 16 behaviors in code order (code 0 = all -1, code 15 = all +1).
ALL_BEHAVIORS: tuple[Behavior, ...] = tuple(Behavior.from_code(c) for c in range(16))

#: Per setting pair (i, k), the product A_i * B_k of each behavior class,
#: indexed by code.
CLASS_SIGNS: dict[tuple[int, int], tuple[int, ...]] = {
    (i, k): tuple(beh.alice(i) * beh.bob(k) for beh in ALL_BEHAVIORS) for i, k in SETTING_PAIRS
}


@dataclass(frozen=True)
class CorrelationTable:
    """The four correlations E(a_i, b_k). Entries may be floats
    (empirical estimates) or exact rationals (analytic values)."""

    e11: Any
    e12: Any
    e21: Any
    e22: Any

    def __post_init__(self):
        for f in fields(self):
            _check_unit_interval(f.name, getattr(self, f.name))

    def as_tuple(self) -> tuple:
        return (self.e11, self.e12, self.e21, self.e22)

    def value(self, pair: tuple[int, int]):
        i, k = pair
        return self.as_tuple()[2 * (i - 1) + (k - 1)]


# Batch samplers receive a dedicated random stream, a trial count, and the
# setting pair; they return one tag per trial. Models that honour
# measurement independence must ignore the pair argument.
LambdaSampler = Callable[[np.random.Generator, int, tuple[int, int]], Sequence[Hashable]]
ResponseFn = Callable[[int, Any], int]
BatchResponseFn = Callable[[int, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class LhvModel:
    """A deterministic local hidden-variable model.

    ``respond_alice`` and ``respond_bob`` map (setting index, tag) to an
    outcome and must be pure: equal inputs always give equal outcomes.
    ``sample_lambda`` draws a batch of tags from the source.
    ``declares_mi`` asserts that the sampler's distribution does not
    depend on the setting pair; the engine can test the claim through
    ``mi_diagnostic`` but never assumes it.

    ``enumerate_lambda``, when given, returns the exact tag distribution
    for a setting pair as (tag, weight) pairs with rational weights; it
    compiles to ``class_distribution``, which the exact code paths and
    ``run`` read. The batch response functions are optional vectorized
    twins of the scalar ones; they serve the per-trial routes, which are
    the tag path of a model without ``enumerate_lambda`` and the trial log.
    """

    name: str
    respond_alice: ResponseFn
    respond_bob: ResponseFn
    sample_lambda: LambdaSampler
    declares_mi: bool
    enumerate_lambda: Callable[[tuple[int, int]], Sequence[tuple[Hashable, Fraction]]] | None = None
    respond_alice_batch: BatchResponseFn | None = None
    respond_bob_batch: BatchResponseFn | None = None
    description: str = ""

    @functools.cached_property
    def class_distribution(self) -> tuple[dict[tuple[int, int], tuple[int, ...]], int] | None:
        """The declared tag distribution compiled to class weights, on first
        use: (per setting pair, the 16 class numerators in code order; their
        common denominator d), or None without ``enumerate_lambda``.

        Each distinct declared tag's class comes from its scalar responses,
        evaluated once; a response that raises or returns a value other
        than -1/+1 raises ModelError naming the class distribution stage.
        An ``enumerate_lambda`` that raises or declares an unhashable tag, a
        negative weight and weights of a pair that do not sum to 1 raise
        ModelError naming enumerate_lambda.
        """
        if self.enumerate_lambda is None:
            return None
        where = f"model {self.name!r}: enumerate_lambda"
        codes = {}
        sums, dens = {}, {}
        for pair in SETTING_PAIRS:
            try:
                declared = list(self.enumerate_lambda(pair))
                tags, weights = zip(*declared) if declared else ((), ())
                weights = [w if type(w) is Fraction else Fraction(w) for w in weights]
                fresh = [tag for tag in dict.fromkeys(tags) if tag not in codes]
            except Exception as exc:
                raise ModelError(f"{where} failed: {exc}") from exc
            for tag in fresh:
                codes[tag] = _code_of(self, tag, "class distribution")
            # as Python ints: numpy's fixed-width integers would overflow
            nums = [int(w.numerator) for w in weights]
            denominators = [int(w.denominator) for w in weights]
            dens[pair] = d = math.lcm(*set(denominators))
            sums[pair] = acc = [0] * 16
            for tag, w, num, den in zip(tags, weights, nums, denominators):
                if num < 0:
                    raise ModelError(f"{where}: tag {tag!r} of pair {pair} has weight {w} < 0")
                acc[codes[tag]] += num * (d // den)
            if sum(acc) != d:
                raise ModelError(f"{where}: declared tag weights of pair {pair} sum to {Fraction(sum(acc), d)}, not 1")
        d = math.lcm(*dens.values())
        return {pair: tuple(n * (d // dens[pair]) for n in sums[pair]) for pair in SETTING_PAIRS}, d


def behavior_of(model: LhvModel, lam: Hashable) -> Behavior:
    """Evaluate a model's full response quadruple at one tag."""
    return ALL_BEHAVIORS[_code_of(model, lam)]


def _code_of(model: LhvModel, lam: Hashable, stage: str | None = None) -> int:
    """``behavior_of(model, lam).code`` without building the Behavior. Given
    a ``stage``, a failing response raises ModelError naming it."""
    try:
        outs = (model.respond_alice(1, lam), model.respond_alice(2, lam),
                model.respond_bob(1, lam), model.respond_bob(2, lam))
        if not {1, -1}.issuperset(outs) or _complex_types(outs):
            for value in outs:
                validate_outcome(value)
        # inside the try: a value that equals +-1 need not compare with 0
        return (outs[0] > 0) << 3 | (outs[1] > 0) << 2 | (outs[2] > 0) << 1 | (outs[3] > 0)
    except Exception as exc:
        if stage is None:
            raise
        raise ModelError(f"model {model.name!r}: {stage}: responses at tag {lam!r} failed: {exc}") from exc


def _batch_responses(
    scalar: ResponseFn, batch: BatchResponseFn | None, index: int, lams: np.ndarray
) -> np.ndarray:
    """The batch twin's answer as an array, else the scalar responses', each
    of which must equal -1 or +1 (``_code_of``'s rule)."""
    if batch is not None:
        return np.asarray(batch(index, lams))
    outs = [scalar(index, lam) for lam in lams]
    if not {1, -1}.issuperset(outs) or _complex_types(outs):
        raise _NotAnOutcome
    return np.array(outs, dtype=np.int64)


class _NotAnOutcome(ValueError):
    """A scalar response answered a value other than -1/+1."""


#: The bit of a behavior code that holds each party's response at each
#: setting index (a1 most significant, see Behavior.code).
_CODE_BIT = {("alice", 1): 3, ("alice", 2): 2, ("bob", 1): 1, ("bob", 2): 0}


def behavior_codes(model: LhvModel, lams: np.ndarray) -> np.ndarray:
    """Vectorized behavior_of: map an array of tags to behavior codes, each
    party's outcomes from the model's batch twin when it has one and from
    its scalar response otherwise.

    A response that raises, answers in another shape than ``lams`` or
    returns a value other than -1/+1 raises ModelError naming the model,
    the class analysis stage, the party and the setting. A twin's dtype
    must be bool, integer or float, so a complex or object array is
    refused as a whole.
    """
    lams = np.asarray(lams)
    # all responses before any packing, each held as a bool array: in one
    # call over 2^20 tags, packing between them left heap holes worth 8 MB of
    # peak RSS (engine's calls pass one block of tags, where the order moves nothing)
    outs = {}
    for party, index in _CODE_BIT:
        respond = f"respond_{party}"
        where = f"model {model.name!r}: class analysis: {respond} at setting {index}"
        try:
            out = _batch_responses(getattr(model, respond), getattr(model, f"{respond}_batch"), index, lams)
            shaped = out.shape == lams.shape
            valid = shaped and out.dtype.kind in "biuf" and np.all(np.abs(out) == 1)
        except _NotAnOutcome:
            shaped, valid = True, False
        except Exception as exc:
            raise ModelError(f"{where} failed: {exc}") from exc
        if not shaped:
            raise ModelError(f"{where} returned outcomes of shape {out.shape} for tags of shape {lams.shape}")
        if not valid:
            raise ModelError(f"{where} returned a value other than -1/+1")
        outs[party, index] = out > 0
    return sum(outs[side].astype(np.uint8) << bit for side, bit in _CODE_BIT.items())
