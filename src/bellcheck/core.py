"""Domain types shared by every other module.

Outcomes are plain ints in {-1, +1} so products and averages can be
written directly. Hidden-variable tags are opaque hashable values; the
engine never looks inside one. It passes tags to the model's response
functions, or, when the model declares a small domain of non-negative
integer tags, uses them as indices into the model's class table.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Any, Callable, Hashable, Sequence

import numpy as np

from .errors import ModelError

#: The four setting pairs (alice index, bob index), in canonical order.
SETTING_PAIRS: tuple[tuple[int, int], ...] = ((1, 1), (1, 2), (2, 1), (2, 2))

#: Index of a setting pair within SETTING_PAIRS, used to key random streams.
PAIR_CODES: dict[tuple[int, int], int] = {p: i for i, p in enumerate(SETTING_PAIRS)}


class Party(enum.Enum):
    ALICE = "alice"
    BOB = "bob"


def validate_outcome(value: int) -> int:
    """Check that a measurement outcome is -1 or +1 and return it."""
    if value != 1 and value != -1:
        raise ValueError(f"outcome must be -1 or +1, got {value!r}")
    return int(value)


def _check_unit_interval(name: str, value) -> None:
    if isinstance(value, Rational):
        if not (-1 <= value <= 1):
            raise ValueError(f"{name} must lie in [-1, 1], got {value}")
    else:
        v = float(value)
        if not math.isfinite(v) or not (-1.0 - 1e-12 <= v <= 1.0 + 1e-12):
            raise ValueError(f"{name} must lie in [-1, 1], got {value}")


@dataclass(frozen=True)
class Setting:
    """One measurement setting: which party, which of their two knob
    positions, and optionally the physical analyzer angle in radians."""

    party: Party
    index: int
    angle: float | None = None

    def __post_init__(self):
        if self.index not in (1, 2):
            raise ValueError(f"setting index must be 1 or 2, got {self.index}")
        if self.angle is not None and not math.isfinite(self.angle):
            raise ValueError("setting angle must be finite")


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


@dataclass(frozen=True)
class TrialRecord:
    """A single run: the setting pair, both clicks, and (for LHV runs)
    the hidden-variable tag kept for diagnostics."""

    setting_pair: tuple[int, int]
    alice_click: int
    bob_click: int
    lam: Hashable | None = None

    def __post_init__(self):
        if tuple(self.setting_pair) not in PAIR_CODES:
            raise ValueError(f"unknown setting pair {self.setting_pair!r}")
        validate_outcome(self.alice_click)
        validate_outcome(self.bob_click)


@dataclass(frozen=True)
class CorrelationTable:
    """The four correlations E(a_i, b_k). Entries may be floats
    (empirical estimates) or exact rationals (analytic values)."""

    e11: Any
    e12: Any
    e21: Any
    e22: Any

    def __post_init__(self):
        for name, v in zip(("e11", "e12", "e21", "e22"), self.as_tuple()):
            _check_unit_interval(name, v)

    def as_tuple(self) -> tuple:
        return (self.e11, self.e12, self.e21, self.e22)

    def value(self, pair: tuple[int, int]):
        i, k = pair
        return self.as_tuple()[2 * (i - 1) + (k - 1)]

    @property
    def is_exact(self) -> bool:
        return all(isinstance(v, Rational) for v in self.as_tuple())


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
    for a setting pair as (tag, weight) pairs with rational weights;
    this powers the analytic (exact arithmetic) code paths, and a small
    domain of non-negative integer tags also compiles to a class table
    (see ``class_table``). The batch response functions are optional
    vectorized twins of the scalar ones, used only by models without
    such a table.
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
    def class_table(self) -> np.ndarray | None:
        """``class_table(self)``, compiled on first use and kept."""
        return class_table(self)


def behavior_of(model: LhvModel, lam: Hashable) -> Behavior:
    """Evaluate a model's full response quadruple at one tag."""
    return Behavior(
        validate_outcome(model.respond_alice(1, lam)),
        validate_outcome(model.respond_alice(2, lam)),
        validate_outcome(model.respond_bob(1, lam)),
        validate_outcome(model.respond_bob(2, lam)),
    )


def _batch_responses(
    scalar: ResponseFn, batch: BatchResponseFn | None, index: int, lams: np.ndarray
) -> np.ndarray:
    if batch is not None:
        return np.asarray(batch(index, lams))
    return np.fromiter((scalar(index, lam) for lam in lams), dtype=np.int64, count=len(lams))


#: Tags at or above this never index a class table; a model declaring one
#: keeps the per-trial batch path.
MAX_TABLE_TAGS = 1 << 16

#: Class-table entry of a tag the model does not declare (codes are 0..15).
UNDECLARED = 16


def _is_table_tag(tag) -> bool:
    return isinstance(tag, (int, np.integer)) and not isinstance(tag, bool) and 0 <= tag < MAX_TABLE_TAGS


def class_table(model: LhvModel) -> np.ndarray | None:
    """The model compiled to a dense tag -> behavior code table, or None.

    A model gets a table when ``enumerate_lambda`` declares, over all four
    setting pairs, only non-negative integer tags below MAX_TABLE_TAGS.
    Entry t is ``behavior_of(model, t).code`` for a declared tag t and
    UNDECLARED otherwise; each declared tag is evaluated once through the
    scalar responses, which therefore define the clicks of every trial.
    A response that raises or returns a value other than -1/+1 raises
    ModelError. ``model.class_table`` holds the compiled table.
    """
    if model.enumerate_lambda is None:
        return None
    try:
        tags = {tag for pair in SETTING_PAIRS for tag, _ in model.enumerate_lambda(pair)}
    except Exception as exc:
        raise ModelError(f"model {model.name!r}: enumerate_lambda failed: {exc}") from exc
    if not tags or not all(_is_table_tag(t) for t in tags):
        return None
    table = np.full(max(int(t) for t in tags) + 1, UNDECLARED, dtype=np.uint8)
    for tag in sorted(tags):
        try:
            table[tag] = behavior_of(model, tag).code
        except Exception as exc:
            raise ModelError(
                f"model {model.name!r}: class table: responses at tag {tag!r} failed: {exc}"
            ) from exc
    table.setflags(write=False)
    return table


def table_codes(model: LhvModel, lams, stage: str = "class analysis") -> np.ndarray:
    """Behavior codes of ``lams`` looked up in ``model.class_table``.

    Raises ModelError naming ``stage`` and the first tag outside the
    declared domain.
    """
    table = model.class_table
    lams = np.asarray(lams)
    if lams.dtype.kind not in "iu":
        raise ModelError(
            f"model {model.name!r}: {stage}: tags of dtype {lams.dtype} are "
            "outside the declared integer domain"
        )
    if lams.size == 0:
        return np.zeros(0, dtype=np.uint8)
    if lams.min() < 0 or lams.max() >= len(table):
        outside = lams[(lams < 0) | (lams >= len(table))]
    else:
        codes = table[lams]
        if codes.max() < UNDECLARED:
            return codes
        outside = lams[codes == UNDECLARED]
    raise ModelError(
        f"model {model.name!r}: {stage}: tag {outside[0].item()!r} is outside the declared domain"
    )


def behavior_codes(model: LhvModel, lams: np.ndarray) -> np.ndarray:
    """Vectorized behavior_of: map an array of tags to behavior codes,
    through the class table when the model has one."""
    if model.class_table is not None:
        return table_codes(model, lams)
    lams = np.asarray(lams)
    a1 = _batch_responses(model.respond_alice, model.respond_alice_batch, 1, lams)
    a2 = _batch_responses(model.respond_alice, model.respond_alice_batch, 2, lams)
    b1 = _batch_responses(model.respond_bob, model.respond_bob_batch, 1, lams)
    b2 = _batch_responses(model.respond_bob, model.respond_bob_batch, 2, lams)
    for arr in (a1, a2, b1, b2):
        if not np.all(np.abs(arr) == 1):
            raise ValueError("model response returned a value other than -1/+1")
    return (
        ((a1 > 0).astype(np.uint8) << 3)
        | ((a2 > 0).astype(np.uint8) << 2)
        | ((b1 > 0).astype(np.uint8) << 1)
        | (b2 > 0).astype(np.uint8)
    )
