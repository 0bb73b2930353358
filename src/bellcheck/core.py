"""Domain types shared by every other module.

Outcomes are plain ints in {-1, +1} so products and averages can be
written directly. Hidden-variable tags are opaque hashable values; the
engine never looks inside one. It passes tags to the model's response
functions, or, when the model declares a small domain of non-negative
integer tags, uses them as indices into the model's class table.
"""

from __future__ import annotations

import functools
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


#: Tolerance policy: an exact (Rational) value gets no slack. A float gets
#: DOMAIN_SLACK in a domain check (an entry of [-1, 1], a nonnegative pair
#: cell, weights summing to 1), for the rounding of values computed from
#: exact ones, and VERDICT_SLACK in a verdict against the CHSH bound 2, for
#: the rounding of a sum of four such values.
DOMAIN_SLACK = 1e-12
VERDICT_SLACK = 1e-9


def within(value, limit, slack) -> bool:
    """Whether value <= limit: exactly when value is Rational, otherwise
    as a float up to ``slack`` (DOMAIN_SLACK or VERDICT_SLACK). NaN is
    never within a limit."""
    if isinstance(value, Rational):
        return value <= limit
    return float(value) <= limit + slack


def validate_outcome(value: int) -> int:
    """Check that a measurement outcome is -1 or +1 and return it."""
    if value != 1 and value != -1:
        raise ValueError(f"outcome must be -1 or +1, got {value!r}")
    return int(value)


def _check_unit_interval(name: str, value) -> None:
    if not (within(value, 1, DOMAIN_SLACK) and within(-value, 1, DOMAIN_SLACK)):
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


#: The bit of a behavior code that holds each party's response at each
#: setting index (a1 most significant, see Behavior.code).
_CODE_BIT = {("alice", 1): 3, ("alice", 2): 2, ("bob", 1): 1, ("bob", 2): 0}


def responses(model: LhvModel, party: str, index: int, lams: np.ndarray, stage: str) -> np.ndarray:
    """The outcomes of ``party`` ("alice" or "bob") at setting ``index``
    for each tag in ``lams``, from the model's batch twin when it has one
    and from its scalar response otherwise.

    A response that raises or returns a value other than -1/+1 raises
    ModelError naming the model and ``stage``.
    """
    where = f"model {model.name!r}: {stage}: respond_{party} at setting {index}"
    try:
        out = _batch_responses(
            getattr(model, f"respond_{party}"), getattr(model, f"respond_{party}_batch"), index, lams
        )
        valid = np.all(np.abs(out) == 1)
    except Exception as exc:
        raise ModelError(f"{where} failed: {exc}") from exc
    if not valid:
        raise ModelError(f"{where} returned a value other than -1/+1")
    return out


def pair_outcomes(
    model: LhvModel, pair: tuple[int, int], lams: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Alice's and Bob's outcomes (int8) at setting pair ``pair`` for tags
    just drawn by ``sample_lambda``: two bit reads of the tags' codes in
    the class table when the model has one, the responses otherwise."""
    sides = (("alice", pair[0]), ("bob", pair[1]))
    if model.class_table is None:
        return tuple(responses(model, *side, lams, "trial generation").astype(np.int8) for side in sides)
    codes = table_codes(model, lams, "sample_lambda")
    return tuple(((codes >> _CODE_BIT[side]) & 1).astype(np.int8) * 2 - 1 for side in sides)


def sampled_codes(model: LhvModel, lams: np.ndarray) -> np.ndarray:
    """Behavior codes of tags just drawn by ``sample_lambda``: looked up in
    the class table, where a tag outside the declared domain is the
    sampler's fault, or evaluated through all four responses."""
    if model.class_table is None:
        return behavior_codes(model, lams)
    return table_codes(model, lams, "sample_lambda")


def behavior_codes(model: LhvModel, lams: np.ndarray) -> np.ndarray:
    """Vectorized behavior_of: map an array of tags to behavior codes,
    through the class table when the model has one. A misbehaving
    response raises ModelError naming the class analysis stage."""
    if model.class_table is not None:
        return table_codes(model, lams)
    lams = np.asarray(lams)
    codes = np.zeros(len(lams), dtype=np.uint8)
    for (party, index), bit in _CODE_BIT.items():
        codes |= (responses(model, party, index, lams, "class analysis") > 0).astype(np.uint8) << bit
    return codes
