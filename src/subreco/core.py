"""Ground-set subsets, set-function oracles, adjacency rules, and sequence checks.

Conventions used throughout the package: a ground set of ``n`` elements carries
ids ``0..n-1``, a set function assigns a real value to every subset, and a
reconfiguration sequence is a walk over subsets whose consecutive entries
differ by a single elementary move (an exchange, an addition, or a removal).
The value of a sequence is the minimum function value among its entries.

Subsets are immutable bit-vector values so that search frontiers can hash and
compare millions of them cheaply.  ``str(Subset)`` is ``{i1,i2,...}`` with
ascending 0-indexed ids; ``fileio`` reads and writes the 1-indexed forms that
files and the command line use.  A sequence validation or a structural check
answers with a :class:`Verdict`, which names its counterexample by subsets
alone, so one subset format prints every id in it.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

VALUE_SLACK = 1e-9
CHECK_TOL = 1e-9
EXHAUSTIVE_LIMIT = 16
# batch forms take masks as int64, so they serve universes of up to 62 elements,
# and this many at a time, which keeps their temporary arrays small
_BATCH_BITS = 62
_BATCH_CHUNK = 4096


class UniverseMismatchError(ValueError):
    """A subset was used with an oracle or subset over a different ground set."""


class OracleDomainError(ValueError):
    """A query touched elements that are outside the oracle's domain."""


class BudgetExceededError(RuntimeError):
    """A search ran out of its budget, or an enumeration would exceed its size guard."""


def _bits(mask: int) -> Iterator[int]:
    """The ids of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class GroundSet:
    """Ground set of ``n`` elements with ids ``0..n-1``."""

    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"ground set size must be nonnegative, got {self.n}")


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Subset:
    """Immutable subset of a ground set, stored as a bitmask.

    Equality is extensional and includes the universe size; subsets over
    different universes never compare equal and mixing them raises
    :class:`UniverseMismatchError`.
    """

    mask: int
    n: int

    def __init__(self, n: int, members: Iterable[int] = ()):
        mask = 0
        for e in members:
            if not 0 <= e < n:
                raise UniverseMismatchError(f"element {e} outside universe of size {n}")
            mask |= 1 << e
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "Subset":
        if mask < 0 or mask >> n:
            raise UniverseMismatchError(f"mask {mask:#x} outside universe of size {n}")
        s = cls.__new__(cls)
        object.__setattr__(s, "n", n)
        object.__setattr__(s, "mask", mask)
        return s

    @classmethod
    def empty(cls, n: int) -> "Subset":
        return cls.from_mask(n, 0)

    @classmethod
    def full(cls, n: int) -> "Subset":
        return cls.from_mask(n, (1 << n) - 1)

    # -- container protocol -------------------------------------------------

    def __contains__(self, e: int) -> bool:
        return 0 <= e < self.n and bool(self.mask >> e & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        return _bits(self.mask)

    def members(self) -> tuple[int, ...]:
        return tuple(self)

    # -- set algebra --------------------------------------------------------

    def _check(self, other: "Subset") -> None:
        if self.n != other.n:
            raise UniverseMismatchError(
                f"universe sizes differ: {self.n} vs {other.n}"
            )

    def __or__(self, other: "Subset") -> "Subset":
        self._check(other)
        return Subset.from_mask(self.n, self.mask | other.mask)

    def __and__(self, other: "Subset") -> "Subset":
        self._check(other)
        return Subset.from_mask(self.n, self.mask & other.mask)

    def __sub__(self, other: "Subset") -> "Subset":
        self._check(other)
        return Subset.from_mask(self.n, self.mask & ~other.mask)

    def __xor__(self, other: "Subset") -> "Subset":
        self._check(other)
        return Subset.from_mask(self.n, self.mask ^ other.mask)

    def issubset(self, other: "Subset") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def __repr__(self) -> str:
        return f"Subset({self.n}, {{{','.join(str(e) for e in self)}}})"

    def __str__(self) -> str:
        return "{" + ",".join(str(e) for e in self) + "}"


class AdjacencyRule(Enum):
    """Elementary move allowed between consecutive sets of a sequence.

    TJ exchanges one element for another (sizes preserved), TAR adds or
    removes a single element, TJAR allows either move.
    """

    TJ = "tj"
    TAR = "tar"
    TJAR = "tjar"

    @classmethod
    def parse(cls, token: str) -> "AdjacencyRule":
        try:
            return cls(token.strip().lower())
        except ValueError:
            raise ValueError(f"unknown adjacency rule {token!r}") from None

    @property
    def token(self) -> str:
        return self.value


class SetFunctionOracle:
    """Deterministic set function with call accounting.

    ``fn`` takes an in-range int mask (bit ``e`` set when element ``e`` is in
    the subset) and must return identical values for identical masks;
    randomized constructions have to be frozen before being wrapped.
    :meth:`evaluate` takes a :class:`Subset` or a mask of any integer type
    (read by ``operator.index``), and raises :class:`UniverseMismatchError`
    for one outside the universe.  The call counter increases by one per
    completed evaluation; it takes no lock, since oracles are evaluated from
    the calling thread only.

    ``batch_fn`` (optional) is the same function over many subsets at once:
    it takes a 1-D int64 array of in-range masks and returns their values as
    a float64 array, equal bit for bit to ``fn`` on each, or None when it
    cannot (the log-determinant's batch does so on a failed Cholesky
    factorization).  :meth:`evaluate_many` uses it and otherwise evaluates
    one mask at a time; either way it charges one call per mask.

    ``claims_*`` flags are declarations by the constructor, not verified
    facts; :func:`check_submodular` and :func:`check_monotone` test them.
    """

    def __init__(
        self,
        fn: Callable[[int], float],
        universe: GroundSet,
        *,
        claims_monotone: bool = False,
        claims_submodular: bool = False,
        claims_nonnegative: bool = False,
        name: str = "",
        serial: Optional[tuple] = None,
        batch_fn: Optional[Callable[[np.ndarray], Optional[np.ndarray]]] = None,
    ):
        self._fn = fn
        self._batch_fn = batch_fn
        self.universe = universe
        self.claims_monotone = claims_monotone
        self.claims_submodular = claims_submodular
        self.claims_nonnegative = claims_nonnegative
        self.name = name
        self.serial = serial  # optional (kind, payload) used by file writers
        self._calls = 0

    @property
    def calls(self) -> int:
        return self._calls

    def evaluate(self, s: Union[Subset, int]) -> float:
        n = self.universe.n
        if isinstance(s, Subset) and s.n != n:
            raise UniverseMismatchError(f"subset over universe {s.n} queried on oracle over {n}")
        mask = s.mask if isinstance(s, Subset) else operator.index(s)
        if mask < 0 or mask >> n:
            raise UniverseMismatchError(f"mask {mask:#x} outside universe of size {n}")
        value = self._fn(mask)
        if self.claims_nonnegative and value < -1e-12:
            raise ValueError(f"nonnegative oracle returned {value} on {Subset.from_mask(n, mask)}")
        self._calls += 1
        return value

    def evaluate_many(self, masks: Sequence[int]) -> np.ndarray:
        """The values of the subsets with these masks, in the order given.

        Charges ``len(masks)`` calls, as many :meth:`evaluate` calls would.
        The batch form runs when there is one, ``n <= 62`` and every mask
        lies in the universe.  A batch it declines, or one holding a value
        below ``-1e-12`` on a ``claims_nonnegative`` oracle, is discarded
        uncharged, and :meth:`evaluate` reruns the masks in order, so errors,
        their messages and the calls charged before them are those of the
        one-at-a-time loop.
        """
        n = self.universe.n
        if self._batch_fn is not None and n <= _BATCH_BITS:
            try:
                arr = np.asarray(masks, dtype=np.int64)
            except OverflowError:  # a mask past 2**63 lies outside the universe
                arr = None
            if arr is not None and arr.ndim == 1 and not ((arr < 0) | (arr >> n != 0)).any():
                values = np.empty(len(arr))
                for lo in range(0, len(arr), _BATCH_CHUNK):
                    part = self._batch_fn(arr[lo : lo + _BATCH_CHUNK])
                    if part is None or self.claims_nonnegative and (part < -1e-12).any():
                        break
                    values[lo : lo + _BATCH_CHUNK] = part
                else:
                    self._calls += len(values)
                    return values
        return np.array([self.evaluate(m) for m in masks], dtype=np.float64)

    def __repr__(self) -> str:
        flags = "".join(
            t
            for t, on in (
                ("M", self.claims_monotone),
                ("S", self.claims_submodular),
                ("N", self.claims_nonnegative),
            )
            if on
        )
        return f"SetFunctionOracle(n={self.universe.n}, flags={flags!r}, name={self.name!r})"


def residual(oracle: SetFunctionOracle, r: Subset) -> SetFunctionOracle:
    """Residual function ``S -> f(S + R) - f(R)`` on the ground set minus R.

    The returned oracle keeps the original index space and masks R: queries
    intersecting R raise :class:`OracleDomainError`.  Monotonicity and
    submodularity are preserved, so the claim flags propagate.  Construction
    costs one evaluation of the base oracle (for ``f(R)``).
    """
    if r.n != oracle.universe.n:
        raise UniverseMismatchError("residual base set over wrong universe")
    n = oracle.universe.n
    offset = oracle.evaluate(r)
    r_mask = r.mask

    def fn(mask: int) -> float:
        if mask & r_mask:
            raise OracleDomainError(
                f"residual query {Subset.from_mask(n, mask)} intersects masked set {r}"
            )
        return oracle.evaluate(mask | r_mask) - offset

    return SetFunctionOracle(
        fn,
        oracle.universe,
        claims_monotone=oracle.claims_monotone,
        claims_submodular=oracle.claims_submodular,
        # residual of a monotone function is nonnegative by definition
        claims_nonnegative=oracle.claims_monotone,
        name=f"residual({oracle.name or 'f'}, {r})",
    )


def total_curvature(oracle: SetFunctionOracle) -> float:
    """Total curvature ``1 - min_e (f([n]) - f([n]-e)) / f({e})`` in [0, 1].

    Measures how far the function is from modular: 0 for modular functions,
    up to 1 (coverage functions attain 1).  Elements with ``f({e}) = 0``
    contribute ratio 1 (monotonicity pins their top marginal to 0, so the
    ratio is 0/0 and must not inflate the curvature).  Uses exactly ``2n + 1``
    evaluations.
    """
    if not (oracle.claims_monotone and oracle.claims_nonnegative):
        raise ValueError("total curvature needs a monotone nonnegative oracle")
    n = oracle.universe.n
    full = (1 << n) - 1
    f_full = oracle.evaluate(full)
    worst = 1.0
    for e in range(n):
        f_drop = oracle.evaluate(full ^ 1 << e)
        f_single = oracle.evaluate(1 << e)
        if f_single != 0.0:
            ratio = (f_full - f_drop) / f_single
            if ratio < worst:
                worst = ratio
    return min(1.0, max(0.0, 1.0 - worst))


def modular_upper_bound(oracle: SetFunctionOracle, r: Subset) -> SetFunctionOracle:
    """Modular bound ``S -> sum_{e in S} (f({e} + R) - f(R))`` masking R.

    For a monotone submodular oracle with curvature ``kappa`` this sandwiches
    the residual: ``(1 - kappa) * bound(S) <= residual(S) <= bound(S)``.
    Singleton residual values are evaluated eagerly, so construction costs
    ``n - |R| + 1`` base evaluations and later queries are free.
    """
    if not (oracle.claims_monotone and oracle.claims_submodular):
        raise ValueError("modular upper bound needs a monotone submodular oracle")
    res = residual(oracle, r)
    n = oracle.universe.n
    r_mask = r.mask
    weights = {}
    for e in range(n):
        if not r_mask >> e & 1:
            weights[e] = res.evaluate(1 << e)

    def fn(mask: int) -> float:
        if mask & r_mask:
            raise OracleDomainError(
                f"modular bound query {Subset.from_mask(n, mask)} intersects masked set {r}"
            )
        # in order: built-in sum() compensates from Python 3.12
        total = 0.0
        for e in _bits(mask):
            total += weights[e]
        return total

    return SetFunctionOracle(
        fn,
        oracle.universe,
        claims_monotone=oracle.claims_monotone,
        claims_submodular=True,
        claims_nonnegative=oracle.claims_monotone,
        name=f"modular_bound({oracle.name or 'f'}, {r})",
        serial=("modular", tuple(weights.get(e, 0.0) for e in range(n))),
    )


@dataclass(frozen=True, slots=True, init=False, repr=False)
class ReconfigSequence:
    """Ordered sequence of subsets ``S(0)..S(l)``; its length is ``l``."""

    steps: tuple[Subset, ...]

    def __init__(self, steps: Sequence[Subset]):
        steps = tuple(steps)
        if not steps:
            raise ValueError("a reconfiguration sequence holds at least one subset")
        n = steps[0].n
        for s in steps:
            if s.n != n:
                raise UniverseMismatchError("sequence mixes universes")
        object.__setattr__(self, "steps", steps)

    @property
    def length(self) -> int:
        return len(self.steps) - 1

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[Subset]:
        return iter(self.steps)

    def __getitem__(self, i: int) -> Subset:
        return self.steps[i]

    def __repr__(self) -> str:
        return "<" + ", ".join(str(s) for s in self.steps) + ">"


def sequence_value(oracle: SetFunctionOracle, seq: ReconfigSequence) -> float:
    """Minimum function value over all steps; duplicates are re-evaluated."""
    return min(oracle.evaluate(s) for s in seq)


@dataclass(frozen=True)
class ProblemInstance:
    """A reconfiguration task: transform X into Y under a rule.

    ``theta`` is None or the finite threshold every step must meet.  Under
    TJ, X and Y have one size, which ``cardinality_k`` (TJ only) may restate;
    construction raises ``ValueError`` otherwise.  The standing assumption
    ``theta <= min(f(X), f(Y))`` is not checked (it would evaluate the
    oracle); solvers enforce it by rejecting infeasible endpoints.
    """

    oracle: SetFunctionOracle
    x: Subset
    y: Subset
    rule: AdjacencyRule
    theta: Optional[float] = None
    cardinality_k: Optional[int] = None

    def __post_init__(self):
        n = self.oracle.universe.n
        if self.x.n != n or self.y.n != n:
            raise UniverseMismatchError("endpoints over wrong universe")
        if self.theta is not None and not math.isfinite(self.theta):
            raise ValueError(f"threshold must be finite, got theta={self.theta}")
        if self.cardinality_k is not None and self.rule is not AdjacencyRule.TJ:
            raise ValueError("fixed-cardinality instances use the TJ rule")
        k = len(self.x) if self.cardinality_k is None else self.cardinality_k
        if self.rule is AdjacencyRule.TJ and not len(self.x) == len(self.y) == k:
            raise ValueError(f"endpoints must have size {k}, got {len(self.x)} and {len(self.y)}")


def is_adjacent(rule: AdjacencyRule, s: Subset, t: Subset) -> bool:
    """True when a single step under ``rule`` transforms S into T."""
    s._check(t)
    diff = (s.mask ^ t.mask).bit_count()
    if rule is AdjacencyRule.TJ:
        return diff == 2 and len(s) == len(t)
    if rule is AdjacencyRule.TAR:
        return diff == 1
    return diff == 1 or (diff == 2 and len(s) == len(t))


def neighbor_masks(rule: AdjacencyRule, ground: int, mask: int) -> list[int]:
    """Masks of all subsets of ``ground`` adjacent to ``mask``, in a fixed order.

    Removals (of the bits of ``mask``) come first, then additions (of the
    bits of ``ground & ~mask``), each by ascending id, then exchanges by
    (removed id, added id).  A fixed order keeps searches that break ties by
    insertion bit-reproducible.  ``mask`` must be a subset of ``ground``.
    """
    free = ground & ~mask
    inside = [1 << e for e in range(mask.bit_length()) if mask >> e & 1]
    outside = [1 << e for e in range(free.bit_length()) if free >> e & 1]
    out: list[int] = []
    if rule is not AdjacencyRule.TJ:
        out += [mask ^ bit for bit in inside]
        out += [mask | bit for bit in outside]
    if rule is not AdjacencyRule.TAR:
        for bit in inside:
            removed = mask ^ bit
            out += [removed | add for add in outside]
    return out


def neighbors(rule: AdjacencyRule, s: Subset) -> list[Subset]:
    """All subsets adjacent to S, in the order of :func:`neighbor_masks`."""
    n = s.n
    return [Subset.from_mask(n, m) for m in neighbor_masks(rule, (1 << n) - 1, s.mask)]


@dataclass(frozen=True)
class Verdict:
    """Outcome of a sequence validation or a structural check; falsy iff it failed.

    ``template`` states the failure with one ``{}`` per entry of ``subsets``;
    an element appears as the subset holding it alone.  ``reason`` fills them
    in with ``str`` (0-indexed ids), and :meth:`describe` with any other
    subset format.  ``index`` is a failed validation's step, None for a check.
    """

    ok: bool
    index: Optional[int] = None
    template: str = ""
    subsets: tuple[Subset, ...] = ()

    def __bool__(self) -> bool:
        return self.ok

    @property
    def reason(self) -> Optional[str]:
        return None if self.ok else self.describe()

    def describe(self, fmt: Callable[[Subset], str] = str) -> str:
        return self.template.format(*map(fmt, self.subsets))


_OK = Verdict(True)


def validate_sequence(
    instance: ProblemInstance,
    seq: ReconfigSequence,
) -> Verdict:
    """Check endpoints, adjacency, and threshold feasibility.

    Violations are reported as verdicts (never raised) whose ``index`` is the
    first offending step and whose ``subsets`` are the steps at fault.  A
    fixed cardinality needs no check of its own: X has size ``cardinality_k``
    and every TJ step keeps the size.  Threshold comparisons allow
    ``VALUE_SLACK`` of floating-point leeway.
    """
    steps = seq.steps
    if steps[0].n != instance.oracle.universe.n:
        return Verdict(False, 0, "sequence universe differs from instance")
    if steps[0] != instance.x:
        return Verdict(False, 0, "first step {} is not X", (steps[0],))
    if steps[-1] != instance.y:
        return Verdict(False, len(steps) - 1, "last step {} is not Y", (steps[-1],))
    for i in range(1, len(steps)):
        if not is_adjacent(instance.rule, steps[i - 1], steps[i]):
            template = f"steps {{}} and {{}} are not adjacent under {instance.rule.token}"
            return Verdict(False, i, template, steps[i - 1 : i + 1])
    if instance.theta is not None:
        bound = instance.theta - VALUE_SLACK
        for i, s in enumerate(steps):
            if instance.oracle.evaluate(s) < bound:
                return Verdict(False, i, f"step {{}} falls below threshold {instance.theta}", (s,))
    return _OK


def _lattice(oracle: SetFunctionOracle, check: str) -> tuple[np.ndarray, np.ndarray]:
    """Every mask over the universe in ascending order and f on each, by one
    :meth:`~SetFunctionOracle.evaluate_many` (guarded at ``EXHAUSTIVE_LIMIT``)."""
    n = oracle.universe.n
    if n > EXHAUSTIVE_LIMIT:
        raise BudgetExceededError(
            f"exhaustive {check} check refused for n={n} > {EXHAUSTIVE_LIMIT}"
        )
    masks = np.arange(1 << n, dtype=np.int64)
    return masks, oracle.evaluate_many(masks)


def _split(values: np.ndarray, bit: int) -> tuple[np.ndarray, np.ndarray]:
    """The entries of ``values``, indexed by mask, at the masks without ``bit``
    and at the same masks with it, both in ascending mask order (C order)."""
    pair = values.reshape(-1, 2, 1 << bit)
    return pair[:, 0], pair[:, 1]


def _first_mask(masks: np.ndarray, bad: np.ndarray) -> Optional[int]:
    """The mask at the first true entry of ``bad`` in C order, or None."""
    i = int(np.argmax(bad))
    return int(masks.flat[i]) if bad.flat[i] else None


_DECREASE = "{}, {}: adding {} decreases the value"


def _counterexample(n: int, template: str, *masks: int) -> Verdict:
    """A failed check stating ``template`` over the subsets with these masks."""
    return Verdict(False, None, template, tuple(Subset.from_mask(n, m) for m in masks))


def _require_sampled(mode: str, sample_count: int) -> None:
    if mode != "sampled":
        raise ValueError(f"unknown check mode {mode!r}")
    if sample_count < 1:
        raise ValueError(f"sampled check needs at least one sample, got {sample_count}")


def check_submodular(
    oracle: SetFunctionOracle,
    mode: str = "exhaustive",
    sample_count: int = 1000,
    seed: int = 0,
) -> Verdict:
    """Test the diminishing-returns inequality, exhaustively or by sampling.

    The exhaustive mode tabulates the whole lattice (guarded at n <= 16) with
    one :meth:`~SetFunctionOracle.evaluate_many`, so it costs ``2**n`` calls,
    and checks every triple (S, e, g) with e != g outside S, each ordered
    pair on its own: ``f(S+e) - f(S) >= f(S+g+e) - f(S+g)``.  Chaining these
    immediate-cover inequalities is equivalent to diminishing returns for
    arbitrary S <= T in exact arithmetic; under rounding the tolerance can
    add up along a chain, so sampled (S <= T) pairs can still find what the
    exhaustive scan passes.  The scan takes each element's gains once and
    splits them by every other element, in numpy, and reports the first
    violation in the order S ascending, then e, then g, as the subsets S,
    S + g, {e} and {g}.  Sampled mode draws random (S <= T, e) triples
    instead and reports S, T and {e}.  Both modes compare the difference of
    the two gains, ``(a - b) - (c - d)``, with ``-CHECK_TOL``.
    """
    n = oracle.universe.n
    if mode == "exhaustive":
        masks, table = _lattice(oracle, "submodularity")
        found = []  # per ordered pair (e, g), its first violation (S, e, g)
        with np.errstate(invalid="ignore"):  # -inf - -inf is nan, never a violation
            for e in range(n):
                base, with_e = _split(table, e)
                gain, rest = with_e - base, _split(masks, e)[0].ravel()  # by masks without e
                for g in range(n):
                    if g != e:
                        bit = g - (g > e)  # g's bit once e's is taken out
                        small, large = _split(gain, bit)
                        s = _first_mask(_split(rest, bit)[0], small - large < -CHECK_TOL)
                        if s is not None:
                            found.append((s, e, g))
        if not found:
            return _OK
        s, e, g = min(found)
        template = "{}, {}: gain of {} grows when {} is added"
        return _counterexample(n, template, s, s | 1 << g, 1 << e, 1 << g)
    _require_sampled(mode, sample_count)
    rng = random.Random(seed)
    mask_all = (1 << n) - 1
    for _ in range(sample_count):
        t_mask = rng.getrandbits(n) if n else 0
        if t_mask == mask_all:
            continue
        s_mask = t_mask & (rng.getrandbits(n) if n else 0)
        free = [e for e in range(n) if not t_mask >> e & 1]
        e = rng.choice(free)
        gain_small = oracle.evaluate(s_mask | 1 << e) - oracle.evaluate(s_mask)
        gain_large = oracle.evaluate(t_mask | 1 << e) - oracle.evaluate(t_mask)
        if gain_small - gain_large < -CHECK_TOL:
            template = "{}, {}: gain of {} grows from S to T"
            return _counterexample(n, template, s_mask, t_mask, 1 << e)
    return _OK


def check_monotone(
    oracle: SetFunctionOracle,
    mode: str = "exhaustive",
    sample_count: int = 1000,
    seed: int = 0,
) -> Verdict:
    """Test ``f(S) <= f(S + e)`` for all (S, e), exhaustively or by sampling.

    The exhaustive mode tabulates the whole lattice (guarded at n <= 16) with
    one :meth:`~SetFunctionOracle.evaluate_many`, so it costs ``2**n`` calls,
    then compares its two halves without and with each e in numpy and
    reports the first violation in the order S ascending, then e.  Either
    mode reports the subsets S, S + e and {e}.
    """
    n = oracle.universe.n
    if mode == "exhaustive":
        masks, table = _lattice(oracle, "monotonicity")
        found = []  # per element e, its first violation (S, e)
        for e in range(n):
            base, with_e = _split(table, e)
            s = _first_mask(_split(masks, e)[0], with_e < base - CHECK_TOL)
            if s is not None:
                found.append((s, e))
        if not found:
            return _OK
        s, e = min(found)
        return _counterexample(n, _DECREASE, s, s | 1 << e, 1 << e)
    _require_sampled(mode, sample_count)
    rng = random.Random(seed)
    for _ in range(sample_count):
        s_mask = rng.getrandbits(n) if n else 0
        free = [e for e in range(n) if not s_mask >> e & 1]
        if not free:
            continue
        e = rng.choice(free)
        if oracle.evaluate(s_mask | 1 << e) < oracle.evaluate(s_mask) - CHECK_TOL:
            return _counterexample(n, _DECREASE, s_mask, s_mask | 1 << e, 1 << e)
    return _OK
