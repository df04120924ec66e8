"""Concrete set-function oracles: coverage, cuts, clause counts, log-det, influence.

Every constructor returns a :class:`~subreco.core.SetFunctionOracle` with its
structural claims set honestly (the checks in ``core`` can audit them).
Randomized constructions (reverse-reachable sampling) are frozen into plain
data first, so the oracles themselves stay deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .core import (
    _BATCH_BITS,
    GroundSet,
    SetFunctionOracle,
    Subset,
    _bits,
)

GRAM_SYMMETRY_TOL = 1e-12
LOGDET_PIVOT_TOL = 1e-12
# a log-det batch factors at most this many same-size submatrices at a time;
# small stacks keep peak memory near that of one-at-a-time evaluation
LOGDET_CHUNK = 64
# set bits per byte value, a popcount that needs no NumPy 2 ``bitwise_count``
_POPCOUNT8 = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)
# positions of the set bits of each byte value, ascending
_BYTE_BITS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))


def _member_rows(masks: np.ndarray, n: int) -> np.ndarray:
    """An ``(n, len(masks))`` bool array: row ``e`` says which masks hold ``e``."""
    return ((masks >> np.arange(n)[:, None]) & 1).astype(bool)


def _ordered_sum_batch(
    fn: Callable[[int], float],
    n: int,
    weights: Sequence[float],
    terms: Callable[[np.ndarray], Iterable[np.ndarray]],
) -> Callable[[np.ndarray], np.ndarray]:
    """A batch form for ``fn``, which adds ``weights[i]`` over the terms ``i``
    a mask holds, in ascending ``i``.

    ``terms(rows)`` turns the member rows (:func:`_member_rows`) into one
    bool row per weight.  The rows are added in order, an absent term as
    ``0.0`` or ``-0.0``.  A total that starts at ``0.0`` is never ``-0.0``,
    and adding a zero to it changes nothing, so each value is ``fn``'s
    float.  A batch of fewer masks than weights runs ``fn`` per mask
    instead: below that size the array operations per term cost more than
    ``fn``'s loop per mask, as a greedy step's batches usually are.
    """

    def batch_fn(masks: np.ndarray) -> np.ndarray:
        if len(masks) < len(weights):
            return np.array([fn(m) for m in masks.tolist()], dtype=np.float64)
        total = np.zeros(len(masks))
        for present, w in zip(terms(_member_rows(masks, n)), weights):
            total += present * w
        return total

    return batch_fn


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits per row of a 2-D array of 64-bit words."""
    return _POPCOUNT8[np.ascontiguousarray(words).view(np.uint8)].sum(axis=1)


class NotPositiveDefiniteError(ValueError):
    """A principal submatrix had a negative eigenvalue beyond tolerance."""

    def __init__(self, subset: Subset, message: str):
        super().__init__(message)
        self.subset = subset

    def __reduce__(self):
        return type(self), (self.subset, *self.args)


def modular_oracle(weights: Sequence[float]) -> SetFunctionOracle:
    """Additive function ``f(S) = sum_{e in S} w_e``.

    ``evaluate`` adds the members' weights in ascending id order; the batch
    form adds every weight to every mask in the same order, a non-member's
    as a signed zero (:func:`_ordered_sum_batch`), so its values are the
    same floats, for negative weights too.
    """
    w = tuple(float(x) for x in weights)
    if not all(math.isfinite(x) for x in w):
        raise ValueError(f"modular weights must be finite, got {w}")

    def fn(mask: int) -> float:
        # in order, as batch_fn adds: built-in sum() compensates from Python 3.12
        total = 0.0
        for e in _bits(mask):
            total += w[e]
        return total

    return SetFunctionOracle(
        fn,
        GroundSet(len(w)),
        claims_monotone=all(x >= 0 for x in w),
        claims_submodular=True,
        claims_nonnegative=all(x >= 0 for x in w),
        name="modular",
        serial=("modular", w),
        batch_fn=_ordered_sum_batch(fn, len(w), w, lambda rows: rows),
    )


# ---------------------------------------------------------------------------
# coverage


@dataclass(frozen=True)
class CoverageSpec:
    """Ground element i covers the item subset ``covered[i]`` of ``0..universe_size-1``."""

    universe_size: int
    covered: tuple[tuple[int, ...], ...]
    divisor: float = 1.0

    def __post_init__(self):
        object.__setattr__(
            self, "covered", tuple(tuple(sorted(set(v))) for v in self.covered)
        )
        for v in self.covered:
            for item in v:
                if not 0 <= item < self.universe_size:
                    raise ValueError(
                        f"covered item {item} outside item universe of size "
                        f"{self.universe_size}"
                    )
        if not 0 < self.divisor < math.inf:
            raise ValueError(f"divisor must be positive and finite, got {self.divisor}")

    @property
    def n(self) -> int:
        return len(self.covered)


def _union_count(words: Sequence[int], mask: int) -> int:
    """Set bits in the OR of ``words[e]`` over the members ``e`` of ``mask``."""
    acc = 0
    while mask:
        low = mask & -mask
        acc |= words[low.bit_length() - 1]
        mask ^= low
    return acc.bit_count()


def _union_count_oracle(words: Sequence[int], value, **kwargs) -> SetFunctionOracle:
    """The oracle ``S -> value(c, mask)``, ``c`` the union count of S's members' words.

    ``evaluate`` hands ``value`` the count as a float and the mask as an int;
    the batch form hands it a float64 array of counts and the int64 array of
    masks, ORing the members' words over 64-bit columns (bit ``i`` of a word
    is bit ``i % 64`` of column ``i // 64``).  A count is a small int either
    way, so a formula applied to it gives the same float in both forms.
    Past ``_BATCH_BITS`` elements ``evaluate_many`` runs no batch form, so
    none is built.
    """
    n = len(words)

    def fn(mask: int) -> float:
        return value(float(_union_count(words, mask)), mask)

    if n > _BATCH_BITS:
        return SetFunctionOracle(fn, GroundSet(n), **kwargs)
    cols = max(1, (max((w.bit_length() for w in words), default=0) + 63) // 64)
    columns = np.frombuffer(
        b"".join(w.to_bytes(8 * cols, "little") for w in words), dtype="<u8"
    ).reshape(n, cols)

    def batch_fn(masks: np.ndarray) -> np.ndarray:
        acc = np.zeros((len(masks), cols), dtype=np.uint64)
        rows = _member_rows(masks, n)
        for e in range(n):
            np.bitwise_or(acc, columns[e], out=acc, where=rows[e, :, None])
        return value(_popcount(acc).astype(np.float64), masks)

    return SetFunctionOracle(fn, GroundSet(n), batch_fn=batch_fn, **kwargs)


def coverage_oracle(spec: CoverageSpec) -> SetFunctionOracle:
    """Weighted coverage ``f(S) = |union of covered sets| / divisor``."""
    divisor = spec.divisor
    return _union_count_oracle(
        [sum(1 << item for item in v) for v in spec.covered],
        lambda c, mask: c / divisor,
        claims_monotone=True,
        claims_submodular=True,
        claims_nonnegative=True,
        name="coverage",
        serial=("coverage", spec),
    )


# ---------------------------------------------------------------------------
# graphs


@dataclass(frozen=True)
class WeightedGraph:
    """Edge list with optional per-edge propagation probabilities.

    Undirected graphs store each edge once; directed graphs store arcs
    ``u -> v``.  Self-loops are rejected, weights must be finite and
    nonnegative, and probabilities (when present) must lie in [0, 1].
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[float, ...]
    directed: bool = False
    probabilities: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(self.weights) != len(self.edges):
            raise ValueError("weights must align with edges")
        if self.probabilities is not None and len(self.probabilities) != len(self.edges):
            raise ValueError("probabilities must align with edges")
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) outside vertex range 0..{self.n - 1}")
            if u == v:
                raise ValueError(f"self-loop at {u} not allowed")
        for w in self.weights:
            if not 0 <= w < math.inf:
                raise ValueError(f"edge weights must be finite and nonnegative, got {w}")
        if self.probabilities is not None:
            for p in self.probabilities:
                if not 0.0 <= p <= 1.0:
                    raise ValueError("edge probabilities must lie in [0,1]")

    @classmethod
    def build(
        cls,
        n: int,
        edges: Iterable[tuple],
        *,
        directed: bool = False,
        probabilities: Optional[Sequence[float]] = None,
    ) -> "WeightedGraph":
        """Edges as ``(u, v)`` or ``(u, v, weight)`` tuples; weight defaults to 1."""
        pairs = []
        weights = []
        for e in edges:
            if len(e) == 2:
                u, v = e
                w = 1.0
            else:
                u, v, w = e
            pairs.append((int(u), int(v)))
            weights.append(float(w))
        probs = None if probabilities is None else tuple(float(p) for p in probabilities)
        return cls(n, tuple(pairs), tuple(weights), directed, probs)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def directionalize(g: WeightedGraph) -> WeightedGraph:
    """Replace each undirected edge with the two opposite arcs."""
    if g.directed:
        return g
    edges = []
    weights = []
    probs = [] if g.probabilities is not None else None
    for i, (u, v) in enumerate(g.edges):
        edges.extend([(u, v), (v, u)])
        weights.extend([g.weights[i], g.weights[i]])
        if probs is not None:
            probs.extend([g.probabilities[i], g.probabilities[i]])
    return WeightedGraph(
        g.n,
        tuple(edges),
        tuple(weights),
        True,
        None if probs is None else tuple(probs),
    )


def inverse_indegree_probabilities(g: WeightedGraph) -> WeightedGraph:
    """Assign ``p(u, v) = 1 / indegree(v)`` on the directionalized graph."""
    d = directionalize(g)
    indeg = [0] * d.n
    for _, v in d.edges:
        indeg[v] += 1
    probs = tuple(1.0 / indeg[v] for _, v in d.edges)
    return WeightedGraph(d.n, d.edges, d.weights, True, probs)


def _edge_words(g: WeightedGraph) -> list[int]:
    """Per vertex, the word with bit ``i`` set for each edge ``i`` it ends."""
    words = [0] * g.n
    for i, (u, v) in enumerate(g.edges):
        words[u] |= 1 << i
        words[v] |= 1 << i
    return words


def cut_oracle(g: WeightedGraph) -> SetFunctionOracle:
    """Weighted cut ``f(S) = sum of w(u,v) over edges with exactly one end in S``.

    An edge is cut exactly when one of its ends is in S, so the XOR of the
    members' incident-edge words is the word of cut edges.  Construction
    tabulates, for each run of 4 vertex ids up to the last id that ends an
    edge, the XOR of every subset of their words: 16 words per 4 vertices,
    each ``|E|`` bits wide; higher ids cut nothing.  An evaluation XORs one
    entry per 4 bits of the mask, then walks the cut word a byte at a time
    and adds each cut edge's weight in ascending edge index, the order a
    plain loop over the edges adds them in, so the value is the same float.

    The batch form (``evaluate_many``) reads each mask's member bits as rows,
    takes an edge's cut row as the XOR of its ends' rows, and adds the edge
    weights in edge order through :func:`_ordered_sum_batch`, an uncut
    edge's as ``0.0``, so its values equal ``evaluate``'s bit for bit too.
    """
    if g.directed:
        raise ValueError("cut oracle expects an undirected graph")
    edges = g.edges
    weights = g.weights
    top = 1 + max(map(max, edges), default=-1)
    words = _edge_words(g)[:top] + [0] * (-top % 4)
    tables = []
    for lo in range(0, top, 4):
        table = [0] * 16
        for k in range(1, 16):
            low = k & -k
            table[k] = table[k ^ low] ^ words[lo + low.bit_length() - 1]
        tables.append(tuple(table))
    tables = tuple(tables)
    width = (len(edges) + 7) // 8
    # the weights of edges 8p .. 8p + 7, for byte p of the cut word
    byte_weights = tuple(tuple(weights[lo : lo + 8]) for lo in range(0, len(edges), 8))

    def fn(mask: int) -> float:
        cut = 0
        for table in tables:
            cut ^= table[mask & 15]
            mask >>= 4
        total = 0.0
        for w, byte in zip(byte_weights, cut.to_bytes(width, "little")):
            for i in _BYTE_BITS[byte]:
                total += w[i]
        return total

    return SetFunctionOracle(
        fn,
        GroundSet(g.n),
        claims_monotone=False,
        claims_submodular=True,
        claims_nonnegative=True,
        name="cut",
        serial=("cut", g),
        batch_fn=_ordered_sum_batch(
            fn, g.n, weights, lambda rows: (rows[u] ^ rows[v] for u, v in edges)
        ),
    )


def incidence_oracle(g: WeightedGraph) -> SetFunctionOracle:
    """Number of edges with at least one endpoint in S (unweighted).

    ``f(S) = |E|`` exactly when S is a vertex cover.  An evaluation ORs the
    members' incident-edge words (bit ``i`` for edge ``i``) and counts the
    set bits.
    """
    if g.directed:
        raise ValueError("incidence oracle expects an undirected graph")
    return _union_count_oracle(
        _edge_words(g),
        lambda c, mask: c,
        claims_monotone=True,
        claims_submodular=True,
        claims_nonnegative=True,
        name="incidence",
        serial=("incidence", g),
    )


def shifted_incidence_oracle(g: WeightedGraph) -> SetFunctionOracle:
    """Incidence count plus ``(n - |S|) / 2``.

    The shift makes every size-k vertex cover a strict local peak: one-element
    deviations from a size-k cover lose at least one half, and non-covers of
    size k lose at least one whole unit.  Not monotone (the shift decreases
    as S grows).
    """
    if g.directed:
        raise ValueError("shifted incidence oracle expects an undirected graph")
    n = g.n

    def value(c, mask):
        size = mask.bit_count() if isinstance(mask, int) else _popcount(mask[:, None])
        return c + 0.5 * (n - size)

    return _union_count_oracle(
        _edge_words(g),
        value,
        claims_monotone=False,
        claims_submodular=True,
        claims_nonnegative=True,
        name="shifted_incidence",
        serial=("shifted-incidence", g),
    )


def is_vertex_cover(g: WeightedGraph, s: Subset) -> bool:
    mask = s.mask
    return all((mask >> u | mask >> v) & 1 for u, v in g.edges)


# ---------------------------------------------------------------------------
# CNF formulas


@dataclass(frozen=True)
class CnfFormula:
    """CNF over variables ``0..n_vars-1``; literals are (variable, positive).

    ``monotone`` marks the exactly-3, all-positive fragment used by the
    not-all-equal clause oracle.
    """

    n_vars: int
    clauses: tuple[tuple[tuple[int, bool], ...], ...]

    def __post_init__(self):
        for clause in self.clauses:
            if not clause:
                raise ValueError("empty clause")
            for var, _pos in clause:
                if not 0 <= var < self.n_vars:
                    raise ValueError(f"variable {var} outside 0..{self.n_vars - 1}")

    @classmethod
    def monotone3(cls, n_vars: int, clauses: Iterable[Iterable[int]]) -> "CnfFormula":
        """All-positive clauses of exactly three distinct variables."""
        normalized = []
        for c in clauses:
            vs = tuple(int(v) for v in c)
            if len(vs) != 3 or len(set(vs)) != 3:
                raise ValueError(f"clause {vs} is not three distinct variables")
            normalized.append(tuple((v, True) for v in vs))
        return cls(n_vars, tuple(normalized))

    @property
    def m(self) -> int:
        return len(self.clauses)

    @property
    def monotone(self) -> bool:
        return all(
            len(c) == 3 and all(pos for _, pos in c) for c in self.clauses
        )

    def clause_vars(self, j: int) -> tuple[int, ...]:
        return tuple(var for var, _ in self.clauses[j])

    def satisfies(self, assignment: Sequence[bool]) -> bool:
        if len(assignment) != self.n_vars:
            raise ValueError("assignment length differs from variable count")
        return all(
            any(assignment[var] == pos for var, pos in clause)
            for clause in self.clauses
        )

    def nae_satisfies(self, assignment: Sequence[bool]) -> bool:
        """Every clause sees at least one true and at least one false literal."""
        if len(assignment) != self.n_vars:
            raise ValueError("assignment length differs from variable count")
        for clause in self.clauses:
            values = [assignment[var] == pos for var, pos in clause]
            if all(values) or not any(values):
                return False
        return True


def nae_clause_oracle(phi: CnfFormula) -> SetFunctionOracle:
    """Count clauses split by S: neither all their variables in S nor all out.

    Requires the monotone exactly-3 fragment; S is read as the set of true
    variables.  A clause with one or two of its three variables in S counts 1.
    """
    if not phi.monotone:
        raise ValueError("clause oracle needs monotone clauses of exactly 3 variables")
    clause_masks = tuple(
        sum(1 << var for var in phi.clause_vars(j)) for j in range(phi.m)
    )

    def fn(mask: int) -> float:
        total = 0
        for cm in clause_masks:
            inside = (cm & mask).bit_count()
            if 0 < inside < 3:
                total += 1
        return float(total)

    def batch_fn(masks: np.ndarray) -> np.ndarray:
        count = np.zeros(len(masks), dtype=np.int64)
        for cm in clause_masks:
            inside = masks & cm
            count += (inside != 0) & (inside != cm)
        return count.astype(np.float64)

    return SetFunctionOracle(
        fn,
        GroundSet(phi.n_vars),
        claims_monotone=False,
        claims_submodular=True,
        claims_nonnegative=True,
        name="nae_clauses",
        serial=("nae", phi),
        batch_fn=batch_fn,
    )


# ---------------------------------------------------------------------------
# log-determinant


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric positive semidefinite matrix validated at construction."""

    a: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("gram matrix must be square")
        if not np.isfinite(a).all():
            raise ValueError("gram matrix entries must be finite")
        scale = max(1.0, float(np.abs(a).max()) if a.size else 1.0)
        if a.size and float(np.abs(a - a.T).max()) > GRAM_SYMMETRY_TOL * scale:
            raise ValueError("gram matrix must be symmetric")
        a = (a + a.T) / 2.0
        if a.size:
            eig_min = float(np.linalg.eigvalsh(a).min())
            if eig_min < -1e-8 * scale:
                raise ValueError(
                    f"gram matrix is not positive semidefinite (eig_min={eig_min})"
                )
        object.__setattr__(self, "a", a)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def principal(self, indices: Sequence[int]) -> "GramMatrix":
        idx = np.asarray(list(indices), dtype=int)
        return GramMatrix(self.a[np.ix_(idx, idx)])


def logdet_oracle(gram: GramMatrix) -> SetFunctionOracle:
    """``f(S) = log det(A_S)`` over principal submatrices; ``f({}) = 0``.

    Singular-but-semidefinite submatrices (any Cholesky pivot below 1e-12)
    return ``-inf`` so that sequence minima propagate the degeneracy; an
    indefinite submatrix raises :class:`NotPositiveDefiniteError` carrying the
    offending subset.  Submodular; not monotone in general.

    The batch form (``evaluate_many``) factors the submatrices of one size as
    a stack, ``LOGDET_CHUNK`` at a time, with the same per-matrix Cholesky, so
    its values equal ``evaluate``'s bit for bit.  A stack whose factorization
    fails hands the whole batch back to one-at-a-time evaluation, which gives
    the same ``-inf`` values and the same error on the same subset.
    """
    a = gram.a
    n = gram.n

    def fn(mask: int) -> float:
        if not mask:
            return 0.0
        idx = list(_bits(mask))
        sub = a[idx][:, idx]
        try:
            chol = np.linalg.cholesky(sub)
        except np.linalg.LinAlgError:
            eig_min = float(np.linalg.eigvalsh(sub).min())
            scale = max(1.0, float(np.abs(sub).max()))
            if eig_min < -1e-8 * scale:
                s = Subset.from_mask(n, mask)
                raise NotPositiveDefiniteError(
                    s, f"submatrix at {s} has negative eigenvalue {eig_min}"
                ) from None
            return float("-inf")
        diag = chol.diagonal()
        if float(diag.min()) ** 2 < LOGDET_PIVOT_TOL:
            return float("-inf")
        return float(2.0 * np.log(diag).sum())

    def batch_fn(masks: np.ndarray) -> Optional[np.ndarray]:
        values = np.zeros(len(masks))
        sizes = _popcount(masks[:, None])
        for k in range(1, n + 1):
            rows = np.flatnonzero(sizes == k)
            for lo in range(0, len(rows), LOGDET_CHUNK):
                chunk = rows[lo : lo + LOGDET_CHUNK]
                # each subset's members, ascending as a Subset iterates them
                idx = np.nonzero(_member_rows(masks[chunk], n).T)[1].reshape(-1, k)
                try:
                    chol = np.linalg.cholesky(a[idx[:, :, None], idx[:, None, :]])
                except np.linalg.LinAlgError:
                    return None
                diag = np.diagonal(chol, axis1=1, axis2=2)
                out = 2.0 * np.log(diag).sum(axis=1)
                out[(diag**2).min(axis=1) < LOGDET_PIVOT_TOL] = -np.inf
                values[chunk] = out
        return values

    return SetFunctionOracle(
        fn,
        GroundSet(gram.n),
        claims_monotone=False,
        claims_submodular=True,
        claims_nonnegative=False,
        name="logdet",
        serial=("logdet", gram),
        batch_fn=batch_fn,
    )


# ---------------------------------------------------------------------------
# influence via reverse-reachable sets


@dataclass(frozen=True)
class RrSetCollection:
    """Frozen sample of reverse-reachable vertex sets, as one packed bit matrix.

    ``rows`` holds ``count`` sets of ``width = ceil(n / 8)`` bytes each in the
    ``np.packbits(..., bitorder="little")`` layout: vertex ``v`` of set ``j``
    is bit ``v % 8`` of byte ``j * width + v // 8``.  ``sets`` is a read-only
    view that builds one :class:`Subset` per set on each access.

    ``seed`` makes experiments replayable: resampling the same graph with the
    same seed reproduces the collection bit for bit.
    """

    n: int
    rows: bytes = field(repr=False)
    seed: int

    def __post_init__(self):
        if self.n < 1 or not self.rows or len(self.rows) % self.width:
            raise ValueError("RR collection needs n >= 1 and one or more whole rows")
        # shifting out the last byte's vertices leaves its bits past vertex n - 1
        if (self.matrix[:, -1] >> ((self.n - 1) % 8 + 1)).any():
            raise ValueError("RR set over wrong universe")
        if not self.matrix.any(axis=1).all():
            raise ValueError("RR sets contain at least their root")

    @property
    def width(self) -> int:
        return (self.n + 7) // 8

    @property
    def count(self) -> int:
        return len(self.rows) // self.width

    @property
    def matrix(self) -> np.ndarray:
        """The rows as a read-only ``(count, width)`` uint8 array."""
        return np.frombuffer(self.rows, dtype=np.uint8).reshape(-1, self.width)

    @property
    def sets(self) -> tuple[Subset, ...]:
        return tuple(Subset.from_mask(self.n, int.from_bytes(r, "little")) for r in self.matrix)


# Samples run in lock-step, a chunk at a time, on two workers; the stream
# words plus reached-vertex flags of both workers' chunks stay within this many
# words (4 MB), and a chunk holds at least one sample.
_CHUNK_WORDS = 1 << 19


def sample_rr_sets(g: WeightedGraph, count: int, seed: int) -> RrSetCollection:
    """Sample ``count`` reverse-reachable sets under independent-cascade edges.

    The RR set of a uniform root is every vertex with a path of live arcs to
    it, each arc being live independently with its probability.

    Stream.  One ``np.random.Philox`` is keyed by ``np.random.SeedSequence``
    on the sign-folded seed, ``2 * seed`` for ``seed >= 0`` and
    ``-2 * seed - 1`` otherwise, so every int seed has its own key.  With
    ``m`` arcs, sample ``i`` owns the raw words ``i*(m+1) .. i*(m+1)+m`` of
    ``bit_generator.random_raw``, each read as ``u = (w >> 11) * 2**-53``.
    Word 0 picks the root, ``min(floor(u * n), n - 1)``; word ``1 + a`` is
    the coin of arc ``a`` in ``g.edges`` order, and the arc is live when
    ``u < p_a``.  Sample ``i`` is thus a pure function of ``(seed, i)``, and a
    longer collection extends a shorter one with the same seed.

    Search.  A breadth-first search that flips each arc when it first reaches
    it and one that reads coins flipped in advance return the same set for
    the same coins, and each coin is read at most once, so both give the same
    distribution of RR sets (the live-edge equivalence for independent
    cascade, Kempe, Kleinberg & Tardos, KDD'03).  So every sample of a chunk
    walks backwards in lock-step: a frontier of ``(sample, vertex)`` pairs
    expands through a CSR array of incoming arcs, keeping an arc whose coin is
    live and whose tail the sample has not reached yet.

    Threads.  Chunks run on two workers: the calling thread takes chunks
    0, 2, 4, ... and one helper thread, started only when there is more than
    one chunk, takes chunks 1, 3, 5, ...; the stream fill and most array work
    release the interpreter lock.  Philox is counter-based (Salmon et al.,
    SC'11), so each chunk makes its own Philox under the same key and
    advances it to the chunk's first word: ``advance(d)`` skips ``4 * d``
    words, and the ``start % 4`` words left over are drawn and dropped.  Each
    worker allocates its stream, reached and claim buffers once and reuses
    them for every chunk it runs.  A chunk's rows depend only on its samples'
    words, so the collection is the same bytes however the chunks are split.
    A helper's exception is raised in the caller once the helper has finished.
    """
    if not g.directed or g.probabilities is None:
        raise ValueError("influence sampling needs a directed graph with probabilities")
    if count < 1:
        raise ValueError("count must be at least 1")
    if g.n == 0:
        raise ValueError("cannot sample from an empty graph")
    n, m = g.n, len(g.edges)
    width = m + 1  # stream words per sample
    arcs = np.array(g.edges, dtype=np.int64).reshape(m, 2)
    # incoming arcs grouped by head, each group in g.edges order
    order = np.argsort(arcs[:, 1], kind="stable")
    indeg = np.bincount(arcs[:, 1], minlength=n)
    first_in = np.cumsum(indeg) - indeg
    tails = arcs[order, 0]
    coin_word = order + 1
    probs = np.array(g.probabilities, dtype=np.float64)[order]
    key = np.random.SeedSequence(2 * seed if seed >= 0 else -2 * seed - 1)
    chunk = max(1, _CHUNK_WORDS // 2 // (width + n))
    most = min(chunk, count)  # samples in the largest chunk
    starts = range(0, count, chunk)
    rows = [b""] * len(starts)

    def work(first: int) -> None:
        # three spare words take the draws dropped to reach a chunk's start
        u_buf = np.empty(most * width + 3)
        reached_buf = np.empty(most * n, dtype=bool)
        claim = np.empty(most * n, dtype=np.intp)
        for c in range(first, len(starts), 2):
            lo = starts[c]
            size = min(chunk, count - lo)
            stream = np.random.Philox(key)
            stream.advance(lo * width // 4)
            skip = lo * width % 4
            # Generator.random gives (w >> 11) * 2**-53 for each raw word w
            np.random.Generator(stream).random(out=u_buf[: skip + size * width])
            u = u_buf[skip : skip + size * width]
            roots = np.minimum((u[::width] * n).astype(np.int64), n - 1)
            # pair s * n + v is vertex v of sample s; reached[pair] marks it found
            reached = reached_buf[: size * n]
            reached[:] = False
            frontier = np.arange(size) * n + roots
            reached[frontier] = True
            while frontier.size:
                sample, vertex = np.divmod(frontier, n)
                deg = indeg[vertex]
                pos = np.repeat(first_in[vertex] - (np.cumsum(deg) - deg), deg)
                pos += np.arange(pos.size)
                sample = np.repeat(sample, deg)
                found = sample * n + tails[pos]
                live = u[sample * width + coin_word[pos]] < probs[pos]
                live &= ~reached[found]
                found = found[live]
                # a pair found twice in one level keeps one copy: the one
                # whose write to claim survives
                ids = np.arange(found.size)
                claim[found] = ids
                frontier = found[claim[found] == ids]
                reached[frontier] = True
            rows[c] = np.packbits(reached.reshape(size, n), axis=1, bitorder="little").tobytes()

    # imported here: at module level it adds about 15 ms to importing subreco
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1, thread_name_prefix="sample_rr_sets") as pool:
        helper = pool.submit(work, 1) if len(starts) > 1 else None
        work(0)
    if helper is not None:
        helper.result()
    return RrSetCollection(n, b"".join(rows), seed)


def _vertex_masks(rr: RrSetCollection) -> tuple[int, ...]:
    """Per-vertex incidence bitmaps: set ``j`` is bit ``8 * ceil(count / 8) - 1 - j``."""
    hit = np.unpackbits(rr.matrix, axis=1, count=rr.n, bitorder="little")
    packed = np.packbits(hit.T, axis=1)
    return tuple(int.from_bytes(packed[v].tobytes(), "big") for v in range(rr.n))


def influence_oracle(rr: RrSetCollection) -> SetFunctionOracle:
    """Estimated spread ``f(S) = n * |{R : R intersects S}| / count``.

    The per-vertex incidence bitmaps over the collection are packed once at
    construction, so a later evaluation costs a few big-integer ors no matter
    how large the collection is.
    """
    count = rr.count
    n = rr.n
    vertex_masks = _vertex_masks(rr)
    scale = n / count

    def fn(mask: int) -> float:
        return scale * _union_count(vertex_masks, mask)

    return SetFunctionOracle(
        fn,
        GroundSet(n),
        claims_monotone=True,
        claims_submodular=True,
        claims_nonnegative=True,
        name="influence",
        serial=("influence", rr),
    )
