"""Concrete set-function oracles: coverage, cuts, clause counts, log-det, influence.

Every constructor returns a :class:`~subreco.core.SetFunctionOracle` with its
structural claims set honestly (the checks in ``core`` can audit them).
Randomized constructions (reverse-reachable sampling) are frozen into plain
data first, so the oracles themselves stay deterministic.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import (
    BudgetExceededError,
    GroundSet,
    SetFunctionOracle,
    Subset,
)

GRAM_SYMMETRY_TOL = 1e-12
LOGDET_PIVOT_TOL = 1e-12


class NotPositiveDefiniteError(ValueError):
    """A principal submatrix had a negative eigenvalue beyond tolerance."""

    def __init__(self, subset: Subset, message: str):
        super().__init__(message)
        self.subset = subset


def modular_oracle(weights: Sequence[float]) -> SetFunctionOracle:
    """Additive function ``f(S) = sum_{e in S} w_e``."""
    w = tuple(float(x) for x in weights)

    def fn(s: Subset) -> float:
        return sum(w[e] for e in s)

    return SetFunctionOracle(
        fn,
        GroundSet(len(w)),
        claims_monotone=all(x >= 0 for x in w),
        claims_submodular=True,
        claims_nonnegative=all(x >= 0 for x in w),
        name="modular",
        serial=("modular", w),
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
        if self.divisor <= 0:
            raise ValueError("divisor must be positive")

    @property
    def n(self) -> int:
        return len(self.covered)


def coverage_oracle(spec: CoverageSpec) -> SetFunctionOracle:
    """Weighted coverage ``f(S) = |union of covered sets| / divisor``."""
    item_masks = tuple(
        sum(1 << item for item in v) for v in spec.covered
    )
    divisor = spec.divisor

    def fn(s: Subset) -> float:
        acc = 0
        for e in s:
            acc |= item_masks[e]
        return acc.bit_count() / divisor

    return SetFunctionOracle(
        fn,
        GroundSet(spec.n),
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
    ``u -> v``.  Self-loops are rejected, weights must be nonnegative, and
    probabilities (when present) must lie in [0, 1].
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
            if w < 0:
                raise ValueError("edge weights must be nonnegative")
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

    def digest(self) -> str:
        """Stable fingerprint of the graph structure, for replay bookkeeping."""
        h = hashlib.sha256()
        h.update(f"{self.n};{int(self.directed)};".encode())
        for i, (u, v) in enumerate(self.edges):
            p = "" if self.probabilities is None else repr(self.probabilities[i])
            h.update(f"{u},{v},{self.weights[i]!r},{p}|".encode())
        return h.hexdigest()


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


def cut_oracle(g: WeightedGraph) -> SetFunctionOracle:
    """Weighted cut ``f(S) = sum of w(u,v) over edges with exactly one end in S``."""
    if g.directed:
        raise ValueError("cut oracle expects an undirected graph")
    edges = g.edges
    weights = g.weights

    def fn(s: Subset) -> float:
        mask = s.mask
        total = 0.0
        for i, (u, v) in enumerate(edges):
            if (mask >> u & 1) != (mask >> v & 1):
                total += weights[i]
        return total

    return SetFunctionOracle(
        fn,
        GroundSet(g.n),
        claims_monotone=False,
        claims_submodular=True,
        claims_nonnegative=True,
        name="cut",
        serial=("cut", g),
    )


def incidence_oracle(g: WeightedGraph) -> SetFunctionOracle:
    """Number of edges with at least one endpoint in S (unweighted).

    ``f(S) = |E|`` exactly when S is a vertex cover.
    """
    if g.directed:
        raise ValueError("incidence oracle expects an undirected graph")
    edges = g.edges

    def fn(s: Subset) -> float:
        mask = s.mask
        return float(
            sum(1 for u, v in edges if (mask >> u | mask >> v) & 1)
        )

    return SetFunctionOracle(
        fn,
        GroundSet(g.n),
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
    base = incidence_oracle(g)
    n = g.n

    def fn(s: Subset) -> float:
        return base.evaluate(s) + 0.5 * (n - len(s))

    return SetFunctionOracle(
        fn,
        GroundSet(n),
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

    def fn(s: Subset) -> float:
        mask = s.mask
        total = 0
        for cm in clause_masks:
            inside = (cm & mask).bit_count()
            if 0 < inside < 3:
                total += 1
        return float(total)

    return SetFunctionOracle(
        fn,
        GroundSet(phi.n_vars),
        claims_monotone=False,
        claims_submodular=True,
        claims_nonnegative=True,
        name="nae_clauses",
        serial=("nae", phi),
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
    """
    a = gram.a

    def fn(s: Subset) -> float:
        if len(s) == 0:
            return 0.0
        idx = np.fromiter(s, dtype=int)
        sub = a[np.ix_(idx, idx)]
        try:
            chol = np.linalg.cholesky(sub)
        except np.linalg.LinAlgError:
            eig_min = float(np.linalg.eigvalsh(sub).min())
            scale = max(1.0, float(np.abs(sub).max()))
            if eig_min < -1e-8 * scale:
                raise NotPositiveDefiniteError(
                    s, f"submatrix at {s} has negative eigenvalue {eig_min}"
                ) from None
            return float("-inf")
        pivots = np.diag(chol) ** 2
        if float(pivots.min()) < LOGDET_PIVOT_TOL:
            return float("-inf")
        return float(2.0 * np.log(np.diag(chol)).sum())

    return SetFunctionOracle(
        fn,
        GroundSet(gram.n),
        claims_monotone=False,
        claims_submodular=True,
        claims_nonnegative=False,
        name="logdet",
        serial=("logdet", gram),
    )


# ---------------------------------------------------------------------------
# influence via reverse-reachable sets


@dataclass(frozen=True)
class RrSetCollection:
    """Frozen sample of reverse-reachable vertex sets.

    ``seed`` and ``source_digest`` make experiments replayable: resampling the
    digested graph with the same seed reproduces the collection bit for bit.
    """

    n: int
    sets: tuple[Subset, ...]
    seed: int
    source_digest: str = ""

    def __post_init__(self):
        for s in self.sets:
            if s.n != self.n:
                raise ValueError("RR set over wrong universe")
            if len(s) == 0:
                raise ValueError("RR sets contain at least their root")

    @property
    def count(self) -> int:
        return len(self.sets)


# CPython's ``random.Random(a)`` for an int ``a`` is a Mersenne Twister
# MT19937 keyed by init_by_array on the 32-bit words of ``abs(a)``.  The
# sampler reseeds once per sample, and that key schedule is most of its cost,
# so it is run here over many seeds at once; the words it yields equal
# ``Random(a).getrandbits(32)`` call for call.
_MT_N = 624
_MT_M = 397
_MT_CHUNK = 4096  # seeds per vectorised batch: a 624 x 4096 uint32 state, 10 MB
_ROOT_TRIES = 8  # words kept for the root's rejection sampling
_DRAWS = 64  # random() calls kept per sample; 99% of karate samples need fewer


def _mt_genrand_template(s: int) -> list[int]:
    mt = [s]
    for i in range(1, _MT_N):
        p = mt[-1]
        mt.append((1812433253 * (p ^ p >> 30) + i) & 0xFFFFFFFF)
    return mt


_MT_TEMPLATE = _mt_genrand_template(19650218)


def _mt_words_same_length(keys: np.ndarray, width: int) -> np.ndarray:
    """First ``width`` outputs for the key words ``keys`` of shape (L, C).

    Column ``c`` follows CPython's ``init_by_array`` on ``keys[:, c]``, then
    the first twist and tempering of ``genrand_uint32``.
    """
    n = _MT_N
    u32 = np.uint32
    klen, cols = keys.shape
    mt = np.empty((n, cols), dtype=u32)
    mt[0] = _MT_TEMPLATE[0]
    fresh = [False] + [True] * (n - 1)  # rows still at their template value
    addend = keys + np.arange(klen, dtype=u32)[:, None]
    t = np.empty(cols, dtype=u32)
    shift, xor, mul = np.right_shift, np.bitwise_xor, np.multiply
    i, j = 1, 0
    for _ in range(max(n, klen)):
        prev, row = mt[i - 1], mt[i]
        shift(prev, 30, out=t)
        xor(t, prev, out=t)
        mul(t, u32(1664525), out=t)
        if fresh[i]:
            xor(t, u32(_MT_TEMPLATE[i]), out=row)
            fresh[i] = False
        else:
            xor(row, t, out=row)
        row += addend[j]
        i += 1
        j += 1
        if i >= n:
            mt[0] = mt[n - 1]
            i = 1
        if j >= klen:
            j = 0
    for _ in range(n - 1):
        prev, row = mt[i - 1], mt[i]
        shift(prev, 30, out=t)
        xor(t, prev, out=t)
        mul(t, u32(1566083941), out=t)
        xor(row, t, out=row)
        row -= u32(i)
        i += 1
        if i >= n:
            mt[0] = mt[n - 1]
            i = 1
    mt[0] = 0x80000000
    # the first twist for words 0..width-1 reads rows up to 397 + width,
    # none of which it has overwritten yet; in place, to keep the batch small
    out = mt[:width] & u32(0x80000000)
    out |= mt[1 : width + 1] & u32(0x7FFFFFFF)
    odd = out & u32(1)
    odd *= u32(0x9908B0DF)
    out >>= 1
    out ^= odd
    out ^= mt[_MT_M : _MT_M + width]
    del mt, odd
    out ^= out >> 11  # tempering
    t = out << 7
    t &= u32(0x9D2C5680)
    out ^= t
    t = out << 15
    t &= u32(0xEFC60000)
    out ^= t
    out ^= out >> 18
    return out


def _mt_words(seeds: Sequence[int], width: int) -> np.ndarray:
    """``out[w, c] == w``-th ``getrandbits(32)`` of ``random.Random(seeds[c])``.

    Shape ``(width, len(seeds))``; ``width`` is at most 227, the words of the
    first twist that need no word of the same twist.
    """
    if not 0 < width <= _MT_N - _MT_M:
        raise ValueError(f"width must lie in 1..{_MT_N - _MT_M}")
    magnitudes = [abs(a) for a in seeds]
    lengths = [(a.bit_length() + 31) // 32 or 1 for a in magnitudes]
    parts = []
    lo = 0
    for klen, run in itertools.groupby(lengths):
        hi = lo + len(list(run))
        keys = np.array(
            [[a >> 32 * w & 0xFFFFFFFF for a in magnitudes[lo:hi]] for w in range(klen)],
            dtype=np.uint32,
        )
        parts.append(_mt_words_same_length(keys, width))
        lo = hi
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


def _reverse_bfs(incoming: list[list[tuple[int, int, float]]], root: int, rand) -> int:
    """Mask of the RR set of ``root``.

    ``incoming[v]`` lists the arcs into ``v`` as ``(u, 1 << u, p)``; each arc
    from an unreached ``u`` into a reached vertex costs one ``rand()`` and is
    kept when that draw is below ``p``.
    """
    mask = 1 << root
    queue = [root]
    for v in queue:  # the loop also visits what it appends
        for u, bit, p in incoming[v]:
            if not mask & bit and rand() < p:
                mask |= bit
                queue.append(u)
    return mask


def sample_rr_sets(g: WeightedGraph, count: int, seed: int) -> RrSetCollection:
    """Sample ``count`` reverse-reachable sets under independent-cascade edges.

    Each sample picks a uniform root and walks the graph backwards breadth
    first, keeping each incoming arc independently with its probability; an
    arc is flipped at most once per sample.  Sample ``i`` draws from
    ``random.Random(seed * 0x1FFFFFFFFFFFFFF + i)`` (``randrange(n)`` for the
    root, then ``random()`` per arc), so the collection is a pure function of
    the pair and independent of evaluation order.

    The generators' words come from :func:`_mt_words` in batches that keep
    8 words for the root and 64 ``random()`` calls per sample; a sample that
    needs more is redrawn from its own ``random.Random``, with the same result.
    """
    if not g.directed or g.probabilities is None:
        raise ValueError("influence sampling needs a directed graph with probabilities")
    if count < 1:
        raise ValueError("count must be at least 1")
    if g.n == 0:
        raise ValueError("cannot sample from an empty graph")
    incoming: list[list[tuple[int, int, float]]] = [[] for _ in range(g.n)]
    for (u, v), p in zip(g.edges, g.probabilities):
        incoming[v].append((u, 1 << u, p))
    n = g.n
    # int seeding is stable across Python versions (tuple seeding is not);
    # the multiplier keeps nearby (seed, i) pairs from colliding
    base = seed * 0x1FFFFFFFFFFFFFF
    # randrange(n) takes getrandbits(k) until one is below n; random() takes
    # two words
    k = n.bit_length()
    draws = max(1, min(len(g.edges), _DRAWS))  # at most one random() per arc
    width = _ROOT_TRIES + 2 * draws
    rng = random.Random()
    subsets: dict[int, Subset] = {}
    sets = []
    append = sets.append
    for lo in range(0, count, _MT_CHUNK):
        size = min(count - lo, _MT_CHUNK)
        words = _mt_words(range(base + lo, base + lo + size), width)
        picks = words[:_ROOT_TRIES] >> np.uint32(32 - k)
        accepted = picks < n
        used = accepted.argmax(axis=0)
        cols = np.arange(size)
        roots = picks[used, cols].tolist()
        found = accepted[used, cols].tolist()
        # uniform[c, w] is the random() made of words w and w + 1 of sample c;
        # sample c's draws are every other entry from w = used[c] + 1 on
        words = np.ascontiguousarray(words.T)
        uniform = (words[:, :-1] >> 5).astype(np.float64)
        uniform *= 67108864.0
        uniform += words[:, 1:] >> 6
        uniform *= 1.0 / 9007199254740992.0
        flat = memoryview(uniform.reshape(-1))
        starts = (cols * (width - 1) + used + 1).tolist()
        stops = ((cols + 1) * (width - 1)).tolist()
        for i, root, ok, start, stop in zip(
            range(base + lo, base + lo + size), roots, found, starts, stops
        ):
            mask = None
            if ok:
                try:
                    mask = _reverse_bfs(incoming, root, iter(flat[start:stop:2]).__next__)
                except StopIteration:
                    pass
            if mask is None:
                rng.seed(i)
                mask = _reverse_bfs(incoming, rng.randrange(n), rng.random)
            s = subsets.get(mask)
            if s is None:
                s = subsets[mask] = Subset.from_mask(n, mask)
            append(s)
    return RrSetCollection(n, tuple(sets), seed, g.digest())


def influence_oracle(rr: RrSetCollection) -> SetFunctionOracle:
    """Estimated spread ``f(S) = n * |{R : R intersects S}| / count``.

    The per-vertex incidence bitmaps over the collection are packed once at
    construction, so a later evaluation costs a few big-integer ors no matter
    how large the collection is.
    """
    count = rr.count
    n = rr.n
    hit = np.zeros((n, count), dtype=bool)
    cols: list[list[int]] = [[] for _ in range(n)]
    for j, s in enumerate(rr.sets):
        m = s.mask
        while m:
            cols[(m & -m).bit_length() - 1].append(j)
            m &= m - 1
    for v in range(n):
        hit[v, cols[v]] = True
    packed = np.packbits(hit, axis=1)
    vertex_masks = tuple(
        int.from_bytes(packed[v].tobytes(), "big") for v in range(n)
    )
    scale = n / count

    def fn(s: Subset) -> float:
        acc = 0
        for v in s:
            acc |= vertex_masks[v]
        return scale * acc.bit_count()

    return SetFunctionOracle(
        fn,
        GroundSet(n),
        claims_monotone=True,
        claims_submodular=True,
        claims_nonnegative=True,
        name="influence",
        serial=("influence", rr),
    )


def exact_influence(g: WeightedGraph, s: Subset) -> float:
    """Expected spread of S by enumerating all arc subsets (guarded at 20 arcs)."""
    if not g.directed or g.probabilities is None:
        raise ValueError("exact influence needs a directed graph with probabilities")
    if s.n != g.n:
        raise ValueError("seed set over wrong universe")
    m = len(g.edges)
    if m > 20:
        raise BudgetExceededError(f"exact influence refused for {m} > 20 arcs")
    total = 0.0
    seeds = list(s)
    for arc_mask in range(1 << m):
        prob = 1.0
        for i in range(m):
            p = g.probabilities[i]
            prob *= p if arc_mask >> i & 1 else 1.0 - p
        if prob == 0.0:
            continue
        adj: list[list[int]] = [[] for _ in range(g.n)]
        for i in range(m):
            if arc_mask >> i & 1:
                u, v = g.edges[i]
                adj[u].append(v)
        visited = set(seeds)
        queue = list(seeds)
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            for v in adj[u]:
                if v not in visited:
                    visited.add(v)
                    queue.append(v)
        total += prob * len(visited)
    return total
