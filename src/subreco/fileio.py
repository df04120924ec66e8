"""Readers and writers for the on-disk formats.

External files are 1-indexed (the common convention of published edge lists);
everything in memory is 0-indexed.  All writers emit plain line-oriented text
so fixtures stay diffable.

Formats:

* edge list: one ``u v [weight-or-probability]`` row per line, ``%``
  comments, and an optional ``% n <count>`` comment pinning the vertex count;
* gram matrix: first line ``n``, then ``n`` rows of ``n`` reals;
* CNF: DIMACS-like (``c`` comments, ``p cnf <vars> <clauses>``, clauses as
  signed integers terminated by 0);
* reverse-reachable collection: header ``n count seed``, an optional
  ``% graph <digest>`` comment, then one vertex set per line;
* instance: sections ``[oracle]`` (kind plus parameters or data-file
  references; an ``edge`` line holds an edge-list row), ``[endpoints]``,
  ``[rule]``, ``[theta]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .core import (
    AdjacencyRule,
    ProblemInstance,
    ReconfigSequence,
    SetFunctionOracle,
    Subset,
    resolve_threshold,
)
from .oracles import (
    CnfFormula,
    CoverageSpec,
    GramMatrix,
    RrSetCollection,
    WeightedGraph,
    coverage_oracle,
    cut_oracle,
    incidence_oracle,
    influence_oracle,
    inverse_indegree_probabilities,
    directionalize,
    logdet_oracle,
    modular_oracle,
    nae_clause_oracle,
    sample_rr_sets,
    shifted_incidence_oracle,
)
from .reductions import inapprox_gadget

PathLike = Union[str, Path]


class InstanceParseError(ValueError):
    """A file did not match its expected format; carries path and line."""

    def __init__(self, path: PathLike, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


def _lines(path: Path):
    """Yield (line_number, stripped_text) for every non-blank line."""
    with open(path, encoding="utf-8") as fh:
        for i, raw in enumerate(fh, start=1):
            text = raw.strip()
            if text:
                yield i, text


def _data_lines(path: Path):
    """``_lines`` without the ``%`` comments."""
    return ((i, text) for i, text in _lines(path) if not text.startswith("%"))


def format_ids_1indexed(s: Subset) -> str:
    return "{" + ",".join(str(e + 1) for e in s) + "}"


def ids_1indexed(text: str) -> list[int]:
    """0-indexed ids of the 1-indexed ``{i,j,...}`` form (braces optional)."""
    body = text.strip()
    if body.startswith("{") and body.endswith("}"):
        body = body[1:-1]
    return [int(tok) - 1 for tok in body.replace(",", " ").split()]


def parse_ids_1indexed(text: str, n: int) -> Subset:
    return Subset(n, ids_1indexed(text))


def _numbers(path: Path, lineno: int, tokens: Sequence[str], convert=int) -> list:
    """Convert every token, naming ``path:lineno`` on the first bad one; a
    float must be finite."""
    values = []
    for tok in tokens:
        try:
            value = convert(tok)
        except ValueError:
            raise InstanceParseError(path, lineno, f"bad number {tok!r}") from None
        if convert is float and not math.isfinite(value):
            raise InstanceParseError(path, lineno, f"non-finite number {tok!r}")
        values.append(value)
    return values


def _edge_row(path: Path, lineno: int, tokens: Sequence[str], n: float = math.inf) -> tuple:
    """A 1-indexed ``u v [value]`` row as the ``(u, v)`` or ``(u, v, value)``
    tuple, 0-indexed, that ``WeightedGraph.build`` takes; ids distinct and in
    ``1..n``, value nonnegative."""
    if len(tokens) not in (2, 3):
        raise InstanceParseError(path, lineno, f"expected 'u v [value]', got {' '.join(tokens)!r}")
    u, v = _numbers(path, lineno, tokens[:2])
    value = _numbers(path, lineno, tokens[2:], float)
    if min(u, v) < 1 or max(u, v) > n:
        raise InstanceParseError(path, lineno, f"vertex ids lie in 1..{n}")
    if u == v:
        raise InstanceParseError(path, lineno, f"self-loop at {u} not allowed")
    if value and value[0] < 0:
        raise InstanceParseError(path, lineno, "edge value must be nonnegative")
    return (u - 1, v - 1, *value)


def _edge_rows(g: WeightedGraph) -> list[str]:
    """One 1-indexed ``u v [value]`` row per edge: the probability if the
    graph has them, else a weight other than 1."""
    values = g.probabilities or [None if w == 1.0 else w for w in g.weights]
    return [
        f"{u + 1} {v + 1}" if x is None else f"{u + 1} {v + 1} {x!r}"
        for (u, v), x in zip(g.edges, values)
    ]


# ---------------------------------------------------------------------------
# edge lists


def load_edge_list(
    path: PathLike,
    *,
    directed: bool = False,
    probability_mode: Optional[str] = None,
) -> WeightedGraph:
    """Read a 1-indexed edge list.

    With ``probability_mode=None`` the optional third column is a weight.
    With ``"given"`` it is a propagation probability (undirected input is
    expanded to opposite arc pairs).  With ``"inverse-in-degree"`` the
    probabilities are computed as ``1 / indegree`` after directionalization.
    The vertex count is the largest id seen, or the ``% n <count>`` header
    when that is larger; a file with neither edges nor header is an error.
    """
    if probability_mode not in (None, "given", "inverse-in-degree"):
        raise ValueError(f"unknown probability mode {probability_mode!r}")
    path = Path(path)
    header_n = None
    rows = []
    for lineno, text in _lines(path):
        if text.startswith("%"):
            tokens = text[1:].split()
            if len(tokens) == 2 and tokens[0] == "n":
                header_n = _numbers(path, lineno, tokens[1:])[0]
                if header_n < 0:
                    raise InstanceParseError(path, lineno, "vertex count must be nonnegative")
            continue
        row = _edge_row(path, lineno, text.split())
        if probability_mode == "given" and (len(row) < 3 or row[2] > 1):
            raise InstanceParseError(path, lineno, "a 'given' probability lies in [0, 1]")
        rows.append(row)
    if not rows and header_n is None:
        raise InstanceParseError(path, 0, "empty edge list with no '% n <count>' header")
    n = max([header_n or 0] + [max(row[:2]) + 1 for row in rows])
    if probability_mode == "given":
        g = WeightedGraph.build(
            n,
            [row[:2] for row in rows],
            directed=directed,
            probabilities=[row[2] for row in rows],
        )
        return directionalize(g)
    g = WeightedGraph.build(n, rows, directed=directed)
    if probability_mode == "inverse-in-degree":
        return inverse_indegree_probabilities(g)
    return g


def write_edge_list(path: PathLike, g: WeightedGraph, *, comment: str = "") -> None:
    lines = []
    if comment:
        lines.append(f"% {comment}")
    lines.append(f"% n {g.n}")
    lines.extend(_edge_rows(g))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# gram matrices


def load_gram(path: PathLike) -> GramMatrix:
    path = Path(path)
    entries = list(_data_lines(path))
    if not entries:
        raise InstanceParseError(path, 0, "empty gram file")
    first_line, first_text = entries[0]
    try:
        n = int(first_text)
    except ValueError:
        raise InstanceParseError(path, first_line, "first line must be the dimension") from None
    if len(entries) != n + 1:
        raise InstanceParseError(path, first_line, f"expected {n} matrix rows")
    rows = []
    for lineno, text in entries[1:]:
        values = text.split()
        if len(values) != n:
            raise InstanceParseError(path, lineno, f"expected {n} entries per row")
        rows.append(_numbers(path, lineno, values, float))
    try:
        return GramMatrix(np.array(rows))
    except ValueError as exc:
        raise InstanceParseError(path, first_line, str(exc)) from None


def write_gram(path: PathLike, gram: GramMatrix) -> None:
    lines = [str(gram.n)]
    for row in gram.a:
        lines.append(" ".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# CNF


def load_cnf(path: PathLike) -> CnfFormula:
    path = Path(path)
    n_vars = None
    tokens: list[tuple[int, int]] = []  # (line, literal)
    for lineno, text in _lines(path):
        if text.startswith(("c", "%")):
            continue
        if text.startswith("p"):
            parts = text.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise InstanceParseError(path, lineno, f"bad problem line {text!r}")
            header = lineno
            n_vars, n_clauses = _numbers(path, lineno, parts[2:])
            continue
        tokens.extend((lineno, t) for t in _numbers(path, lineno, text.split()))
    if n_vars is None:
        raise InstanceParseError(path, 0, "missing 'p cnf' line")
    clauses: list[tuple[tuple[int, bool], ...]] = []
    current: list[tuple[int, bool]] = []
    for lineno, t in tokens:
        if t == 0:
            if current:
                clauses.append(tuple(current))
                current = []
            continue
        var = abs(t) - 1
        if var >= n_vars:
            raise InstanceParseError(path, lineno, f"literal {t} beyond {n_vars} variables")
        current.append((var, t > 0))
    if current:
        clauses.append(tuple(current))
    if len(clauses) != n_clauses:
        raise InstanceParseError(
            path, header, f"header promised {n_clauses} clauses, found {len(clauses)}"
        )
    return CnfFormula(n_vars, tuple(clauses))


def write_cnf(path: PathLike, phi: CnfFormula) -> None:
    lines = [f"p cnf {phi.n_vars} {phi.m}"]
    for clause in phi.clauses:
        lits = " ".join(str((var + 1) if pos else -(var + 1)) for var, pos in clause)
        lines.append(f"{lits} 0")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# reverse-reachable collections


def save_rr_collection(path: PathLike, rr: RrSetCollection) -> None:
    # past 4,300 decimal digits, the default int-to-str limit, the seed goes in hex
    seed = hex(rr.seed) if abs(rr.seed) >= 10**4300 else str(rr.seed)
    lines = [f"{rr.n} {rr.count} {seed}"]
    if rr.source_digest:
        lines.append(f"% graph {rr.source_digest}")
    for s in rr.sets:
        lines.append(" ".join(str(v + 1) for v in s))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_rr_collection(path: PathLike) -> RrSetCollection:
    path = Path(path)
    digest = ""
    header = None
    rows: list[bytes] = []
    for lineno, text in _lines(path):
        if text.startswith("%"):
            tokens = text[1:].split()
            if len(tokens) == 2 and tokens[0] == "graph":
                digest = tokens[1]
            continue
        if header is None:
            parts = text.split()
            if len(parts) != 3:
                raise InstanceParseError(path, lineno, "header must be 'n count seed'")
            header = lineno
            n, count = _numbers(path, lineno, parts[:2])
            seed = _numbers(path, lineno, parts[2:], lambda t: int(t, 16 if "x" in t else 10))[0]
            if n < 1 or count < 1:
                raise InstanceParseError(path, lineno, "header needs n >= 1 and count >= 1")
            continue
        try:
            mask = Subset(n, (int(t) - 1 for t in text.split())).mask
        except ValueError:
            raise InstanceParseError(path, lineno, f"bad vertex id in {text!r}") from None
        rows.append(mask.to_bytes((n + 7) // 8, "little"))
    if header is None:
        raise InstanceParseError(path, 0, "missing header line")
    if len(rows) != count:
        raise InstanceParseError(path, header, f"header promised {count} sets, found {len(rows)}")
    return RrSetCollection(n, b"".join(rows), seed, digest)


# ---------------------------------------------------------------------------
# instance files


@dataclass
class InstanceFile:
    """Parsed instance: oracle, endpoints, rule, and an unresolved threshold.

    ``theta_kind`` is ``"value"`` (absolute), ``"frac"`` (fraction of
    ``min(f(X), f(Y))``, resolved on demand at the cost of two evaluations),
    or ``None``.
    """

    oracle: SetFunctionOracle
    x: Subset
    y: Subset
    rule: AdjacencyRule
    theta_kind: Optional[str] = None
    theta_param: Optional[float] = None

    def resolve_theta(
        self, theta: Optional[float] = None, theta_frac: Optional[float] = None
    ) -> Optional[float]:
        """The given ``theta`` or ``theta_frac``, else the file's own threshold."""
        if theta is None and theta_frac is None:
            theta = self.theta_param if self.theta_kind == "value" else None
            theta_frac = self.theta_param if self.theta_kind == "frac" else None
        return resolve_threshold(
            theta,
            theta_frac,
            lambda: min(self.oracle.evaluate(self.x), self.oracle.evaluate(self.y)),
        )

    def to_problem_instance(self, theta: Optional[float]) -> ProblemInstance:
        k = len(self.x) if self.rule is AdjacencyRule.TJ else None
        return ProblemInstance(self.oracle, self.x, self.y, self.rule, theta, k)


def _section_map(path: Path) -> dict[str, list[tuple[int, list[str]]]]:
    sections: dict[str, list[tuple[int, list[str]]]] = {}
    current = None
    for lineno, text in _data_lines(path):
        if text.startswith("[") and text.endswith("]"):
            current = text[1:-1].strip().lower()
            sections.setdefault(current, [])
            continue
        if current is None:
            raise InstanceParseError(path, lineno, f"directive {text!r} before any section")
        sections[current].append((lineno, text.split()))
    return sections


def _single(path, entries, key, convert=str, default=None):
    for lineno, tokens in entries:
        if tokens[0] == key:
            if len(tokens) != 2:
                raise InstanceParseError(path, lineno, f"'{key}' takes one value")
            return _numbers(path, lineno, tokens[1:], convert)[0]
    return default


def _single_int(path, entries, key) -> int:
    value = _single(path, entries, key, int)
    if value is None:
        raise InstanceParseError(path, 0, f"missing '{key}' in [oracle]")
    return value


def _weights(path, entries) -> list[float]:
    """The first ``weights`` line of an [oracle] section."""
    for lineno, tokens in entries:
        if tokens[0] == "weights":
            return _numbers(path, lineno, tokens[1:], float)
    raise InstanceParseError(path, 0, "missing 'weights' in [oracle]")


def _build_oracle(path: Path, entries: list) -> SetFunctionOracle:
    kind = _single(path, entries, "kind")
    if kind is None:
        raise InstanceParseError(path, 0, "missing 'kind' in [oracle]")
    base = path.parent

    if kind == "coverage":
        n = _single_int(path, entries, "n")
        items = _single_int(path, entries, "items")
        divisor = _single(path, entries, "divisor", float, 1.0)
        if divisor <= 0:
            lineno = next(i for i, tokens in entries if tokens[0] == "divisor")
            raise InstanceParseError(path, lineno, "divisor must be positive")
        covers = []
        for lineno, tokens in entries:
            if tokens[0] == "cover":
                ids = _numbers(path, lineno, tokens[1:])
                if not all(1 <= i <= items for i in ids):
                    raise InstanceParseError(path, lineno, f"cover items lie in 1..{items}")
                covers.append(tuple(i - 1 for i in ids))
        if len(covers) != n:
            raise InstanceParseError(path, 0, f"expected {n} 'cover' lines, got {len(covers)}")
        return coverage_oracle(CoverageSpec(items, tuple(covers), divisor))

    if kind == "modular":
        return modular_oracle(_weights(path, entries))

    if kind in ("cut", "incidence", "shifted-incidence"):
        graph_file = _single(path, entries, "graph-file")
        if graph_file is not None:
            graph = load_edge_list(base / graph_file, directed=False)
        else:
            n = _single_int(path, entries, "n")
            rows = [
                _edge_row(path, lineno, tokens[1:], n)
                for lineno, tokens in entries
                if tokens[0] == "edge"
            ]
            graph = WeightedGraph.build(n, rows)
        maker = {
            "cut": cut_oracle,
            "incidence": incidence_oracle,
            "shifted-incidence": shifted_incidence_oracle,
        }[kind]
        return maker(graph)

    if kind == "nae":
        cnf_file = _single(path, entries, "cnf-file")
        if cnf_file is not None:
            return nae_clause_oracle(load_cnf(base / cnf_file))
        n = _single_int(path, entries, "n")
        clauses = []
        for lineno, tokens in entries:
            if tokens[0] == "clause":
                ids = _numbers(path, lineno, tokens[1:])
                if not (len(ids) == len(set(ids)) == 3 and all(1 <= i <= n for i in ids)):
                    raise InstanceParseError(
                        path, lineno, f"clause holds three distinct variables in 1..{n}"
                    )
                clauses.append(tuple(i - 1 for i in ids))
        return nae_clause_oracle(CnfFormula.monotone3(n, clauses))

    if kind == "logdet":
        gram_file = _single(path, entries, "gram-file")
        if gram_file is None:
            raise InstanceParseError(path, 0, "logdet oracle needs 'gram-file'")
        return logdet_oracle(load_gram(base / gram_file))

    if kind == "influence":
        rr_file = _single(path, entries, "rr-file")
        if rr_file is not None:
            return influence_oracle(load_rr_collection(base / rr_file))
        graph_file = _single(path, entries, "graph-file")
        if graph_file is None:
            raise InstanceParseError(path, 0, "influence oracle needs 'rr-file' or 'graph-file'")
        directed = _single(path, entries, "directed", default="false").lower() == "true"
        mode = _single(path, entries, "probability", default="inverse-in-degree")
        rr_count = _single_int(path, entries, "rr-count")
        seed = _single_int(path, entries, "seed")
        graph = load_edge_list(base / graph_file, directed=directed, probability_mode=mode)
        return influence_oracle(sample_rr_sets(graph, rr_count, seed))

    if kind == "gadget":
        upsilon = _single(path, entries, "upsilon", float, 0.0)
        return inapprox_gadget(modular_oracle(_weights(path, entries)), upsilon).oracle

    raise InstanceParseError(path, 0, f"unknown oracle kind {kind!r}")


def load_instance(path: PathLike) -> InstanceFile:
    path = Path(path)
    sections = _section_map(path)
    for required in ("oracle", "endpoints", "rule"):
        if required not in sections:
            raise InstanceParseError(path, 0, f"missing [{required}] section")
    oracle = _build_oracle(path, sections["oracle"])
    n = oracle.universe.n
    ends: dict[str, Subset] = {}
    for lineno, tokens in sections["endpoints"]:
        ids = [i - 1 for i in _numbers(path, lineno, tokens[1:])]
        try:
            subset = Subset(n, ids)
        except ValueError as exc:
            raise InstanceParseError(path, lineno, str(exc)) from None
        if tokens[0] not in ("x", "y"):
            raise InstanceParseError(path, lineno, f"unknown endpoint {tokens[0]!r}")
        if tokens[0] in ends:
            raise InstanceParseError(path, lineno, f"second '{tokens[0]}' line")
        ends[tokens[0]] = subset
    if len(ends) != 2:
        raise InstanceParseError(path, 0, "endpoints need both 'x' and 'y'")
    rule_entries = sections["rule"]
    if len(rule_entries) != 1 or len(rule_entries[0][1]) != 1:
        raise InstanceParseError(path, 0, "[rule] holds exactly one token")
    try:
        rule = AdjacencyRule.parse(rule_entries[0][1][0])
    except ValueError as exc:
        raise InstanceParseError(path, rule_entries[0][0], str(exc)) from None
    theta_kind = None
    theta_param = None
    theta_lines = sections.get("theta", [])
    if len(theta_lines) > 1:
        raise InstanceParseError(path, theta_lines[1][0], "[theta] holds one directive")
    for lineno, tokens in theta_lines:
        if tokens[0] == "none":
            theta_kind = None
        elif tokens[0] in ("value", "frac"):
            if len(tokens) != 2:
                raise InstanceParseError(path, lineno, f"'{tokens[0]}' takes one number")
            theta_kind = tokens[0]
            theta_param = _numbers(path, lineno, tokens[1:], float)[0]
        else:
            raise InstanceParseError(path, lineno, f"unknown theta form {tokens[0]!r}")
    return InstanceFile(oracle, ends["x"], ends["y"], rule, theta_kind, theta_param)


def _oracle_lines(path: Path, oracle: SetFunctionOracle) -> list[str]:
    if oracle.serial is None:
        raise ValueError(f"oracle {oracle.name!r} cannot be written to a file")
    kind, payload = oracle.serial
    lines = [f"kind {kind}"]
    if kind == "coverage":
        spec: CoverageSpec = payload
        lines.append(f"n {spec.n}")
        lines.append(f"items {spec.universe_size}")
        lines.append(f"divisor {spec.divisor!r}")
        for v in spec.covered:
            lines.append(("cover " + " ".join(str(i + 1) for i in v)).rstrip())
        return lines
    if kind == "modular":
        lines.append("weights " + " ".join(repr(float(w)) for w in payload))
        return lines
    if kind in ("cut", "incidence", "shifted-incidence"):
        g: WeightedGraph = payload
        lines.append(f"n {g.n}")
        # these oracles read the weights only
        lines.extend("edge " + row for row in _edge_rows(replace(g, probabilities=None)))
        return lines
    if kind == "nae":
        phi: CnfFormula = payload
        lines.append(f"n {phi.n_vars}")
        for j in range(phi.m):
            lines.append("clause " + " ".join(str(v + 1) for v in phi.clause_vars(j)))
        return lines
    if kind == "influence":
        rr: RrSetCollection = payload
        rr_path = path.with_suffix(".rr")
        save_rr_collection(rr_path, rr)
        lines.append(f"rr-file {rr_path.name}")
        return lines
    if kind == "logdet":
        gram: GramMatrix = payload
        gram_path = path.with_suffix(".gram")
        write_gram(gram_path, gram)
        lines.append(f"gram-file {gram_path.name}")
        return lines
    if kind == "gadget":
        upsilon, weights = payload
        lines.append(f"upsilon {upsilon!r}")
        lines.append("weights " + " ".join(repr(float(w)) for w in weights))
        return lines
    raise ValueError(f"unknown serializable kind {kind!r}")


def write_instance(
    path: PathLike,
    oracle: SetFunctionOracle,
    x: Subset,
    y: Subset,
    rule: AdjacencyRule,
    *,
    theta_kind: Optional[str] = None,
    theta_param: Optional[float] = None,
) -> None:
    path = Path(path)
    lines = ["[oracle]"]
    lines.extend(_oracle_lines(path, oracle))
    lines.append("")
    lines.append("[endpoints]")
    lines.append(("x " + " ".join(str(e + 1) for e in x)).rstrip())
    lines.append(("y " + " ".join(str(e + 1) for e in y)).rstrip())
    lines.append("")
    lines.append("[rule]")
    lines.append(rule.token)
    lines.append("")
    lines.append("[theta]")
    if theta_kind is None:
        lines.append("none")
    else:
        lines.append(f"{theta_kind} {theta_param!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_instance_for(instance: ProblemInstance, path: PathLike) -> None:
    """Write a problem instance whose threshold (if any) is absolute."""
    write_instance(
        path,
        instance.oracle,
        instance.x,
        instance.y,
        instance.rule,
        theta_kind=None if instance.theta is None else "value",
        theta_param=instance.theta,
    )


# ---------------------------------------------------------------------------
# sequence CSV


def load_sequence_csv(path: PathLike, n: int) -> ReconfigSequence:
    """Read the ``index,set,value`` rows written by the experiment runner."""
    import csv

    path = Path(path)
    steps: list[Subset] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["index", "set"]:
            raise InstanceParseError(path, 1, "expected 'index,set,value' header")
        for row in reader:
            if not row:
                continue
            try:
                steps.append(parse_ids_1indexed(row[1], n))
            except (IndexError, ValueError):
                raise InstanceParseError(
                    path, reader.line_num, f"bad set in row {row!r}"
                ) from None
    if not steps:
        raise InstanceParseError(path, 0, "sequence file has no rows")
    return ReconfigSequence(steps)
