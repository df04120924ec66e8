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
* reverse-reachable collection: header ``n count seed``, then one vertex set
  per line;
* instance: sections ``[oracle]``, ``[endpoints]``, ``[rule]``, ``[theta]``,
  read as one ``ProblemInstance``; ``[theta]`` is ``value r`` or ``none``.
  ``[oracle]`` holds a ``kind`` line and that kind's directives (``_KINDS``;
  ``*`` may repeat): coverage ``n items divisor cover*``; modular ``weights``;
  cut, incidence and shifted-incidence ``n edge* graph-file``; nae ``n clause*
  cnf-file``; logdet ``gram-file``; influence ``rr-file graph-file directed
  probability rr-count seed``; gadget ``upsilon weights``.  An ``edge`` line
  holds an edge-list row.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .core import (
    AdjacencyRule,
    ProblemInstance,
    ReconfigSequence,
    SetFunctionOracle,
    Subset,
    UniverseMismatchError,
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
    """A file did not match its expected format; carries path, line and message."""

    def __init__(self, path: PathLike, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path, self.line, self.message = str(path), line, message

    def __reduce__(self):
        return type(self), (self.path, self.line, self.message)


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


def parse_ids_1indexed(text: str, n: int) -> Subset:
    """The subset of the 1-indexed ``{i,j,...}`` form (braces optional)."""
    body = text.strip()
    if body.startswith("{") and body.endswith("}"):
        body = body[1:-1]
    return _subset_1indexed(n, [int(tok) - 1 for tok in body.replace(",", " ").split()])


def _subset_1indexed(n: int, ids: Sequence[int]) -> Subset:
    """The subset of the 0-indexed ``ids``; one outside the universe is named
    as the file or command line wrote it, 1-indexed."""
    for e in ids:
        if not 0 <= e < n:
            raise UniverseMismatchError(f"element {e + 1} outside 1..{n}")
    return Subset(n, ids)


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
    for s in rr.sets:
        lines.append(" ".join(str(v + 1) for v in s))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_rr_collection(path: PathLike) -> RrSetCollection:
    path = Path(path)
    header = None
    rows: list[bytes] = []
    for lineno, text in _data_lines(path):
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
    return RrSetCollection(n, b"".join(rows), seed)


# ---------------------------------------------------------------------------
# instance files


def _section_map(path: Path) -> dict[str, list[tuple[int, list[str]]]]:
    sections: dict[str, list[tuple[int, list[str]]]] = {}
    current = None
    for lineno, text in _data_lines(path):
        if text.startswith("[") and text.endswith("]"):
            current = text[1:-1].strip().lower()
            if current not in ("oracle", "endpoints", "rule", "theta"):
                raise InstanceParseError(path, lineno, f"unknown section {text!r}")
            sections.setdefault(current, [])
            continue
        if current is None:
            raise InstanceParseError(path, lineno, f"directive {text!r} before any section")
        sections[current].append((lineno, text.split()))
    return sections


_MISSING = object()


class _OracleLines:
    """An ``[oracle]`` section grouped by directive in one pass: ``groups[key]``
    holds the ``(line number, values)`` of each ``key`` line in file order."""

    def __init__(self, path: Path, entries: list):
        self.path, self.groups = path, {}
        for lineno, tokens in entries:
            self.groups.setdefault(tokens[0], []).append((lineno, tokens[1:]))

    def first(self, key: str, convert=int, default=_MISSING, one=True):
        """The one value of the ``key`` line, or with ``one=False`` the numbers
        of the first ``key`` line; ``default`` if there is no such line."""
        if key not in self.groups:
            if default is _MISSING:
                raise InstanceParseError(self.path, 0, f"missing '{key}' in [oracle]")
            return default
        lineno, values = self.groups[key][0]
        if one and len(values) != 1:
            raise InstanceParseError(self.path, lineno, f"'{key}' takes one value")
        numbers = _numbers(self.path, lineno, values, convert)
        if key == "n" and numbers[0] > sys.maxsize:  # no table of n entries can be indexed
            raise InstanceParseError(self.path, lineno, f"'n' is at most {sys.maxsize}")
        return numbers[0] if one else numbers

    def file(self, key: str, needed: str = "") -> Optional[Path]:
        """The file a ``key`` line names beside this one; if none, None or the error ``needed``.
        A name that is not a regular file is an error at the ``key`` line."""
        path = self.first(key, self.path.parent.joinpath, None)
        if path is None and needed:
            raise InstanceParseError(self.path, 0, needed)
        if path is not None and not path.is_file():
            raise InstanceParseError(self.path, self.groups[key][0][0], f"no file {str(path)!r}")
        return path


def _read_coverage(d: _OracleLines) -> SetFunctionOracle:
    n, items, divisor = d.first("n"), d.first("items"), d.first("divisor", float, 1.0)
    if divisor <= 0:
        raise InstanceParseError(d.path, d.groups["divisor"][0][0], "divisor must be positive")
    covers = []
    for lineno, values in d.groups.get("cover", []):
        ids = _numbers(d.path, lineno, values)
        if not all(1 <= i <= items for i in ids):
            raise InstanceParseError(d.path, lineno, f"cover items lie in 1..{items}")
        covers.append(tuple(i - 1 for i in ids))
    if len(covers) != n:
        message = f"expected {n} 'cover' lines, got {len(covers)}"
        raise InstanceParseError(d.path, d.groups["n"][0][0], message)
    return coverage_oracle(CoverageSpec(items, tuple(covers), divisor))


def _write_coverage(path: Path, spec: CoverageSpec) -> list[str]:
    covers = (("cover " + " ".join(str(i + 1) for i in v)).rstrip() for v in spec.covered)
    return [f"n {spec.n}", f"items {spec.universe_size}", f"divisor {spec.divisor!r}", *covers]


def _write_weights(path: Path, weights) -> list[str]:
    return ["weights " + " ".join(repr(float(w)) for w in weights)]


def _read_graph(d: _OracleLines) -> WeightedGraph:
    """The graph a ``graph-file`` line names, else that of the ``n`` and ``edge`` lines."""
    graph_file = d.file("graph-file")
    if graph_file is not None:
        return load_edge_list(graph_file)
    n = d.first("n")
    return WeightedGraph.build(n, [_edge_row(d.path, i, v, n) for i, v in d.groups.get("edge", [])])


def _write_graph(path: Path, g: WeightedGraph) -> list[str]:
    # the graph kinds read the weights only
    return [f"n {g.n}", *("edge " + row for row in _edge_rows(replace(g, probabilities=None)))]


def _read_nae(d: _OracleLines) -> SetFunctionOracle:
    cnf_file = d.file("cnf-file")
    if cnf_file is not None:
        return nae_clause_oracle(load_cnf(cnf_file))
    n = d.first("n")
    clauses = []
    for lineno, values in d.groups.get("clause", []):
        ids = _numbers(d.path, lineno, values)
        if not (len(ids) == len(set(ids)) == 3 and all(1 <= i <= n for i in ids)):
            raise InstanceParseError(
                d.path, lineno, f"clause holds three distinct variables in 1..{n}"
            )
        clauses.append(tuple(i - 1 for i in ids))
    return nae_clause_oracle(CnfFormula.monotone3(n, clauses))


def _write_nae(path: Path, phi: CnfFormula) -> list[str]:
    clauses = (phi.clause_vars(j) for j in range(phi.m))
    return [f"n {phi.n_vars}", *("clause " + " ".join(str(v + 1) for v in c) for c in clauses)]


def _read_influence(d: _OracleLines) -> SetFunctionOracle:
    rr_file = d.file("rr-file")
    if rr_file is not None:
        return influence_oracle(load_rr_collection(rr_file))
    graph_file = d.file("graph-file", "influence oracle needs 'rr-file' or 'graph-file'")
    directed = d.first("directed", str, "false").lower()
    if directed not in ("true", "false"):
        raise InstanceParseError(d.path, d.groups["directed"][0][0], "'directed' is true or false")
    mode = d.first("probability", str, "inverse-in-degree")
    rr_count, seed = d.first("rr-count"), d.first("seed")
    graph = load_edge_list(graph_file, directed=directed == "true", probability_mode=mode)
    return influence_oracle(sample_rr_sets(graph, rr_count, seed))


def _sibling(directive: str, suffix: str, save):
    """The writer that saves its payload beside the instance file, named as
    that file with ``suffix``, and names it on a ``directive`` line."""

    def write(path: Path, payload) -> list[str]:
        target = path.with_suffix(suffix)
        if target == path:
            raise ValueError(f"{path} would be its own {directive}; give it another suffix")
        save(target, payload)
        return [f"{directive} {target.name}"]

    return write


def _read_gadget(d: _OracleLines) -> SetFunctionOracle:
    upsilon = d.first("upsilon", float)
    return inapprox_gadget(_KINDS["modular"][1](d), upsilon).oracle


def _write_gadget(path: Path, payload) -> list[str]:
    upsilon, inner = payload  # inner is the wrapped oracle's serial
    kind = inner and inner[0]
    if kind != "modular":
        raise ValueError(f"a gadget is written only around a modular oracle, not {kind!r}")
    return [f"upsilon {upsilon!r}", *_write_weights(path, inner[1])]


_KINDS = {
    "coverage": ("n items divisor cover", _read_coverage, _write_coverage),
    "modular": ("weights", lambda d: modular_oracle(d.first("weights", float, one=False)),
                _write_weights),
    "cut": ("n edge graph-file", lambda d: cut_oracle(_read_graph(d)), _write_graph),
    "incidence": ("n edge graph-file", lambda d: incidence_oracle(_read_graph(d)), _write_graph),
    "shifted-incidence": ("n edge graph-file", lambda d: shifted_incidence_oracle(_read_graph(d)),
                          _write_graph),
    "nae": ("n clause cnf-file", _read_nae, _write_nae),
    "logdet": (
        "gram-file",
        lambda d: logdet_oracle(load_gram(d.file("gram-file", "logdet oracle needs 'gram-file'"))),
        _sibling("gram-file", ".gram", write_gram),
    ),
    "influence": ("rr-file graph-file directed probability rr-count seed", _read_influence,
                  _sibling("rr-file", ".rr", save_rr_collection)),
    "gadget": ("upsilon weights", _read_gadget, _write_gadget),
}
"""Each oracle kind's file syntax: kind -> (its ``[oracle]`` directives
besides ``kind``, reader, writer).  A reader builds the oracle from the
grouped lines; a writer takes the instance path and the payload of the
oracle's ``serial = (kind, payload)``, and returns the lines after ``kind``."""
# the directives that may appear more than once
_REPEATABLE = ("cover", "edge", "clause")


def _build_oracle(path: Path, entries: list) -> SetFunctionOracle:
    d = _OracleLines(path, entries)
    kind = d.first("kind", str)
    if kind not in _KINDS:
        raise InstanceParseError(path, d.groups["kind"][0][0], f"unknown oracle kind {kind!r}")
    known = ("kind", *_KINDS[kind][0].split())
    # the first line whose directive the kind does not read, or reads only once
    bad = [(ls[0][0], f"{kind} oracle has no directive {k!r}") for k, ls in d.groups.items()
           if k not in known]
    bad += [(ls[1][0], f"second '{k}' line in [oracle]") for k, ls in d.groups.items()
            if len(ls) > 1 and k not in _REPEATABLE]
    if bad:
        raise InstanceParseError(path, *min(bad))
    try:
        return _KINDS[kind][1](d)
    except InstanceParseError:
        raise  # one from a data file names that file
    except ValueError as exc:
        # a value the oracle refuses is named at the 'kind' line
        raise InstanceParseError(path, d.groups["kind"][0][0], str(exc)) from None


def load_instance(path: PathLike) -> ProblemInstance:
    """The task an instance file describes: ``theta`` is ``[theta]``'s
    ``value r``, else None (a fraction of ``min(f(X), f(Y))`` is the run
    option ``theta_frac``); under TJ ``cardinality_k`` is |X|, and endpoints
    of two sizes are an error at the ``[rule]`` line."""
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
            subset = _subset_1indexed(n, ids)
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
        # the second line, else the one line with more than one token; 0 if none
        lineno = rule_entries[:2][-1][0] if rule_entries else 0
        raise InstanceParseError(path, lineno, "[rule] holds exactly one token")
    try:
        rule = AdjacencyRule.parse(rule_entries[0][1][0])
    except ValueError as exc:
        raise InstanceParseError(path, rule_entries[0][0], str(exc)) from None
    theta = None
    theta_lines = sections.get("theta", [])
    if len(theta_lines) > 1:
        raise InstanceParseError(path, theta_lines[1][0], "[theta] holds one directive")
    for lineno, tokens in theta_lines:
        if tokens[0] == "value":
            if len(tokens) != 2:
                raise InstanceParseError(path, lineno, "'value' takes one number")
            theta = _numbers(path, lineno, tokens[1:], float)[0]
        elif tokens[0] == "frac":
            raise InstanceParseError(path, lineno, "'frac' is the run option --theta-frac")
        elif tokens[0] != "none":
            raise InstanceParseError(path, lineno, f"unknown theta form {tokens[0]!r}")
    k = len(ends["x"]) if rule is AdjacencyRule.TJ else None
    try:
        return ProblemInstance(oracle, ends["x"], ends["y"], rule, theta, k)
    except ValueError as exc:
        raise InstanceParseError(path, rule_entries[0][0], str(exc)) from None


def _oracle_lines(path: Path, oracle: SetFunctionOracle) -> list[str]:
    if oracle.serial is None or oracle.serial[0] not in _KINDS:
        raise ValueError(f"oracle {oracle.name!r} cannot be written to a file")
    kind, payload = oracle.serial
    return [f"kind {kind}", *_KINDS[kind][2](path, payload)]


def write_instance(
    path: PathLike,
    oracle: SetFunctionOracle,
    x: Subset,
    y: Subset,
    rule: AdjacencyRule,
    *,
    theta: Optional[float] = None,
) -> None:
    """Write an instance file that :func:`load_instance` reads back; a
    ``theta`` becomes ``[theta]``'s ``value`` line, and None its ``none``.
    A non-finite ``theta``, or a path that a data file beside it would
    overwrite, raises ``ValueError`` before any file is written."""
    if theta is not None and not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    threshold = "none" if theta is None else f"value {theta!r}"
    path = Path(path)
    lines = [
        "[oracle]", *_oracle_lines(path, oracle), "",
        "[endpoints]", ("x " + " ".join(str(e + 1) for e in x)).rstrip(),
        ("y " + " ".join(str(e + 1) for e in y)).rstrip(), "",
        "[rule]", rule.token, "",
        "[theta]", threshold,
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# sequence CSV


def write_sequence_csv(path: PathLike, rows: Sequence[tuple[int, Subset, float]]) -> None:
    """Write ``(index, set, value)`` rows under an ``index,set,value`` header."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "set", "value"])
        for index, subset, value in rows:
            writer.writerow([index, format_ids_1indexed(subset), repr(value)])


def load_sequence_csv(path: PathLike, n: int) -> ReconfigSequence:
    """Read the ``index,set,value`` rows of :func:`write_sequence_csv`."""
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
