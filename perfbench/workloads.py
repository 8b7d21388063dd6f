"""Seeded workloads of the gapc1p benchmark.

A workload is built once per run from its seed: ``build(name, seed, mods,
workdir, tiny)`` generates the instances, writes the matrix files the CLI
reads, and returns the fixed op set of one pass plus the known-limit probes.
``tiny`` shrinks every workload for the harness self-check.
Every op carries its known answer, which comes from the construction or from
the benchmark's own enumeration, never from the gapc1p layer under test.

Each op's ``run`` makes the call into the program and returns its raw
result; ``check`` judges that result afterwards, outside the timed region,
and returns ``(decided, fingerprint)``.  The fingerprint holds the counts
that must repeat exactly on every pass (nodes and prunes for the search).
A wrong verdict or an invalid witness raises :class:`WrongAnswer`.

Calls go through ``mods.<module>.<function>`` at call time, so the tracer
can substitute its timed wrappers without any change to this file.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Sequence

WORKLOADS = ("refute", "planted", "c1p-scale", "oracle")

# Per-op node budget of the planted workload.  An op that hits it is
# undecided, which lowers decided_share; it is not an error.
PLANTED_NODE_BUDGET = 5_000


class WrongAnswer(Exception):
    """The program returned a verdict or witness that contradicts the known answer."""


@dataclass
class Op:
    name: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, tuple]]


@dataclass
class Workload:
    ops: list[Op]
    probes: list[Op]
    instances: dict  # op name -> short description, for the run metadata


# ---------------------------------------------------------------------------
# Independent checks.  They share no code with gapc1p.bitmatrix: positions
# come from a plain dict and blocks and gaps are counted directly.


def ordering_ok(rows: Sequence[Sequence[int]], forward: Sequence[int], n: int,
                k: int | None, delta: int | None) -> bool:
    """True when ``forward`` is a permutation of 1..n meeting (k, delta) on every row."""
    if sorted(forward) != list(range(1, n + 1)):
        return False
    where = {c: p for p, c in enumerate(forward)}
    for row in rows:
        ps = sorted(where[c] for c in row)
        blocks = 1
        for a, b in zip(ps, ps[1:]):
            if b > a + 1:
                blocks += 1
                if delta is not None and b - a - 1 > delta:
                    return False
        if k is not None and blocks > k:
            return False
    return True


def enumerate_valid(rows, n: int, k: int | None, delta: int | None, cap: int):
    """Count every valid ordering of 1..n and keep the first ``cap`` in lexicographic order."""
    rows = [r for r in rows if len(r) >= 2]
    count = 0
    first: list[tuple[int, ...]] = []
    for perm in itertools.permutations(range(1, n + 1)):
        if ordering_ok(rows, perm, n, k, delta):
            count += 1
            if len(first) < cap:
                first.append(perm)
    return count, first


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise WrongAnswer(message)


# ---------------------------------------------------------------------------
# Instance generators.


def _shuffled(rng: random.Random, n: int) -> list[int]:
    forward = list(range(1, n + 1))
    rng.shuffle(forward)
    return forward


def planted_rows(rng: random.Random, n: int, k: int, delta: int, count: int) -> list[list[int]]:
    """Rows over positions 1..n, each with at most k blocks and gaps of at most delta."""
    rows = []
    while len(rows) < count:
        pos: list[int] = []
        p = rng.randint(1, n)
        for b in range(rng.randint(1, k)):
            length = rng.randint(1, 4)
            pos.extend(range(p, min(p + length, n + 1)))
            if delta == 0:
                break
            p += length + rng.randint(1, delta)
            if p > n:
                break
        if len(pos) >= 2:
            rows.append(pos)
    return rows


def relabel(rows, forward) -> list[tuple[int, ...]]:
    """Put column forward[p-1] at position p: the hidden order becomes a witness."""
    return [tuple(sorted(forward[p - 1] for p in row)) for row in rows]


def interval_rows(rng: random.Random, n: int, count: int) -> list[list[int]]:
    rows = []
    for _ in range(count):
        a = rng.randint(1, n - 1)
        rows.append(list(range(a, min(n, a + rng.randint(1, 7)) + 1)))
    return rows


def planted_cnf(rng: random.Random, num_vars: int, num_clauses: int):
    """An exact-3 clause list and a hidden assignment that satisfies it."""
    truth = {v: rng.random() < 0.5 for v in range(1, num_vars + 1)}
    clauses = []
    for _ in range(num_clauses):
        while True:
            clause = tuple(rng.choice((1, -1)) * rng.randint(1, num_vars) for _ in range(3))
            if any(truth[abs(lit)] == (lit > 0) for lit in clause):
                break
        clauses.append(clause)
    return tuple(clauses), truth


def _write_matrix(mods, workdir: Path, name: str, n: int, rows) -> tuple[Path, object]:
    matrix = mods.bitmatrix.BinaryMatrix.from_rows(n, rows)
    path = workdir / f"{name}.txt"
    path.write_text(mods.bitmatrix.serialize_matrix(matrix))
    return path, matrix


# ---------------------------------------------------------------------------
# CLI ops: ``gapc1p solve --json`` through cli.main, in process.


def _cli_solve(mods, path: Path, k: str, delta: str) -> Callable[[], object]:
    argv = ["solve", "--matrix", str(path), "--k", k, "--delta", delta, "--json"]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = mods.cli.main(argv)
        return code, out.getvalue()

    return run


def _cli_check(rows, n: int, k: int | None, delta: int | None, sat: bool):
    def check(result) -> tuple[bool, tuple]:
        code, text = result
        reply = json.loads(text)
        stats = reply["stats"]
        fingerprint = (stats["nodes_expanded"], tuple(sorted(stats["prunes"].items())))
        if sat:
            _expect(code == 0 and reply["status"] == "satisfied",
                    f"expected satisfied, got {reply['status']} (exit {code})")
            _expect(ordering_ok(rows, reply["witness"], n, k, delta),
                    "returned witness fails the benchmark's row check")
        else:
            _expect(code == 1 and reply["status"] == "exhausted",
                    f"expected exhausted, got {reply['status']} (exit {code})")
        return True, fingerprint

    return check


# ---------------------------------------------------------------------------
# Workload builders.


def build_refute(seed: int, mods, workdir: Path, tiny: bool) -> Workload:
    # The Theorem-3 family of (x) and (not x): unsatisfiable, so every search
    # must exhaust.  The instances are fixed; the seed only orders the pass.
    cnf = mods.reduction.Cnf(1, ((1, 1, 1), (-1, -1, -1)))
    ops, instances = [], {}
    for k in ((3,) if tiny else range(3, 9)):
        out = mods.reduction.reduce_theorem3(cnf, k)
        m = out.matrix
        name = f"refute-k{k}"
        path = workdir / f"{name}.txt"
        path.write_text(mods.bitmatrix.serialize_matrix(m))
        ops.append(Op(name, "refute", _cli_solve(mods, path, str(k), "1"),
                      _cli_check(m.rows, m.num_columns, k, 1, sat=False)))
        instances[name] = f"theorem3 k={k} {m.num_columns}x{m.num_rows} spec ({k},1)"
    random.Random(seed).shuffle(ops)
    return Workload(ops, [], instances)


PLANTED_SPECS = ((1, 0), (2, 1), (3, 1), (2, 2))
PLANTED_SIZES = (20, 40, 80, 200)
PLANTED_PER_CELL = 12


def build_planted(seed: int, mods, workdir: Path, tiny: bool) -> Workload:
    rng = random.Random(seed)
    GapSpec, SearchConfig = mods.bitmatrix.GapSpec, mods.solver.SearchConfig
    config = SearchConfig(node_limit=PLANTED_NODE_BUDGET)
    sizes = (20,) if tiny else PLANTED_SIZES
    per_cell = 1 if tiny else PLANTED_PER_CELL
    ops, instances = [], {}
    for k, delta in PLANTED_SPECS:
        for n in sizes:
            for i in range(per_cell):
                rows = relabel(planted_rows(rng, n, k, delta, n), _shuffled(rng, n))
                m = mods.bitmatrix.BinaryMatrix.from_rows(n, rows)
                spec = GapSpec(k, delta)
                name = f"planted-k{k}d{delta}-n{n}-{i}"

                def run(m=m, spec=spec):
                    return mods.solver.decide(m, spec, config)

                def check(outcome, rows=rows, n=n, k=k, delta=delta):
                    fingerprint = (outcome.stats.nodes_expanded,
                                   tuple(sorted(outcome.stats.prunes.items())))
                    _expect(outcome.status != "exhausted",
                            "exhausted on a planted-satisfiable matrix")
                    if outcome.status != "satisfied":
                        return False, fingerprint
                    _expect(ordering_ok(rows, outcome.witness.forward, n, k, delta),
                            "returned witness fails the benchmark's row check")
                    return True, fingerprint

                ops.append(Op(name, f"planted-k{k}d{delta}", run, check))
                instances[name] = f"{n}x{len(rows)} spec ({k},{delta})"
    rng.shuffle(ops)
    return Workload(ops, [], instances)


def build_c1p_scale(seed: int, mods, workdir: Path, tiny: bool) -> Workload:
    rng = random.Random(seed)
    ops, probes, instances = [], [], {}

    def add(target: list, name: str, n: int, rows, sat: bool, what: str) -> None:
        path, m = _write_matrix(mods, workdir, name, n, rows)
        target.append(Op(name, name.rsplit("-", 1)[0], _cli_solve(mods, path, "1", "0"),
                         _cli_check(m.rows, n, 1, 0, sat)))
        instances[name] = f"{what} {n}x{len(rows)}"

    # Copies per size are chosen so that, with the fixed pass count, the
    # median op falls inside the 400-column group and the p75 tail inside
    # the 800-column group, not on a boundary between op kinds.
    plan = ((40, 2), (80, 1)) if tiny else ((400, 8), (800, 3), (1600, 1))
    for n, copies in plan:
        for i in range(copies):
            rows = relabel(interval_rows(rng, n, n), _shuffled(rng, n))
            add(ops, f"interval-n{n}-{i}", n, rows, True, "shuffled interval")
    nested = 30 if tiny else 800
    rows = relabel([range(1, i + 2) for i in range(1, nested + 1)], _shuffled(rng, nested + 1))
    add(ops, f"nested-r{nested}-0", nested + 1, rows, True, "shuffled nested prefix")
    # A cycle of pair rows cannot be made consecutive: its columns would all
    # need two neighbours inside a path.  Hiding one in an interval matrix
    # gives a non-C1P instance whose answer is known by construction.
    for i, n in enumerate((40,) if tiny else (400, 400)):
        rows = interval_rows(rng, n, n)
        cycle = rng.sample(range(1, n + 1), 5)
        rows += [sorted((cycle[j], cycle[(j + 1) % 5])) for j in range(5)]
        rows = relabel(rows, _shuffled(rng, n))
        add(ops, f"nonc1p-n{n}-{i}", n, rows, False, "interval plus 5-cycle")
    if not tiny:
        # Known limit: nested prefixes of 1000 rows or more overflow the
        # recursive PQ-tree walk.
        rows = relabel([range(1, i + 2) for i in range(1, 1001)], _shuffled(rng, 1001))
        add(probes, "nested-r1000-0", 1001, rows, True, "shuffled nested prefix")
    rng.shuffle(ops)
    return Workload(ops, probes, instances)


# Op counts per kind are fixed so that, with three passes, the median op
# falls inside the witness group and the p90 tail inside the 8-column
# rigidity group; the seed changes only the rows, formulas and assignments.
BF_CASES = ((8, 2, 1), (8, 3, 1), (8, 2, 2), (8, 1, 0), (9, 2, 1))  # (columns, k, delta)
RIGIDITY_CASES = (  # (n, delta, k, extra columns)
    (5, 1, 2, 3), (6, 1, 2, 2), (7, 1, 2, 1), (8, 1, 2, 0), (7, 2, 2, 1), (8, 2, 3, 0),
    (6, 1, 2, 3),
)
# One formula shape for every witness op (2 variables, 4 clauses, k = 3):
# with mixed shapes the median op lands on a boundary between shapes.
WITNESS_CASES = 36
THEOREM2_PROBES = 20


def build_oracle(seed: int, mods, workdir: Path, tiny: bool) -> Workload:
    rng = random.Random(seed)
    GapSpec = mods.bitmatrix.GapSpec
    ops, probes, instances = [], [], {}

    for i, (n, k, delta) in enumerate(((6, 2, 1), (6, 1, 0)) if tiny else BF_CASES):
        if i % 2 == 0:
            rows = relabel(planted_rows(rng, n, k, delta, n), _shuffled(rng, n))
        else:
            rows = [sorted(rng.sample(range(1, n + 1), rng.randint(2, 3))) for _ in range(n)]
        m = mods.bitmatrix.BinaryMatrix.from_rows(n, rows)
        spec = GapSpec(k, delta)
        name = f"bf-n{n}-{i}"
        truth: dict = {}

        def run(m=m, spec=spec):
            return mods.solver.brute_force(m, spec)

        def check(report, rows=rows, n=n, k=k, delta=delta, truth=truth):
            if not truth:
                truth["count"], truth["first"] = enumerate_valid(rows, n, k, delta, 8)
            got = [w.forward for w in report.witnesses]
            _expect(report.valid_count == truth["count"],
                    f"valid_count {report.valid_count}, enumeration says {truth['count']}")
            _expect(got == truth["first"], "witness list differs from the enumeration")
            return True, (report.valid_count,)

        ops.append(Op(name, f"bf-n{n}", run, check))
        instances[name] = f"{n}x{len(rows)} spec ({k},{delta})"

    for n, delta, k, extra in (((5, 1, 2, 0),) if tiny else RIGIDITY_CASES):
        name = f"rigidity-{n}.{delta}.{k}+{extra}"

        def run(n=n, delta=delta, k=k, extra=extra):
            return mods.gadget.verify_rigidity(n, delta, k, extra_columns=extra)

        def check(report, extra=extra):
            # The gadget block moves as one unit in either orientation among
            # the free columns: 2 * (extra + 1)! valid orderings.
            expected = 2 * math.factorial(extra + 1)
            _expect(report.rigid and report.counterexample is None, "gadget reported not rigid")
            _expect(report.valid_count == expected,
                    f"valid_count {report.valid_count}, construction says {expected}")
            return True, (report.valid_count,)

        ops.append(Op(name, f"rigidity-n{n + extra}", run, check))
        instances[name] = f"gadget n={n} delta={delta} k={k} in {n + extra} columns"

    def witness_op(target: list, name: str, kind: str, theorem: int, k: int, delta: int,
                   num_vars: int, num_clauses: int) -> None:
        clauses, truth = planted_cnf(rng, num_vars, num_clauses)
        cnf = mods.reduction.Cnf(len(truth), clauses)

        def run():
            if theorem == 3:
                out = mods.reduction.reduce_theorem3(cnf, k)
            else:
                out = mods.reduction.reduce_theorem2(cnf, k, delta)
            return out.matrix, mods.reduction.witness_from_assignment(out, truth)

        def check(result):
            matrix, witness = result
            _expect(ordering_ok(matrix.rows, witness.forward, matrix.num_columns, k, delta),
                    "constructed witness fails the benchmark's row check")
            return True, (matrix.num_columns, matrix.num_rows)

        target.append(Op(name, kind, run, check))
        instances[name] = f"theorem{theorem} k={k} delta={delta} clauses={clauses}"

    for i in range(4 if tiny else WITNESS_CASES):
        witness_op(ops, f"witness-t3-{i}", "witness-t3", 3, 3, 1, 2, 4)
    # Known limit (REPAIRS.md R9): the gapped family's canonical witness
    # tolerates one falsified occurrence per clause, so construction from a
    # planted assignment often raises ConstructionError.
    for i in range(2 if tiny else THEOREM2_PROBES):
        witness_op(probes, f"witness-t2-{i}", "witness-t2", 2, 2, 2,
                   rng.randint(1, 3), rng.randint(1, 3))
    rng.shuffle(ops)
    return Workload(ops, probes, instances)


BUILDERS = {
    "refute": build_refute,
    "planted": build_planted,
    "c1p-scale": build_c1p_scale,
    "oracle": build_oracle,
}


def build(name: str, seed: int, mods: SimpleNamespace, workdir: Path, tiny: bool = False) -> Workload:
    return BUILDERS[name](seed, mods, workdir, tiny)
