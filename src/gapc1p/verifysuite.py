"""Named verification suites: every constructive claim, checked by oracle.

Each case runs one claim at desk scale with a fixed time budget and reports
pass/fail plus a short detail string.  The CLI ``verify`` subcommand and the
acceptance tests both run these; the random corpus is seeded so results are
reproducible.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable

from .bitmatrix import BinaryMatrix, ColumnOrdering, GapSpec, check_ordering
from .gadget import build_gadget, gadget_row_count, verify_rigidity
from .reduction import Cnf, verify_reduction
from .solver import SATISFIED, brute_force, classic_c1p, decide

DEFAULT_SEED = 212121

PASS = "pass"
FAIL = "fail"


@dataclass
class CaseResult:
    case_id: str
    name: str
    status: str
    elapsed_seconds: float
    detail: str


def _run_case(case_id: str, name: str, budget: float, fn: Callable[[], str]) -> CaseResult:
    t0 = time.monotonic()
    try:
        detail = fn()
        status = PASS
    except AssertionError as exc:
        detail = str(exc) or "assertion failed"
        status = FAIL
    except Exception as exc:  # a crashed case is a failed case, not a crashed suite
        detail = f"{type(exc).__name__}: {exc}"
        status = FAIL
    elapsed = time.monotonic() - t0
    if status == PASS and elapsed > budget:
        status = FAIL
        detail = f"over budget: {elapsed:.1f}s > {budget:.0f}s ({detail})"
    return CaseResult(case_id, name, status, elapsed, detail)


def solver_corpus(seed: int, count: int = 200) -> list[BinaryMatrix]:
    """Seeded random matrices: up to 6 columns and 6 rows, one-density 0.4."""
    rng = random.Random(seed)
    corpus = []
    for _ in range(count):
        n = rng.randint(1, 6)
        rows = tuple(
            tuple(c for c in range(1, n + 1) if rng.random() < 0.4)
            for _ in range(rng.randint(0, 6))
        )
        corpus.append(BinaryMatrix(n, rows))
    return corpus


# ---------------------------------------------------------------------------
# Criterion cases.


def case_row_count_identity() -> CaseResult:
    def body() -> str:
        checked = 0
        for delta in (1, 2, 3):
            for n in range(2 * delta + 3, 15):
                closed = gadget_row_count(n, delta)
                built = len(build_gadget(range(1, n + 1), delta))
                pairs = sum(
                    1
                    for i in range(1, n + 1)
                    for j in range(i + 1, n + 1)
                    if j - i <= delta + 1
                )
                assert closed == built == pairs, (
                    f"n={n} delta={delta}: closed {closed}, built {built}, pairs {pairs}"
                )
                checked += 1
        return f"{checked} (n, delta) pairs, closed form = generation = enumeration"

    return _run_case("C1", "gadget row-count identity", 1.0, body)


def case_rigidity() -> CaseResult:
    def body() -> str:
        details = []
        for n, delta, k in ((5, 1, 2), (6, 1, 2), (7, 2, 2), (7, 2, 3)):
            report = verify_rigidity(n, delta, k)
            assert report.rigid, f"(n={n}, delta={delta}, k={k}) not rigid"
            assert report.valid_count == 2, (
                f"(n={n}, delta={delta}, k={k}) valid_count {report.valid_count} != 2"
            )
            details.append(f"({n},{delta},{k})=2")
        return "valid orderings " + ", ".join(details)

    return _run_case("C2", "gadget rigidity, exact survivor count", 40.0, body)


def case_embedded_rigidity() -> CaseResult:
    def body() -> str:
        report = verify_rigidity(5, 1, 2, extra_columns=2)
        assert report.rigid, f"counterexample: {report.counterexample}"
        return f"all 5040 orderings checked; {report.valid_count} valid, all rigid"

    return _run_case("C3", "rigidity embedded among free columns", 30.0, body)


def case_solver_oracle(seed: int) -> CaseResult:
    def body() -> str:
        specs = [GapSpec(1, 0), GapSpec(2, 1), GapSpec(2, 2), GapSpec(3, 1)]
        compared = 0
        for matrix in solver_corpus(seed):
            for spec in specs:
                truth = brute_force(matrix, spec).valid_count > 0
                outcome = decide(matrix, spec)
                assert (outcome.status == SATISFIED) == truth, (
                    f"disagreement on {matrix} at {spec}"
                )
                if outcome.status == SATISFIED:
                    assert check_ordering(matrix, outcome.witness, spec).ok, (
                        f"unsound witness on {matrix} at {spec}"
                    )
                compared += 1
        return f"{compared} instance/spec pairs agree; every witness checked"

    return _run_case("C4", "search agrees with exhaustive oracle", 120.0, body)


def case_classic_agreement(seed: int) -> CaseResult:
    def body() -> str:
        compared = 0
        for matrix in solver_corpus(seed):
            ordering = classic_c1p(matrix)
            truth = brute_force(matrix, GapSpec(1, 0)).valid_count > 0
            assert (ordering is not None) == truth, f"disagreement on {matrix}"
            if ordering is not None:
                assert check_ordering(matrix, ordering, GapSpec(1, 0)).ok
            compared += 1
        triple = BinaryMatrix.from_rows(3, [(1, 2), (2, 3), (1, 3)])
        assert classic_c1p(triple) is None, "the 3-column triple must be rejected"
        return f"{compared} matrices agree; triple rejected"

    return _run_case("C5", "polynomial C1P test agrees with exhaustive oracle", 10.0, body)


def case_theorem3_equivalence() -> CaseResult:
    def body() -> str:
        sat = Cnf(1, ((1, 1, 1),))
        unsat = Cnf(1, ((1, 1, 1), (-1, -1, -1)))
        rep = verify_reduction(sat, 3, 3)
        assert rep.agree and rep.formula_satisfiable, f"sat side: {rep}"
        rep2 = verify_reduction(unsat, 3, 3)
        assert rep2.agree and not rep2.formula_satisfiable, f"unsat side: {rep2}"
        assert rep2.outcome.status == "exhausted"
        return (
            "12-column instance satisfiable with validated witness; "
            f"16-column instance exhausted in {rep2.outcome.stats.nodes_expanded} nodes"
        )

    return _run_case("C6", "block-count reduction iff at k=3", 600.0, body)


def case_theorem2_satisfiable() -> CaseResult:
    def body() -> str:
        rep = verify_reduction(Cnf(1, ((1, 1, 1),)), 2, 2, 2)
        assert rep.agree and rep.formula_satisfiable, f"{rep}"
        return "14-column instance satisfiable; witness validated end to end"

    return _run_case("C7", "gapped reduction at k=delta=2, satisfiable side", 600.0, body)


def case_theorem2_stretch() -> CaseResult:
    def body() -> str:
        rep = verify_reduction(Cnf(1, ((1, 1, 1), (-1, -1, -1))), 2, 2, 2)
        assert rep.agree and not rep.formula_satisfiable, f"{rep}"
        assert rep.outcome.status == "exhausted"
        stats = rep.outcome.stats
        assert stats.nodes_expanded == 18, stats
        assert stats.prunes == {"blocks": 0, "forced": 0, "symmetry": 0, "deadline": 18}, stats
        return f"19-column companion exhausted in {stats.nodes_expanded} nodes"

    return _run_case("C7S", "gapped reduction, unsatisfiable companion (stretch)", 3600.0, body)


def case_collapse_and_reversal(seed: int) -> CaseResult:
    def body() -> str:
        rng = random.Random(seed + 1)
        checked_collapse = checked_reversal = 0
        for matrix in solver_corpus(seed):
            truth = brute_force(matrix, GapSpec(1, 0)).valid_count > 0
            for k in (2, 3):
                decided = decide(matrix, GapSpec(k, 0)).status == SATISFIED
                assert decided == truth, f"(k,0) collapse fails on {matrix} at k={k}"
                checked_collapse += 1
            n = matrix.num_columns
            forward = list(range(1, n + 1))
            rng.shuffle(forward)
            ordering = ColumnOrdering(tuple(forward))
            for spec in (GapSpec(1, 0), GapSpec(2, 1), GapSpec(3, 2), GapSpec(None, 1)):
                lhs = check_ordering(matrix, ordering, spec).ok
                rhs = check_ordering(matrix, ordering.reverse(), spec).ok
                assert lhs == rhs, f"reversal invariance fails on {matrix} at {spec}"
                checked_reversal += 1
        return (
            f"{checked_collapse} collapse checks and "
            f"{checked_reversal} reversal checks hold"
        )

    return _run_case("C9", "(k,0) collapse and reversal invariance", 30.0, body)


# ---------------------------------------------------------------------------
# Suite assembly.


def run_suite(suite: str) -> list[CaseResult]:
    """Run every case of a suite; the solver cases draw the ``DEFAULT_SEED`` corpus."""
    if suite not in ("gadget", "solver", "reduction", "all"):
        raise ValueError(f"unknown suite {suite!r}")
    results: list[CaseResult] = []
    if suite in ("gadget", "all"):
        results.append(case_row_count_identity())
        results.append(case_rigidity())
        results.append(case_embedded_rigidity())
    if suite in ("solver", "all"):
        results.append(case_solver_oracle(DEFAULT_SEED))
        results.append(case_classic_agreement(DEFAULT_SEED))
        results.append(case_collapse_and_reversal(DEFAULT_SEED))
    if suite in ("reduction", "all"):
        results.append(case_theorem3_equivalence())
        results.append(case_theorem2_satisfiable())
        results.append(case_theorem2_stretch())
    return results
