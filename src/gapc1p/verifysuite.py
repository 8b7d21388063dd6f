"""Named verification suites: every constructive claim, checked by oracle.

``CASES`` lists the criteria.  Each check runs one claim at desk scale and
returns a detail string or raises ``AssertionError``; ``run_case`` times it
against its budget.  The CLI ``verify`` subcommand and the acceptance tests
both run the table; the random corpus is seeded so results are reproducible.
"""

from __future__ import annotations

import random
import time
from typing import Callable, NamedTuple

from .bitmatrix import BinaryMatrix, ColumnOrdering, GapSpec, check_ordering
from .gadget import build_gadget, gadget_row_count, verify_rigidity
from .reduction import Cnf, verify_reduction
from .solver import EXHAUSTED, SATISFIED, brute_force, classic_c1p, decide

CORPUS_SEED = 212121
FORMULA_SEED = 2009

PASS = "pass"
FAIL = "fail"

SUITES = ("gadget", "solver", "reduction", "all")


class CaseResult(NamedTuple):
    case_id: str
    name: str
    status: str
    elapsed_seconds: float
    detail: str

    def line(self) -> str:
        """The report line ``[id] STATUS name (elapsed s) - detail``."""
        return (f"[{self.case_id}] {self.status.upper():4s} {self.name} "
                f"({self.elapsed_seconds:.2f}s) - {self.detail}")


def run_case(case_id: str, name: str, budget: float, check: Callable[[], str]) -> CaseResult:
    t0 = time.monotonic()
    try:
        detail = check()
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


def solver_corpus() -> list[BinaryMatrix]:
    """200 seeded random matrices: up to 6 columns and 6 rows, one-density 0.4."""
    rng = random.Random(CORPUS_SEED)
    corpus = []
    for _ in range(200):
        n = rng.randint(1, 6)
        rows = tuple(
            tuple(c for c in range(1, n + 1) if rng.random() < 0.4)
            for _ in range(rng.randint(0, 6))
        )
        corpus.append(BinaryMatrix(n, rows))
    return corpus


# ---------------------------------------------------------------------------
# Criterion checks.


def row_count_identity() -> str:
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


def rigidity() -> str:
    details = []
    for n, delta, k in ((5, 1, 2), (6, 1, 2), (7, 2, 2), (7, 2, 3)):
        report = verify_rigidity(n, delta, k)
        assert report.rigid, f"(n={n}, delta={delta}, k={k}) not rigid"
        assert report.valid_count == 2, (
            f"(n={n}, delta={delta}, k={k}) valid_count {report.valid_count} != 2"
        )
        details.append(f"({n},{delta},{k})=2")
    return "valid orderings " + ", ".join(details)


def embedded_rigidity() -> str:
    report = verify_rigidity(5, 1, 2, extra_columns=2)
    assert report.rigid, f"counterexample: {report.counterexample}"
    return f"all 5040 orderings counted; {report.valid_count} valid, all rigid"


def solver_oracle() -> str:
    specs = [GapSpec(1, 0), GapSpec(2, 1), GapSpec(2, 2), GapSpec(3, 1)]
    compared = 0
    for matrix in solver_corpus():
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


def classic_agreement() -> str:
    compared = 0
    for matrix in solver_corpus():
        ordering = classic_c1p(matrix)
        truth = brute_force(matrix, GapSpec(1, 0)).valid_count > 0
        assert (ordering is not None) == truth, f"disagreement on {matrix}"
        if ordering is not None:
            assert check_ordering(matrix, ordering, GapSpec(1, 0)).ok
        compared += 1
    triple = BinaryMatrix.from_rows(3, [(1, 2), (2, 3), (1, 3)])
    assert classic_c1p(triple) is None, "the 3-column triple must be rejected"
    return f"{compared} matrices agree; triple rejected"


def collapse_and_reversal() -> str:
    rng = random.Random(CORPUS_SEED + 1)
    checked_collapse = checked_reversal = 0
    for matrix in solver_corpus():
        truth = brute_force(matrix, GapSpec(1, 0)).valid_count > 0
        for k in (2, 3):
            decided = decide(matrix, GapSpec(k, 0)).status == SATISFIED
            assert decided == truth, f"(k,0) collapse fails on {matrix} at k={k}"
            checked_collapse += 1
        n = matrix.num_columns
        forward = list(range(1, n + 1))
        rng.shuffle(forward)
        ordering = ColumnOrdering(forward)
        for spec in (GapSpec(1, 0), GapSpec(2, 1), GapSpec(3, 2), GapSpec(None, 1)):
            lhs = check_ordering(matrix, ordering, spec).ok
            rhs = check_ordering(matrix, ordering.reverse(), spec).ok
            assert lhs == rhs, f"reversal invariance fails on {matrix} at {spec}"
            checked_reversal += 1
    return (
        f"{checked_collapse} collapse checks and "
        f"{checked_reversal} reversal checks hold"
    )


def theorem3_equivalence() -> str:
    sat = Cnf(1, ((1, 1, 1),))
    unsat = Cnf(1, ((1, 1, 1), (-1, -1, -1)))
    rep = verify_reduction(sat, GapSpec(3, 1))
    assert rep.agree and rep.formula_satisfiable, f"sat side: {rep}"
    rep2 = verify_reduction(unsat, GapSpec(3, 1))
    assert rep2.agree and not rep2.formula_satisfiable, f"unsat side: {rep2}"
    assert rep2.outcome.status == EXHAUSTED
    return (
        "12-column instance satisfiable with validated witness; "
        f"16-column instance exhausted in {rep2.outcome.stats.nodes_expanded} nodes"
    )


def theorem3_random_known_answers() -> str:
    # 20-104 columns, above the enumeration cap: the answer comes from the
    # SAT oracle, which shares no code with the search.
    rng = random.Random(FORMULA_SEED)
    unsatisfiable = most = 0
    for _ in range(50):
        n = rng.randint(3, 5)
        cnf = Cnf(n, tuple(
            tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(3))
            for _ in range(rng.randint(2, 4 * n + 2))
        ))
        rep = verify_reduction(cnf, GapSpec(3, 1))
        assert rep.agree, f"{cnf}: {rep.outcome.status}, satisfiable {rep.formula_satisfiable}"
        unsatisfiable += not rep.formula_satisfiable
        most = max(most, rep.outcome.stats.nodes_expanded)
    assert unsatisfiable == 3, f"{unsatisfiable} of 50 formulas unsatisfiable, expected 3"
    return f"50 random 3-CNF formulas (3 unsatisfiable) agree with the SAT oracle; at most {most} nodes"


def theorem2_satisfiable() -> str:
    rep = verify_reduction(Cnf(1, ((1, 1, 1),)), GapSpec(2, 2))
    assert rep.agree and rep.formula_satisfiable, f"{rep}"
    return "14-column instance satisfiable; witness validated end to end"


def theorem2_stretch() -> str:
    rep = verify_reduction(Cnf(1, ((1, 1, 1), (-1, -1, -1))), GapSpec(2, 2))
    assert rep.agree and not rep.formula_satisfiable, f"{rep}"
    assert rep.outcome.status == EXHAUSTED
    stats = rep.outcome.stats
    assert stats.nodes_expanded == 18, stats
    assert stats.prunes == {"blocks": 0, "forced": 0, "symmetry": 0, "deadline": 18, "seen": 0}, stats
    return f"19-column companion exhausted in {stats.nodes_expanded} nodes"


def theorem2_seen_states() -> str:
    # The (3,2) companion reaches many states under more than one prefix;
    # the exhausted-state table skips each repeat (413,306 nodes without it).
    rep = verify_reduction(Cnf(1, ((1, 1, 1), (-1, -1, -1))), GapSpec(3, 2))
    assert rep.agree and not rep.formula_satisfiable, f"{rep}"
    assert rep.outcome.status == EXHAUSTED
    stats = rep.outcome.stats
    assert stats.nodes_expanded == 153_829 and stats.prunes["seen"] > 0, stats
    return (f"19-column (3,2) companion exhausted in {stats.nodes_expanded} nodes, "
            f"{stats.prunes['seen']} of them seen states")


# ---------------------------------------------------------------------------
# The case table: (id, suite, name, budget in seconds, check), in run order.

CASES: tuple[tuple[str, str, str, float, Callable[[], str]], ...] = (
    ("C1", "gadget", "gadget row-count identity", 1.0, row_count_identity),
    ("C2", "gadget", "gadget rigidity, exact survivor count", 40.0, rigidity),
    ("C3", "gadget", "rigidity embedded among free columns", 30.0, embedded_rigidity),
    ("C4", "solver", "search agrees with exhaustive oracle", 120.0, solver_oracle),
    ("C5", "solver", "polynomial C1P test agrees with exhaustive oracle", 10.0,
     classic_agreement),
    ("C9", "solver", "(k,0) collapse and reversal invariance", 30.0, collapse_and_reversal),
    ("C6", "reduction", "block-count reduction iff at k=3", 600.0, theorem3_equivalence),
    ("C10", "reduction", "block-count reduction on seeded random 3-CNF, known answers", 60.0,
     theorem3_random_known_answers),
    ("C7", "reduction", "gapped reduction at k=delta=2, satisfiable side", 600.0,
     theorem2_satisfiable),
    ("C7S", "reduction", "gapped reduction, unsatisfiable companion (stretch)", 3600.0,
     theorem2_stretch),
    ("C11", "reduction", "gapped reduction at (3,2), companion exhausted with seen states", 60.0,
     theorem2_seen_states),
)


def run_suite(suite: str) -> list[CaseResult]:
    """Run the cases of ``suite`` (one of ``SUITES``) in table order."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    return [run_case(case_id, name, budget, check)
            for case_id, case_suite, name, budget, check in CASES
            if suite in (case_suite, "all")]
