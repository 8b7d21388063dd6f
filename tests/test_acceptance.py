"""Acceptance suite: one test per verification criterion.

Each criterion prints a single pass/fail line.  All but C8 are the rows of
``verifysuite.CASES``, the same table the CLI runs (`gapc1p verify --suite
all`), with their elapsed time; budgets are enforced by ``run_case``.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gapc1p
from gapc1p.reduction import DEVIATIONS
from gapc1p.verifysuite import CASES, PASS, run_case

ROOT = Path(__file__).resolve().parents[1]
REPAIRS = ROOT / "REPAIRS.md"


@pytest.mark.parametrize("case_id, suite, name, budget, check", CASES,
                         ids=[case[0] for case in CASES])
def test_criterion(case_id, suite, name, budget, check):
    # C7S, the stretch case, is exhausted in 18 nodes by the deadline rule,
    # well under a second, so it always runs, here and in `gapc1p verify`.
    result = run_case(case_id, name, budget, check)
    print(result.line())
    assert result.status == PASS, result.line()


# Criterion 8 compares two files of the repository, REPAIRS.md and
# ``DEVIATIONS``, so it runs here and not in `gapc1p verify`.
_LEDGER_HEADING = re.compile(r"^## (R\d+) - ", re.MULTILINE)


def ledger_problems(text: str) -> list[str]:
    """Where a REPAIRS.md text disagrees with ``DEVIATIONS``; empty when it agrees.

    The ``## R<n> - `` headings must be exactly the deviation ids, and each
    section must name every criterion (``C<n>``) its deviation lists.
    """
    parts = _LEDGER_HEADING.split(text)
    sections = dict(zip(parts[1::2], parts[2::2]))
    expected = {dev_id for dev_id, _, _ in DEVIATIONS}
    problems = []
    if set(sections) != expected:
        problems.append(f"headings missing {sorted(expected - set(sections))}, "
                        f"unexpected {sorted(set(sections) - expected)}")
    for dev_id, _, criteria in DEVIATIONS:
        for num in re.findall(r"\d+", criteria):
            if dev_id in sections and not re.search(rf"\bC{num}\b", sections[dev_id]):
                problems.append(f"{dev_id} does not name criterion C{num}")
    return problems


def test_criterion_8_construction_fidelity_ledger():
    assert REPAIRS.is_file(), "REPAIRS.md not found at the repository root"
    problems = ledger_problems(REPAIRS.read_text())
    assert not problems, "; ".join(problems)
    print(f"[C8] PASS construction-fidelity ledger coverage - "
          f"{len(DEVIATIONS)} deviations documented with their criteria")


def test_criterion_8_ledger_check_rejects_incomplete_ledgers():
    text = REPAIRS.read_text()
    assert ledger_problems(text) == []
    # Dropping the R1 section must fail even though "R10" still contains "R1".
    start = text.index("## R1 - ")
    without_r1 = text[:start] + text[text.index("## R2 - "):]
    assert "R1" in without_r1
    assert ledger_problems(without_r1) == ["headings missing ['R1'], unexpected []"]
    # A section that stops naming one of its criteria fails too.
    r9 = text.index("## R9 - ")
    r10 = text.index("## R10 - ")
    blanked = text[:r9] + text[r9:r10].replace("C7", "the criterion") + text[r10:]
    assert ledger_problems(blanked) == ["R9 does not name criterion C7"]


def test_reduction_suite_runs_from_an_installed_copy(tmp_path):
    # A copy of the package alone, away from the checkout and its REPAIRS.md.
    site = tmp_path / "site"
    site.mkdir()
    package = ROOT / "src" / "gapc1p"
    (site / "gapc1p").mkdir()
    for source in package.glob("*.py"):
        (site / "gapc1p" / source.name).write_text(source.read_text())
    run = subprocess.run(
        [sys.executable, "-m", "gapc1p.cli", "verify", "--suite", "reduction"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(site)}, capture_output=True, text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert "4 cases: 4 passed, 0 failed" in run.stdout


def test_public_names_are_pinned():
    # The 42 public names; adding or removing one is a deliberate change here.
    assert sorted(gapc1p.__all__) == [
        "BinaryMatrix", "CheckReport", "Cnf", "ColumnOrdering", "ColumnRole",
        "ConstructionError", "DimacsFormatError", "EXHAUSTED", "EquivalenceReport",
        "ExhaustiveReport", "GAP_TOO_LARGE", "GapSpec", "MatrixFormatError",
        "ReductionOutput", "ReductionParams", "RigidityReport", "SATISFIED",
        "SearchConfig", "SearchStats", "SolveOutcome", "TIMED_OUT", "TOO_MANY_BLOCKS",
        "Violation", "brute_force", "build_gadget", "check_ordering", "classic_c1p",
        "decide", "gadget_row_count", "parse_dimacs", "parse_matrix", "parse_ordering",
        "reduce_formula", "reduce_theorem2", "reduce_theorem3", "satisfying_assignments",
        "serialize_matrix", "serialize_ordering", "to_exact3", "verify_reduction",
        "verify_rigidity", "witness_from_assignment",
    ]
    for name in gapc1p.__all__:
        assert hasattr(gapc1p, name), name
