"""Acceptance suite: one test per verification criterion.

Each criterion runs through the same case functions as the CLI
(`gapc1p verify --suite all`) and prints a single pass/fail line with its
elapsed time.  Budgets are enforced inside the cases themselves.
"""

from gapc1p.verifysuite import (
    DEFAULT_SEED,
    PASS,
    CaseResult,
    case_classic_agreement,
    case_collapse_and_reversal,
    case_embedded_rigidity,
    case_repairs_ledger,
    case_rigidity,
    case_row_count_identity,
    case_solver_oracle,
    case_theorem2_satisfiable,
    case_theorem2_stretch,
    case_theorem3_equivalence,
    ledger_problems,
    repairs_path,
)


def report(result: CaseResult) -> None:
    line = (f"[{result.case_id}] {result.status.upper()} {result.name} "
            f"({result.elapsed_seconds:.2f}s) - {result.detail}")
    print(line)
    assert result.status == PASS, line


def test_criterion_1_gadget_row_count_identity():
    report(case_row_count_identity())


def test_criterion_2_gadget_rigidity():
    report(case_rigidity())


def test_criterion_3_embedded_rigidity():
    report(case_embedded_rigidity())


def test_criterion_4_solver_oracle_equivalence():
    report(case_solver_oracle(DEFAULT_SEED))


def test_criterion_5_classic_c1p_agreement():
    report(case_classic_agreement(DEFAULT_SEED))


def test_criterion_6_theorem3_reduction_equivalence():
    report(case_theorem3_equivalence())


def test_criterion_7_theorem2_reduction_satisfiable():
    report(case_theorem2_satisfiable())


def test_criterion_7_stretch_theorem2_unsatisfiable_companion():
    # The deadline rule exhausts it in 18 nodes, well under a second, so it
    # always runs, here and in `gapc1p verify`.
    report(case_theorem2_stretch())


def test_criterion_8_construction_fidelity_ledger():
    report(case_repairs_ledger())


def test_criterion_8_ledger_check_rejects_incomplete_ledgers():
    text = repairs_path().read_text()
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


def test_criterion_9_collapse_and_reversal_invariants():
    report(case_collapse_and_reversal(DEFAULT_SEED))
