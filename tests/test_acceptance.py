"""Acceptance suite: one test per verification criterion.

Each criterion prints a single pass/fail line.  All but C8 are the rows of
``verifysuite.CASES``, the same table the CLI runs (`gapc1p verify --suite
all`), with their elapsed time; budgets are enforced by ``run_case``.
"""

import copy
import json
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

import gapc1p
from gapc1p.reduction import DEVIATIONS
from gapc1p.solver import PRUNE_RULES
from gapc1p.verifysuite import CASES, PASS, CaseResult, run_case

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
        [sys.executable, "-m", "gapc1p.cli", "verify", "--suite", "reduction", "--json"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(site)}, capture_output=True, text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    cases = json.loads(run.stdout)["cases"]
    assert [c["id"] for c in cases] == ["C6", "C10", "C7", "C7S", "C11"]
    assert all(c["status"] == "pass" for c in cases), cases
    assert "18 nodes" in cases[3]["detail"]


def test_public_names_are_pinned():
    # The 40 public names; adding or removing one is a deliberate change here.
    assert sorted(gapc1p.__all__) == [
        "BinaryMatrix", "CheckReport", "Cnf", "ColumnOrdering", "ColumnRole",
        "ConstructionError", "DimacsFormatError", "EXHAUSTED", "EquivalenceReport",
        "ExhaustiveReport", "GAP_TOO_LARGE", "GapSpec", "MatrixFormatError",
        "ReductionOutput", "ReductionParams", "RigidityReport", "SATISFIED",
        "SearchConfig", "SearchStats", "SolveOutcome", "TIMED_OUT", "TOO_MANY_BLOCKS",
        "Violation", "brute_force", "build_gadget", "check_ordering", "classic_c1p",
        "decide", "gadget_row_count", "parse_dimacs", "parse_matrix", "parse_ordering",
        "reduce_formula", "satisfying_assignments", "serialize_matrix", "serialize_ordering",
        "to_exact3", "verify_reduction", "verify_rigidity", "witness_from_assignment",
    ]
    for name in gapc1p.__all__:
        assert hasattr(gapc1p, name), name


def _value_instances():
    """One instance of each public value type and of CaseResult, with a field name, by type name."""
    matrix = gapc1p.BinaryMatrix(2, ((1, 2),))
    ordering = gapc1p.ColumnOrdering((2, 1))
    stats = gapc1p.SearchStats(0, 0.0, (0, 0, 0, 0, 0))
    outcome = gapc1p.SolveOutcome(gapc1p.SATISFIED, ordering, stats)
    cnf = gapc1p.Cnf(1, ((1,),))
    params = gapc1p.ReductionParams(2, 3, 1, 6, 1, 1)
    values = [
        (matrix, "rows"),
        (ordering, "forward"),
        (gapc1p.GapSpec(2, 1), "k"),
        (gapc1p.Violation(1, 3, (1, 1), gapc1p.TOO_MANY_BLOCKS), "kind"),
        (gapc1p.CheckReport(True), "ok"),
        (gapc1p.SearchConfig(), "node_limit"),
        (stats, "nodes_expanded"),
        (outcome, "status"),
        (gapc1p.ExhaustiveReport(1, (ordering,)), "valid_count"),
        (gapc1p.RigidityReport(True, 2, None), "rigid"),
        (cnf, "clauses"),
        (gapc1p.ColumnRole("variable", 1, 1), "slot"),
        (params, "delta"),
        (gapc1p.ReductionOutput(matrix, cnf, params, (), 0), "matrix"),
        (gapc1p.EquivalenceReport(True, True, outcome), "agree"),
        (CaseResult("C0", "name", PASS, 0.0, "detail"), "status"),
    ]
    return {type(value).__name__: (value, field) for value, field in values}


# The tests below are parametrized over names and build their values inside
# the test, so a fault in a constructor or an operation fails its own tests
# instead of the collection of this module.
_VALUE_NAMES = (
    "BinaryMatrix", "ColumnOrdering", "GapSpec", "Violation", "CheckReport", "SearchConfig",
    "SearchStats", "SolveOutcome", "ExhaustiveReport", "RigidityReport", "Cnf", "ColumnRole",
    "ReductionParams", "ReductionOutput", "EquivalenceReport", "CaseResult",
)


def test_value_names_list_every_instance():
    assert tuple(_value_instances()) == _VALUE_NAMES


@pytest.mark.parametrize("name", _VALUE_NAMES)
def test_value_types_refuse_assignment(name):
    value, field = _value_instances()[name]
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.extra = None  # no instance dict either


def _triple():
    return gapc1p.BinaryMatrix(3, ((1, 2), (2, 3), (1, 3)))


def _pairs():
    return gapc1p.BinaryMatrix(4, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)))


# What the public operations return, one per path that builds a record.
_LIVE = {
    "live0-SolveOutcome": lambda: gapc1p.decide(_triple(), gapc1p.GapSpec(2, 1)),  # satisfied
    "live1-SolveOutcome": lambda: gapc1p.decide(_pairs(), gapc1p.GapSpec(2, 1)),  # exhausted
    "live2-SolveOutcome": lambda: gapc1p.decide(  # timed out
        _pairs(), gapc1p.GapSpec(2, 1), gapc1p.SearchConfig(node_limit=1)),
    "live3-SolveOutcome": lambda: gapc1p.decide(_triple(), gapc1p.GapSpec(1, 0)),  # classical
    "live4-ReductionOutput": lambda: gapc1p.reduce_formula(
        gapc1p.Cnf(1, ((1, 1, 1),)), gapc1p.GapSpec(3, 1)),
    "live5-ReductionOutput": lambda: gapc1p.reduce_formula(
        gapc1p.Cnf(1, ((1, 1, 1),)), gapc1p.GapSpec(2, 2)),
    "live6-EquivalenceReport": lambda: gapc1p.verify_reduction(
        gapc1p.Cnf(1, ((1, 1, 1),)), gapc1p.GapSpec(3, 1)),
    "live7-ExhaustiveReport": lambda: gapc1p.brute_force(_triple(), gapc1p.GapSpec(2, 1)),
    "live8-RigidityReport": lambda: gapc1p.verify_rigidity(5, 1, 2),  # rigid
    "live9-RigidityReport": lambda: gapc1p.verify_rigidity(4, 1, 2),  # undersized
    # A violation: no order makes all three pairs of the triangle consecutive.
    "live10-CheckReport": lambda: gapc1p.check_ordering(
        _triple(), gapc1p.ColumnOrdering.identity(3), gapc1p.GapSpec(1, 0)),
}


@pytest.mark.parametrize("name", [*_VALUE_NAMES, *_LIVE])
def test_values_hash_pickle_and_deep_copy(name):
    value = _LIVE[name]() if name in _LIVE else _value_instances()[name][0]
    assert name.endswith(type(value).__name__)
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(twin) is type(value)
        assert twin == value
        assert hash(twin) == hash(value)


def _without_time(outcome):
    return outcome._replace(stats=outcome.stats._replace(elapsed_seconds=0.0))


def test_decide_outcomes_cross_a_process_pool():
    matrices = [gapc1p.BinaryMatrix(3, ((1, 2), (2, 3), (1, 3))),
                gapc1p.BinaryMatrix(5, tuple((a, b) for a in range(1, 6) for b in range(a + 1, 6))),
                gapc1p.reduce_formula(gapc1p.Cnf(1, ((1,), (-1,))), gapc1p.GapSpec(3, 1)).matrix]
    specs = [gapc1p.GapSpec(2, 1), gapc1p.GapSpec(2, 1), gapc1p.GapSpec(3, 1)]
    # Spawned workers start from a fresh import, so everything crosses by pickle.
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn")) as pool:
        pooled = list(pool.map(gapc1p.decide, matrices, specs, timeout=120))
    local = [gapc1p.decide(m, spec) for m, spec in zip(matrices, specs)]
    assert [o.status for o in local] == [gapc1p.SATISFIED, gapc1p.EXHAUSTED, gapc1p.EXHAUSTED]
    assert list(map(_without_time, pooled)) == list(map(_without_time, local))


def test_mapping_fields_are_read_only():
    # prunes and legend are built from the record's fields on each read, so
    # changing the dict one read returns leaves the record as it was.
    matrix = gapc1p.BinaryMatrix(3, ((1, 2), (2, 3), (1, 3)))
    stats = gapc1p.decide(matrix, gapc1p.GapSpec(2, 1)).stats
    output = gapc1p.reduce_formula(gapc1p.Cnf(1, ((1, 1, 1),)), gapc1p.GapSpec(3, 1))
    for record, name, key in ((stats, "prunes", "blocks"), (output, "legend", 1)):
        first = getattr(record, name)
        expected = dict(first)
        first[key] = None
        del first[next(iter(expected))]
        first["extra"] = None
        assert getattr(record, name) == expected
        assert getattr(record, name) is not getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, {})
    assert list(stats.prunes) == list(PRUNE_RULES)
    assert tuple(stats.prunes.values()) == stats.prune_counts
    assert sorted(output.legend) == list(range(1, output.matrix.num_columns + 1))


def test_list_built_values_store_tuples():
    rows = [[1, 2], [2, 3]]
    pairs = [(gapc1p.BinaryMatrix(3, rows), gapc1p.BinaryMatrix(3, ((1, 2), (2, 3)))),
             (gapc1p.ColumnOrdering([2, 1, 3]), gapc1p.ColumnOrdering((2, 1, 3))),
             (gapc1p.Cnf(2, [[1, -2], [2]]), gapc1p.Cnf(2, ((1, -2), (2,))))]
    for listed, twin in pairs:
        assert listed == twin
        assert hash(listed) == hash(twin)
    rows[0].append(3)  # the matrix holds its own copy
    matrix, ordering, cnf = (listed for listed, _ in pairs)
    assert matrix.rows == ((1, 2), (2, 3)) and type(matrix.rows[0]) is tuple
    assert gapc1p.check_ordering(matrix, ordering, gapc1p.GapSpec(2, 1)).ok
    outcome = gapc1p.decide(matrix, gapc1p.GapSpec(2, 1))
    assert outcome.status == gapc1p.SATISFIED
    assert gapc1p.decide(gapc1p.reduce_formula(cnf, gapc1p.GapSpec(3, 1)).matrix,
                         gapc1p.GapSpec(3, 1)).status == gapc1p.SATISFIED


@pytest.mark.parametrize("limits", [
    {"node_limit": -1}, {"node_limit": float("nan")},
    {"timeout_seconds": -5}, {"timeout_seconds": float("nan")},
])
def test_search_config_refuses_negative_and_nan_limits(limits):
    with pytest.raises(ValueError, match=f"{next(iter(limits))} must be >= 0"):
        gapc1p.SearchConfig(**limits)
    assert gapc1p.SearchConfig(0, 0) == (0, 0)


def test_search_config_refuses_a_fractional_node_limit():
    # A fractional limit would overshoot: the search stops at the first count
    # at or above it.  A negative one fails the earlier, sign check.
    for limit in (2.5, 3.0, float("inf")):
        with pytest.raises(ValueError, match="node_limit must be an int"):
            gapc1p.SearchConfig(node_limit=limit)
    with pytest.raises(ValueError, match="node_limit must be >= 0"):
        gapc1p.SearchConfig(node_limit=-1.5)
    assert gapc1p.SearchConfig(1.5, 3) == (1.5, 3)


@pytest.mark.parametrize("make, field", [
    (lambda: gapc1p.GapSpec(2, 1.5), "delta"),
    (lambda: gapc1p.GapSpec(2.5, 1), "k"),
    (lambda: gapc1p.GapSpec("2", 1), "k"),
    (lambda: gapc1p.GapSpec(2, -0.5), "delta"),
    (lambda: gapc1p.BinaryMatrix(4.5, ((1, 2),)), "num_columns"),
    (lambda: gapc1p.Cnf(1.5, ((1,),)), "num_vars"),
    pytest.param(lambda: gapc1p.GapSpec(True, 1), "k", id="bool-k"),
    pytest.param(lambda: gapc1p.GapSpec(2, False), "delta", id="bool-delta"),
    pytest.param(lambda: gapc1p.BinaryMatrix(True, ((1,),)), "num_columns", id="bool-num_columns"),
    pytest.param(lambda: gapc1p.Cnf(True, ((1,),)), "num_vars", id="bool-num_vars"),
    pytest.param(lambda: gapc1p.SearchConfig(node_limit=True), "node_limit", id="bool-node_limit"),
])
def test_value_types_refuse_a_bound_or_count_that_is_not_an_int(make, field):
    # Checked before the range, so a fractional, negative, string or bool
    # value is a ValueError that names the field, not a crash or a verdict
    # later (a bool is an int to isinstance: True would read as 1).
    with pytest.raises(ValueError, match=f"^{field} must be an int"):
        make()


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # The value types are named tuples; -I -S keeps site packages out, so only
    # the package's own imports count.  -I also ignores PYTHONDONTWRITEBYTECODE,
    # so -B keeps this import from writing bytecode under src/.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import gapc1p.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code, str(ROOT / "src")],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
