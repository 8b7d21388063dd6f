"""Mutants as a standing check: the oracle tests must catch every unsound prune.

Each mutant is one exact source edit to the search, to the enumerator or
to the reduction generator in ``src/gapc1p/``, and the edit's text must
occur exactly once.  The script copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory and runs the oracle tests
there: each module's selection on the unmutated copy, which must pass,
then one run per mutant with its module's selection.  For the search that
is ``brute_force`` agreement, the SAT side and the pinned statuses; for
the enumerator, the permutation-filter reference tests and the pinned
outputs above their reach; for the generator, the reduction tests without
the digest pins, so that a wrong row is caught by the SAT-oracle
equivalence and shape tests and not by a recorded hash.  An unsound
mutant (one that can prune a valid ordering, return an invalid one or
build a wrong instance) must fail them; a sound one, which only weakens a
prune, must pass them, since the oracle tests pin answers and not node
counts.
The copy matters: pyproject's ``pythonpath = ["src"]`` puts the checkout's
own ``src/`` first, so a mutant applied in place would still be tested
against the unmutated code.

Run from anywhere: ``python tools/mutants.py``.  It prints one line per
run and exits 1 if any mutant is missed or the unmutated copy fails.
About 5 s per run on two CPUs.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# The pytest arguments that pick the tests each module's mutants run.
SELECT = {"solver.py": ["-k", "brute_force or agree or oracle"],
          "bitmatrix.py": ["tests/test_bitmatrix.py", "-k", "forward_maps"],
          "reduction.py": ["tests/test_reduction.py", "-k", "not digest"]}
RUN_TIMEOUT = 900

# (name, module under src/gapc1p, text, replacement, sound).  A prune PR adds
# its own mutant here.
MUTANTS: list[tuple[str, str, str, str, bool]] = [
    ("hall passes a tight set only above slack 2", "solver.py",
     "            if held > s:\n",
     "            if held >= s and s < 3:\n", False),
    ("tight union taken one column early", "solver.py",
     "            if held == s and must == -1:\n",
     "            if held >= s - 1 and must == -1:\n", False),
    ("fresh slack of an untouched column off by one", "solver.py",
     "masks[ri], rem + min(k_eff - 1, rem) * d_eff + 1\n",
     "masks[ri], rem + min(k_eff - 1, rem) * d_eff\n", False),
    ("untouched-column deadline check over-prunes", "solver.py",
     "            if union.bit_count() >= s:\n",
     "            if union.bit_count() >= s - 1:\n", False),
    ("gaps counted at delta = inf", "solver.py",
     "        if finite:\n            gaps = (gaps & keep | base) + gap\n",
     "        if True:\n            gaps = (gaps & keep | base) + gap\n", False),
    ("run of rejected candidates counted past a passing column", "solver.py",
     "run = rest & ((good & -good) - 1)\n",
     "run = rest & (((good & -good) << 1) - 1)\n", False),
    ("exhausted-state key drops the gap flags", "solver.py",
     "        return unplaced, gap, blocks & live, gaps & live\n",
     "        return unplaced, 0, blocks & live, gaps & live\n", False),
    ("deadline pre-check applied to touched columns", "solver.py",
     "not bit & state[1] and late(due, c)",
     "late(due, c)", False),
    ("reversal pair without its unplaced test", "solver.py",
     "        if allowed & bit_last and unplaced & bit_first:\n",
     "        if allowed & bit_last:\n", False),
    ("free columns after the first searched column", "solver.py",
     "[order[p - 1] for p in placed] + free",
     "[order[p - 1] for p in placed[:1]] + free + [order[p - 1] for p in placed[1:]]", False),
    ("slack without the rem cap", "solver.py",
     "slack = rem + ((rem & pick) | (left & ~pick)) * d_eff - (gaps - no_gap)\n",
     "slack = rem + left * d_eff - (gaps - no_gap)\n", True),
    ("slack ignores the open gap", "solver.py",
     "slack = rem + ((rem & pick) | (left & ~pick)) * d_eff - (gaps - no_gap)\n",
     "slack = rem + ((rem & pick) | (left & ~pick)) * d_eff\n", True),
    ("gap-forcing rows read one position late", "bitmatrix.py",
     "col_rows[placed[q]]", "col_rows[placed[q + 1]]", False),
    ("k-th block end forces nothing", "bitmatrix.py",
     "            if key >> at & field_mask == k_eff << L | p:\n",
     "            if False:\n", False),
    ("walk reads the prefix that count left", "bitmatrix.py",
     "        placed[1:p + 1] = prefix", "        pass", False),
    ("positive literal's row starts at the left column of its block", "reduction.py",
     "2 * a if lit > 0 else 2 * a - 1", "2 * a - 1 if lit > 0 else 2 * a - 1", False),
    ("literal rows without the earlier clause blocks", "reduction.py",
     "*literal_sep, *upto_head, target", "*literal_sep, block[0], target", False),
]


def run_oracle_tests(tree: Path, select: list[str]) -> tuple[bool, str]:
    """Whether the tests that ``select`` picks pass in ``tree``, and pytest's summary line.

    Hypothesis's example database is cleared first, so no run replays the
    failures an earlier mutant left there.
    """
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *select],
            cwd=tree, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return False, f"timed out after {RUN_TIMEOUT} s"
    lines = run.stdout.strip().splitlines()
    return run.returncode == 0, lines[-1] if lines else run.stderr.strip()[-200:]


def main() -> int:
    missed = 0
    with tempfile.TemporaryDirectory(prefix="gapc1p-mutants-") as tmp:
        tree = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy2(ROOT / "pyproject.toml", tree)
        t0 = time.monotonic()
        for module, select in SELECT.items():
            passed, summary = run_oracle_tests(tree, select)
            print(f"{'ok' if passed else 'FAIL'}  unmutated copy passes the {module} tests: "
                  f"{summary}", flush=True)
            missed += not passed
        for name, module, text, replacement, sound in MUTANTS:
            path = tree / "src" / "gapc1p" / module
            source = path.read_text()
            if source.count(text) != 1:
                print(f"FAIL  {name}: its text occurs {source.count(text)} times in {module}")
                missed += 1
                continue
            path.write_text(source.replace(text, replacement))
            try:
                passed, summary = run_oracle_tests(tree, SELECT[module])
            finally:
                path.write_text(source)
            ok = passed == sound
            missed += not ok
            print(f"{'ok' if ok else 'FAIL'}  {'sound' if sound else 'unsound'} mutant "
                  f"{'passes' if passed else 'fails'}: {name}: {summary}", flush=True)
        print(f"{len(MUTANTS)} mutants, {missed} problems, {time.monotonic() - t0:.0f} s")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
