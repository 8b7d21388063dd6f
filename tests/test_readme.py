"""README.md's examples are current, and CI runs the documented tier-1 command."""

import re
import shlex
from pathlib import Path

from gapc1p.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks, "README.md has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_cli_lines_parse():
    # The parser's error() raises instead of exiting, so a stale option fails here.
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
    lines = [shlex.split(line, comments=True) for block in blocks for line in block.splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["gapc1p"]]
    assert commands, "README.md has no gapc1p example"
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_ci_workflow_runs_the_tier1_command():
    # Read as text: CI installs only pytest and hypothesis, so no YAML parser.
    command = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (ROOT / "ROADMAP.md").read_text())
    assert command, "ROADMAP.md names no tier-1 command"
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    runs = [line.strip() for line in workflow.splitlines() if line.strip().startswith("run: ")]
    assert f"run: {command.group(1)}" in runs
    assert "run: python3 perfbench/selfcheck.py" in runs
    assert "run: python3 tools/mutants.py" in runs
    # Full-size planted and refute runs that fail unless their result line is correct.
    for workload in ("planted", "refute"):
        step = f"run: python3 perfbench/run.py --workload {workload} --seed 1 --seconds 5 --trace 0 | "
        checks = [run for run in runs if run.startswith(step)]
        assert checks, f"CI runs no full-size {workload} correctness check"
        assert "r['correct'] is True and r['failed'] == 0" in checks[0]
        if workload == "planted":
            # The search must keep deciding exactly the same budgeted ops.
            assert "r['metrics']['decided_share']['value'] == 175 / 192" in checks[0]
    # The full-size c1p-scale and oracle runs also read their meta line: every
    # c1p-scale probe passes, and the oracle probes pin the R9 boundary: 7 of
    # the 20 gapped-family witness probes build, 13 refuse.
    meta_clauses = {
        "c1p-scale": ("p['outcome'] == 'ok'",),
        "oracle": ("len(p) == 20", "sum(x['outcome'] == 'ok' for x in p) == 7",
                   "x['cause'].startswith('ConstructionError') for x in p) == 13"),
    }
    for workload, clauses in meta_clauses.items():
        step = f"run: python3 perfbench/run.py --workload {workload} --seed 1 --seconds 5 --trace 0 | tail -n 2 | "
        checks = [run for run in runs if run.startswith(step)]
        assert checks, f"CI runs no full-size {workload} correctness check"
        for clause in ("r['correct'] is True and r['failed'] == 0",) + clauses:
            assert clause in checks[0], (workload, clause)
