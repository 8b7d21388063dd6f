"""Fast self-check of the benchmark harness, at tiny sizes (well under a minute).

    python3 perfbench/selfcheck.py

It asserts that
  * BENCHMARK.json has the expected shape and every name is well formed;
  * predictions.json names only metrics and workloads that BENCHMARK.json has;
  * every workload, untraced, prints each end-to-end metric with its unit, and
    traced, each per-layer metric with its unit, with correct verdicts;
  * the verdict checks reject a corrupted witness, a wrong verdict and a
    wrong oracle count, and the determinism check catches a changed count.
It also prints the refute k = 3 node count next to its baseline, as a note.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import WrongAnswer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_benchmark_file(spec: dict) -> None:
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, sorted(spec)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25, m
        names.append(m["name"])
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
        names.append(m["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"), m
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names)), "a name is used twice"
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert 1 <= spec["run_seconds"] <= 60 and isinstance(spec["run_seconds"], int)


def check_predictions(spec: dict, predictions: dict) -> None:
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    wls = set(workloads.WORKLOADS)
    for row in predictions["predictions"]:
        assert set(row["layer_metrics"]) <= layer, row["layer_metrics"]
        for effect in row["moves"] + row["unchanged"]:
            assert effect["metric"] in e2e and effect["workload"] in wls, effect


def check_runs(spec: dict) -> None:
    expected = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result, meta = run.run_benchmark(name, seed=7, seconds=0.01, trace=trace, tiny=True)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected[trace], (name, trace, set(got) ^ set(expected[trace]))
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (
                name, trace, meta["errors"], meta["nondeterministic"])
            json.dumps(result)
            if name == "refute" and not trace:
                a = meta["anchor"]
                print(f"note: {a['op']} expanded {a['nodes']} nodes "
                      f"(baseline {a['baseline_nodes']})")
        print(f"ok: {name} prints every metric with its unit, traced and untraced")


def expect_rejected(check, result, what: str) -> None:
    try:
        check(result)
    except WrongAnswer:
        print(f"ok: rejects {what}")
        return
    raise AssertionError(f"the harness accepted {what}")


def check_rejections() -> None:
    # A witness for rows {1,2}, {2,3}: the ordering 1 3 2 splits the first row.
    rows, n = [(1, 2), (2, 3)], 3
    assert workloads.ordering_ok(rows, (1, 2, 3), n, 1, 0)
    good = json.dumps({"status": "satisfied", "witness": [1, 2, 3],
                       "stats": {"nodes_expanded": 0, "prunes": {}}})
    sat_check = workloads._cli_check(rows, n, 1, 0, sat=True)
    sat_check((0, good))
    corrupt = good.replace("[1, 2, 3]", "[1, 3, 2]")
    expect_rejected(sat_check, (0, corrupt), "a corrupted witness from the CLI")
    expect_rejected(sat_check, (0, good.replace("[1, 2, 3]", "[1, 1, 3]")),
                    "a witness that is not a permutation")
    expect_rejected(workloads._cli_check(rows, n, 1, 0, sat=False), (0, good),
                    "satisfied on an instance known to be exhausted")

    mods = run.import_gapc1p()
    run.WORK.mkdir(exist_ok=True)
    wl = workloads.build("planted", 3, mods, run.WORK, tiny=True)
    decided = [(op, op.run()) for op in wl.ops]
    op, outcome = next((op, out) for op, out in decided if op.check(out)[0])
    forward = list(outcome.witness.forward)
    rejected = False
    for i in range(len(forward) - 1):
        trial = forward[:]
        trial[i], trial[-1] = trial[-1], trial[i]
        corrupted = SimpleNamespace(status="satisfied", stats=outcome.stats,
                                    witness=SimpleNamespace(forward=tuple(trial)))
        try:
            op.check(corrupted)
        except WrongAnswer:
            rejected = True
            break
    assert rejected, "no swap made the planted witness invalid"
    print("ok: rejects a corrupted witness from decide")
    exhausted = SimpleNamespace(status="exhausted", stats=outcome.stats, witness=None)
    expect_rejected(op.check, exhausted, "exhausted on a planted-satisfiable matrix")

    wl = workloads.build("oracle", 3, mods, run.WORK, tiny=True)
    bf = next(o for o in wl.ops if o.kind.startswith("bf-"))
    report = bf.run()
    bf.check(report)
    wrong = SimpleNamespace(valid_count=report.valid_count + 2, witnesses=report.witnesses)
    expect_rejected(bf.check, wrong, "a wrong brute_force count")


def check_determinism() -> None:
    op = workloads.Op("x", "x", lambda: None, lambda raw: (True, raw))
    checker = run.Checker()
    checker.judge([(op, 0.1, (5,), None), (op, 0.1, (5,), None)])
    assert not checker.nondeterministic
    checker.judge([(op, 0.1, (6,), None)])
    assert checker.nondeterministic == ["x"]
    print("ok: a count that changes between passes is flagged")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_benchmark_file(spec)
    check_predictions(spec, json.loads((HERE / "predictions.json").read_text()))
    print("ok: BENCHMARK.json and predictions.json are well formed")
    check_rejections()
    check_determinism()
    check_runs(spec)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
