"""gapc1p benchmark: one seeded workload per run, verdicts checked, metrics as JSON.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload refute --seed 1 --seconds 25 --trace 0

The harness imports gapc1p from ``src/`` of the checkout it lives in and
refuses to run anything else.  A run repeats set-up (import, seeded instance
generation, matrix files) at least ``SETUP_REPEATS`` times, then runs the
workload's fixed op set as a closed loop, one op at a time, in a single
thread, for a fixed number of passes per workload, scaled by
``--seconds / 25``.  Every verdict is checked after its pass, outside the
timed region, against the answer known
from the construction or from the benchmark's own enumeration.  Counts from
the search must repeat exactly on every pass.  The known-limit probes run
once at the end, untraced, and are reported op by op, outside the op counts.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced pass, one traced pass, then the remaining untraced passes; it
traces the last set-up too, and prints the per-layer metrics, the tracing
overhead among them, and writes the spans to ``perfbench/.work/``.  The last
line of stdout is the result object; the line before it holds the run
metadata.  Exit status is 0 when a result was printed, 2 when gapc1p cannot
be imported from the checkout, 1 on any other harness failure.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
SETUP_MIN_S = 1.0
SETUP_MAX = 40
TAIL_LADDER = (99, 95, 90, 75, 50)
MODULES = ("cli", "bitmatrix", "solver", "pqtree", "gadget", "reduction")
REFUTE_ANCHOR = ("refute-k3", 78_763)

# Passes per run at --seconds 25, the benchmark's run length; other lengths
# scale it.  A pass takes 5-15 s on a 2-CPU x86-64 box with Python 3.11, so a
# run lasts 22-36 s there.  The count does not depend on how fast the commit
# under test is, so every run of a workload has the same op count and the
# same tail percentile.  Op counts per kind are set so that the median and
# the tail fall inside one op kind, not on a boundary between two.
PASSES_AT_25_S = {"refute": 2, "planted": 5, "c1p-scale": 3, "oracle": 3}


class PackageMissing(Exception):
    pass


def import_gapc1p() -> SimpleNamespace:
    """Import gapc1p afresh from the checkout's ``src/``; any cached copy is dropped."""
    for name in [n for n in sys.modules if n == "gapc1p" or n.startswith("gapc1p.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        mods = {m: importlib.import_module(f"gapc1p.{m}") for m in MODULES}
    except ImportError as exc:
        raise PackageMissing(f"cannot import gapc1p from {SRC}: {exc}") from None
    where = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise PackageMissing(f"gapc1p was imported from {where}, not from {SRC}")
    return SimpleNamespace(**mods)


# ---------------------------------------------------------------------------
# Passes.


class Checker:
    """Judges op results and holds the per-op fingerprints across passes."""

    def __init__(self) -> None:
        self.fingerprints: dict[str, tuple] = {}
        self.attempted = self.decided = self.raised = self.wrong = 0
        self.nondeterministic: list[str] = []
        self.errors: list[dict] = []
        self.durations: list[float] = []
        self.by_kind: dict[str, list[float]] = {}

    def judge(self, records) -> None:
        for op, seconds, raw, exc in records:
            self.attempted += 1
            self.durations.append(seconds)
            self.by_kind.setdefault(op.kind, []).append(seconds)
            outcome = judge_one(op, raw, exc)
            if outcome["outcome"] != "ok":
                self.raised += outcome["outcome"] == "raised"
                self.wrong += outcome["outcome"] == "wrong"
                self.errors.append(outcome)
                continue
            self.decided += outcome["decided"]
            seen = self.fingerprints.setdefault(op.name, outcome["fingerprint"])
            if seen != outcome["fingerprint"]:
                self.nondeterministic.append(op.name)


def judge_one(op, raw, exc) -> dict:
    """Outcome of one op: ok (with decided and fingerprint), raised, or wrong."""
    if exc is not None:
        return {"op": op.name, "outcome": "raised", "cause": _cause(exc)}
    try:
        decided, fingerprint = op.check(raw)
    except Exception as err:  # a wrong or malformed answer, not a harness crash
        return {"op": op.name, "outcome": "wrong", "cause": _cause(err)}
    return {"op": op.name, "outcome": "ok", "decided": decided, "fingerprint": fingerprint}


def _cause(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {str(exc)[:160]}"


def run_ops(ops, tracer=None):
    """Run ops one at a time; returns ``[(op, seconds, result, exception)]``."""
    clock = time.perf_counter
    records = []
    gc.collect()  # every pass starts from a collected heap
    for op in ops:
        if tracer is not None:
            tracer.op = "pass:" + op.name
        t0 = clock()
        try:
            raw, exc = op.run(), None
        except Exception as err:  # an op that raises is a failed op; the run goes on
            raw, exc = None, err
        records.append((op, clock() - t0, raw, exc))
    return records


def tail(durations: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples beyond) at the highest percentile with at
    least ten samples beyond it.

    The percentile is taken from ``TAIL_LADDER``; below 20 samples no ladder
    step qualifies and it is the highest whole percentile that does, or the
    maximum when there are ten samples or fewer.
    """
    ordered = sorted(durations)
    n = len(ordered)
    steps = [p for p in TAIL_LADDER if n - math.ceil(p / 100 * n) >= 10]
    if not steps and n > 10:
        steps = [100 * (n - 10) // n]
    if not steps:
        return ordered[-1], 100, 0
    rank = max(1, math.ceil(steps[0] / 100 * n))
    return ordered[rank - 1], steps[0], n - rank


# ---------------------------------------------------------------------------
# Metadata.


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines() -> int:
    return sum(
        sum(1 for line in path.read_text().splitlines() if line.strip())
        for path in sorted(SRC.rglob("*.py"))
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# One run.


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  tiny: bool = False) -> tuple[dict, dict]:
    """Run one workload; returns (result object, metadata)."""
    tracer = tracing.Tracer() if trace else None
    setup_times: list[float] = []
    workdir = None

    def set_up(tag: str):
        nonlocal workdir
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
        workdir = WORK / f"{workload}-{seed}-{os.getpid()}-{tag}"
        mods = import_gapc1p()
        workdir.mkdir(parents=True)
        if tracer is not None and tag == "traced":
            tracer.install(mods)
        try:
            return mods, workloads.build(workload, seed, mods, workdir, tiny)
        finally:
            if tracer is not None:
                tracer.uninstall()

    try:
        # Set-up is short, so it repeats at least SETUP_REPEATS times and
        # until SETUP_MIN_S have been spent; the median is reported.  A
        # traced run then traces one more, untimed set-up.
        while len(setup_times) < SETUP_REPEATS or (
                sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_MAX):
            gc.collect()
            t0 = time.perf_counter()
            mods, wl = set_up(str(len(setup_times)))
            setup_times.append(time.perf_counter() - t0)
        if tracer is not None:
            mods, wl = set_up("traced")
        return _measure(workload, seed, seconds, mods, wl, tracer, setup_times)
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)


def _measure(workload, seed, seconds, mods, wl, tracer, setup_times):
    checker = Checker()
    walls: list[float] = []
    traced_wall = None

    def one_pass(traced: bool = False) -> float:
        if traced:
            tracer.install(mods)
        try:
            records = run_ops(wl.ops, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        checker.judge(records)
        return sum(seconds for _, seconds, _, _ in records)

    passes = max(1, round(PASSES_AT_25_S[workload] * seconds / 25))
    if tracer is not None:
        passes = max(1, passes - 1)
        # One untraced pass first, so the traced pass runs warm.
        walls.append(one_pass())
        traced_wall = one_pass(traced=True)
    while len(walls) < passes:
        walls.append(one_pass())

    probe_records = run_ops(wl.probes)
    probes = []
    for op, _, raw, exc in probe_records:
        outcome = judge_one(op, raw, exc)
        outcome.pop("fingerprint", None)
        outcome.pop("decided", None)
        probes.append(outcome)

    attempted = checker.attempted
    failed = checker.raised + checker.wrong
    tail_value, tail_p, tail_beyond = tail(checker.durations)
    anchor_name, anchor_nodes = REFUTE_ANCHOR
    anchor = checker.fingerprints.get(anchor_name)
    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": tracer is not None,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "src_lines": src_lines(),
        "samples": {"setup_s": len(setup_times), "wall_s": len(walls),
                    "verdict": len(checker.durations)},
        "verdict_tail": {"percentile": tail_p, "samples": len(checker.durations),
                         "beyond": tail_beyond},
        "op_median_s": {k: statistics.median(v) for k, v in sorted(checker.by_kind.items())},
        "error_share": failed / attempted,
        "errors": checker.errors[:50],
        "nondeterministic": checker.nondeterministic,
        "probes": probes,
        "fingerprints": checker.fingerprints,
        "instances": wl.instances,
    }
    if anchor is not None:
        meta["anchor"] = {"op": anchor_name, "nodes": anchor[0], "baseline_nodes": anchor_nodes}

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "verdict_p50_s": (statistics.median(checker.durations), "s"),
            "verdict_tail_s": (tail_value, "s"),
            "decided_share": (checker.decided / attempted, "ratio"),
            "correct_share": (1.0 - failed / attempted, "ratio"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    else:
        per_layer = tracing.layer_metrics(tracer, traced_wall, statistics.median(walls), probes)
        metrics = {name: (value, tracing.unit_of(name)) for name, value in per_layer.items()}
        dump = WORK / f"spans-{workload}-seed{seed}.jsonl"
        tracer.dump(dump)
        meta["spans_file"] = str(dump.relative_to(ROOT))
        meta["accounted_within_overhead"] = (
            abs(per_layer["trace.unaccounted_s"]) <= abs(per_layer["trace.overhead_s"])
        )
    result = {
        "correct": checker.wrong == 0 and not checker.nondeterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, meta


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result, meta = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except PackageMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
