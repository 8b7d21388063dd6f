"""Span tracing at the gapc1p layer boundaries, installed from outside the package.

``Tracer.install(mods)`` replaces, by module attribute, every function one
gapc1p module imports from another (for example ``cli.decide`` or
``reduction.profile_row``), plus the entry points the benchmark calls
directly.  Each wrapper records a span ``[name, start, end, parent, op,
child_s]`` in memory; ``uninstall`` puts the originals back.  A layer is the
module that defines the function, so a call inside one module is not a
boundary and is not traced.

Hot leaf calls (``check_ordering`` once per permutation inside
``verify_rigidity``) would make millions of spans.  After ``FOLD_AFTER``
spans with the same parent and name, further calls are folded into one
aggregate (calls, total seconds) that still counts as child time of the
parent and self time of its own layer.  Calls made inside a folded call are
not traced separately; their time stays with the folded call.
"""

from __future__ import annotations

import inspect
import json
import math
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("cli", "bitmatrix", "solver", "pqtree", "gadget", "reduction")

# Entry points the benchmark calls directly, patched in their home module.
# None of them is called from inside its own module.
DIRECT = (
    ("cli", "main"),
    ("bitmatrix", "serialize_matrix"),
    ("solver", "decide"),
    ("solver", "brute_force"),
    ("gadget", "verify_rigidity"),
    ("reduction", "reduce_theorem3"),
    ("reduction", "reduce_theorem2"),
    ("reduction", "witness_from_assignment"),
)

FOLD_AFTER = 64

NAME, START, END, PARENT, OP, CHILD = range(6)


def _layer_of(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


def _rows_checked(args, result) -> int:
    if result.ok:
        return args[0].num_rows
    return result.first_violation.row_index


def _count_hooks():
    """Counters updated after each call, by span name."""

    def decide(counts, args, kwargs, result):
        counts["solver.nodes"] += result.stats.nodes_expanded
        for rule, n in result.stats.prunes.items():
            counts[f"solver.prune.{rule}"] += n

    def check(counts, args, kwargs, result):
        counts["bitmatrix.check_calls"] += 1
        counts["bitmatrix.check_rows"] += _rows_checked(args, result)

    def profile(counts, args, kwargs, result):
        counts["bitmatrix.check_calls"] += 1
        counts["bitmatrix.check_rows"] += 1

    def pq(counts, args, kwargs, result):
        counts["pqtree.rows"] += len(args[1])

    def brute(counts, args, kwargs, result):
        counts["solver.brute_force_perms"] += math.factorial(args[0].num_columns)

    def rigidity(counts, args, kwargs, result):
        extra = args[3] if len(args) > 3 else kwargs.get("extra_columns", 0)
        counts["gadget.perms"] += math.factorial(args[0] + extra)

    return {
        "solver.decide": decide,
        "bitmatrix.check_ordering": check,
        "bitmatrix.profile_row": profile,
        "pqtree.consecutive_ordering": pq,
        "solver.brute_force": brute,
        "gadget.verify_rigidity": rigidity,
    }


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.folded: dict[tuple, list] = {}  # (parent, op, name) -> [calls, seconds]
        self.per_parent: Counter = Counter()
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()  # span name -> exceptions raised
        self.op = "setup"
        self._folding = False
        self._saved: list[tuple] = []
        self._hooks = _count_hooks()

    # -- installation --------------------------------------------------------

    def install(self, mods) -> None:
        targets = []
        for layer, attr in DIRECT:
            module = getattr(mods, layer)
            targets.append((module, attr, getattr(module, attr)))
        for layer in LAYERS:
            module = getattr(mods, layer)
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__.startswith("gapc1p.")
                        and value.__module__ != module.__name__):
                    targets.append((module, attr, value))
        for module, attr, fn in targets:
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(f"{_layer_of(fn)}.{fn.__name__}", fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        hook = self._hooks.get(name)

        def traced(*args, **kwargs):
            if self._folding:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            key = (parent, self.op, name)
            self.per_parent[key] += 1
            if self.per_parent[key] > FOLD_AFTER:
                self._folding = True
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    self.errors[name] += 1
                    raise
                finally:
                    dt = clock() - t0
                    self._folding = False
                    agg = self.folded.setdefault(key, [0, 0.0])
                    agg[0] += 1
                    agg[1] += dt
                    if parent >= 0:
                        spans[parent][CHILD] += dt
                if hook is not None:
                    hook(self.counts, args, kwargs, result)
                return result
            rec = [name, 0.0, 0.0, parent, self.op, 0.0]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                rec[END] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += rec[END] - rec[START]
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- analysis ------------------------------------------------------------

    def self_times(self, op_filter) -> dict[str, float]:
        """Self seconds per layer over spans whose op id passes ``op_filter``."""
        out = dict.fromkeys(LAYERS, 0.0)
        for rec in self.spans:
            if op_filter(rec[OP]):
                out[rec[NAME].split(".")[0]] += rec[END] - rec[START] - rec[CHILD]
        for (_, op, name), (_, seconds) in self.folded.items():
            if op_filter(op):
                out[name.split(".")[0]] += seconds
        return out

    def totals(self) -> dict[str, tuple[int, float]]:
        """(calls, inclusive seconds) per span name, folded calls included."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for rec in self.spans:
            out[rec[NAME]][0] += 1
            out[rec[NAME]][1] += rec[END] - rec[START]
        for (_, _, name), (calls, seconds) in self.folded.items():
            out[name][0] += calls
            out[name][1] += seconds
        return {k: (v[0], v[1]) for k, v in out.items()}

    def durations(self, name: str, op_prefix: str) -> list[float]:
        return [rec[END] - rec[START] for rec in self.spans
                if rec[NAME] == name and rec[OP].startswith(op_prefix)]

    def dump(self, path: Path) -> None:
        with path.open("w") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": rec[NAME], "start": rec[START],
                                     "end": rec[END], "parent": rec[PARENT],
                                     "op": rec[OP], "child_s": rec[CHILD]}) + "\n")
            for (parent, op, name), (calls, seconds) in self.folded.items():
                fh.write(json.dumps({"folded": name, "parent": parent, "op": op,
                                     "calls": calls, "seconds": seconds}) + "\n")


def _growth_exponent(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) against log(columns)."""
    if len(points) < 2:
        return 0.0
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx if sxx else 0.0


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float,
                  probes: list[dict]) -> dict[str, float]:
    """Per-layer figures over one traced set-up and one traced pass.

    The probes run untraced; they add only their counts, and their
    ConstructionError refusals to ``reduction.witness_refused``.
    """
    calls = tracer.totals()
    counts = tracer.counts

    def secs(name: str) -> float:
        return calls.get(name, (0, 0.0))[1]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    decide_s = secs("solver.decide")
    nodes = counts["solver.nodes"]
    useful = nodes - counts["solver.prune.gap"] - counts["solver.prune.blocks"]
    check_s = secs("bitmatrix.check_ordering") + secs("bitmatrix.profile_row")
    brute_s = secs("solver.brute_force")
    rigidity_s = secs("gadget.verify_rigidity")
    pq_s = secs("pqtree.consecutive_ordering")

    c1p = {}
    for n in (400, 800, 1600):
        d = tracer.durations("solver.classic_c1p", f"pass:interval-n{n}-")
        c1p[n] = statistics.median(d) if d else 0.0
    growth = _growth_exponent([(n, t) for n, t in c1p.items() if t > 0])

    self_pass = tracer.self_times(lambda op: op.startswith("pass:"))
    self_sum = sum(self_pass.values())

    m = {
        "solver.decide_calls": calls.get("solver.decide", (0, 0.0))[0],
        "solver.decide_s": decide_s,
        "solver.nodes": nodes,
        "solver.nodes_per_s": ratio(nodes, decide_s),
        "solver.useful_ratio": ratio(useful, nodes),
        "solver.prune.gap": counts["solver.prune.gap"],
        "solver.prune.blocks": counts["solver.prune.blocks"],
        "solver.prune.forced": counts["solver.prune.forced"],
        "solver.prune.symmetry": counts["solver.prune.symmetry"],
        "solver.brute_force_s": brute_s,
        "solver.brute_force_perms_per_s": ratio(counts["solver.brute_force_perms"], brute_s),
        "pqtree.c1p_s.n400": c1p[400],
        "pqtree.c1p_s.n800": c1p[800],
        "pqtree.c1p_s.n1600": c1p[1600],
        "pqtree.rows_per_s": ratio(counts["pqtree.rows"], pq_s),
        "pqtree.growth_exp": growth,
        "bitmatrix.parse_s": secs("bitmatrix.parse_matrix"),
        "bitmatrix.check_calls": counts["bitmatrix.check_calls"],
        "bitmatrix.check_s": check_s,
        "bitmatrix.check_rows_per_s": ratio(counts["bitmatrix.check_rows"], check_s),
        "bitmatrix.serialize_s": secs("bitmatrix.serialize_matrix")
        + secs("bitmatrix.serialize_ordering"),
        "gadget.verify_rigidity_s": rigidity_s,
        "gadget.perms_per_s": ratio(counts["gadget.perms"], rigidity_s),
        "reduction.reduce_s": secs("reduction.reduce_theorem3") + secs("reduction.reduce_theorem2"),
        "reduction.witness_s": secs("reduction.witness_from_assignment"),
        "reduction.witness_refused": tracer.errors["reduction.witness_from_assignment"]
        + sum(p.get("cause", "").startswith("ConstructionError") for p in probes),
        "cli.self_s": self_pass.pop("cli"),
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.self_sum_s": self_sum,
        "trace.unaccounted_s": traced_wall - self_sum,
        "probe.attempted": len(probes),
        "probe.failed": sum(p["outcome"] != "ok" for p in probes),
    }
    for layer, seconds in self_pass.items():
        m[f"self_s.{layer}"] = seconds
    return m


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_exp"):
        return "exponent"
    return "count"
