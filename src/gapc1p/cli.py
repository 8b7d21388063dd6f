"""Command-line interface.

Exit codes: 0 when the queried property holds (satisfied / check passed /
suite passed), 1 when it provably fails (exhausted / violation), 2 when the
search hit a limit and the question is undecided, 3 for usage, input, or I/O
errors, 4 for an internal error (a crash is never reported as a verdict).
``--json`` switches stdout to a single machine-readable object.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import traceback
from pathlib import Path

from .bitmatrix import (
    BinaryMatrix,
    GapSpec,
    check_ordering,
    parse_matrix,
    parse_ordering,
    serialize_matrix,
    serialize_ordering,
    strict_int,
)
from .reduction import parse_dimacs, reduce_formula
from .solver import EXHAUSTED, SATISFIED, TIMED_OUT, SearchConfig, SearchStats, decide
from .gadget import build_gadget
from .verifysuite import FAIL, SUITES, run_suite

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_UNDECIDED = 2
EXIT_ERROR = 3
EXIT_INTERNAL = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # usage errors exit 3, not argparse's 2
        self.print_usage(sys.stderr)
        raise _CliError(message)


class _CliError(Exception):
    pass


def _bound(text: str) -> int | None:
    if text.lower() == "inf":
        return None
    try:
        return strict_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'inf', got {text!r}")


def _seconds(text: str) -> float:
    if not re.fullmatch(r"[0-9]+(\.[0-9]+)?", text):
        raise argparse.ArgumentTypeError(f"expected seconds as digits[.digits], got {text!r}")
    return float(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gapc1p", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="check one ordering against a (k,delta) spec")
    p_check.add_argument("--matrix", required=True)
    p_check.add_argument("--order", required=True)
    p_check.add_argument("--k", type=_bound, required=True)
    p_check.add_argument("--delta", type=_bound, required=True)
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(run=_cmd_check)

    p_solve = sub.add_parser("solve", help="decide (k,delta)-consecutiveness of a matrix")
    p_solve.add_argument("--matrix", required=True)
    p_solve.add_argument("--k", type=_bound, required=True)
    p_solve.add_argument("--delta", type=_bound, required=True)
    p_solve.add_argument("--timeout", type=_seconds, default=None, metavar="SECS")
    p_solve.add_argument("--nodes", type=strict_int, default=None, metavar="N")
    p_solve.add_argument("--json", action="store_true")
    p_solve.set_defaults(run=_cmd_solve)

    p_gadget = sub.add_parser("gadget", help="emit the column-rigidity gadget over columns 1..n")
    p_gadget.add_argument("--n", type=strict_int, required=True)
    p_gadget.add_argument("--delta", type=strict_int, required=True)
    p_gadget.add_argument("-o", "--output", default=None)
    p_gadget.set_defaults(run=_cmd_gadget)

    p_reduce = sub.add_parser("reduce", help="generate a hardness instance from a DIMACS CNF")
    p_reduce.add_argument("--cnf", required=True)
    p_reduce.add_argument("--k", type=_bound, required=True)
    p_reduce.add_argument("--delta", type=_bound, required=True)
    p_reduce.add_argument("--legend", default=None, metavar="PATH",
                          help="write a JSON column-role sidecar")
    p_reduce.add_argument("-o", "--output", default=None)
    p_reduce.set_defaults(run=_cmd_reduce)

    p_verify = sub.add_parser("verify", help="run the oracle verification suites")
    p_verify.add_argument("--suite", choices=SUITES, required=True)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(run=_cmd_verify)

    return parser


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}")


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc}")


def _stats_json(stats: SearchStats) -> dict:
    return {"nodes_expanded": stats.nodes_expanded,
            "elapsed_seconds": round(stats.elapsed_seconds, 6), "prunes": stats.prunes}


def _cmd_check(args) -> int:
    matrix = parse_matrix(_read(args.matrix))
    ordering = parse_ordering(_read(args.order), matrix.num_columns)
    report = check_ordering(matrix, ordering, GapSpec(args.k, args.delta))
    if args.json:
        violation = None
        if report.first_violation is not None:
            v = report.first_violation
            violation = {
                "row": v.row_index,
                "kind": v.kind,
                "block_count": v.block_count,
                "gaps": list(v.gaps),
            }
        print(json.dumps({"ok": report.ok, "violation": violation}))
    elif report.ok:
        print("ok")
    else:
        v = report.first_violation
        print(f"violation row={v.row_index} kind={v.kind} "
              f"blocks={v.block_count} gaps={list(v.gaps)}")
    return EXIT_HOLDS if report.ok else EXIT_FAILS


def _outcome_exit(status: str) -> int:
    return {SATISFIED: EXIT_HOLDS, EXHAUSTED: EXIT_FAILS, TIMED_OUT: EXIT_UNDECIDED}[status]


def _cmd_solve(args) -> int:
    config = SearchConfig(timeout_seconds=args.timeout, node_limit=args.nodes)
    matrix = parse_matrix(_read(args.matrix))
    outcome = decide(matrix, GapSpec(args.k, args.delta), config)
    if args.json:
        print(json.dumps({
            "status": outcome.status,
            "witness": list(outcome.witness.forward) if outcome.witness else None,
            "stats": _stats_json(outcome.stats),
        }))
    else:
        if outcome.witness is not None:
            sys.stdout.write(serialize_ordering(outcome.witness))
        prunes = ",".join(f"{rule}:{n}" for rule, n in outcome.stats.prunes.items())
        print(
            f"status={outcome.status} nodes={outcome.stats.nodes_expanded} "
            f"elapsed={outcome.stats.elapsed_seconds:.2f}s prunes={prunes}",
            file=sys.stderr,
        )
    return _outcome_exit(outcome.status)


def _cmd_gadget(args) -> int:
    if args.n < 0:
        raise _CliError(f"--n must be >= 0, got {args.n}")
    rows = build_gadget(range(1, args.n + 1), args.delta)
    _write(args.output, serialize_matrix(BinaryMatrix(args.n, rows)))
    return EXIT_HOLDS


def _cmd_reduce(args) -> int:
    cnf = parse_dimacs(_read(args.cnf))
    output = reduce_formula(cnf, GapSpec(args.k, args.delta))
    _write(args.output, serialize_matrix(output.matrix))
    if args.legend is not None:
        legend = {
            **output.params._asdict(),
            "num_columns": output.matrix.num_columns,
            "num_rows": output.matrix.num_rows,
            "columns": [
                {
                    "column": col,
                    "role": role.kind,
                    "index": role.index,
                    "slot": role.slot,
                }
                for col, role in sorted(output.legend.items())
            ],
        }
        _write(args.legend, json.dumps(legend, indent=2) + "\n")
    return EXIT_HOLDS


def _cmd_verify(args) -> int:
    results = run_suite(args.suite)
    if args.json:
        print(json.dumps({
            "suite": args.suite,
            "ok": all(r.status != FAIL for r in results),
            "cases": [
                {
                    "id": r.case_id,
                    "name": r.name,
                    "status": r.status,
                    "elapsed_seconds": round(r.elapsed_seconds, 3),
                    "detail": r.detail,
                }
                for r in results
            ],
        }))
    else:
        for r in results:
            print(r.line())
        failed = sum(r.status == FAIL for r in results)
        print(f"{len(results)} cases: {len(results) - failed} passed, {failed} failed")
    return EXIT_FAILS if any(r.status == FAIL for r in results) else EXIT_HOLDS


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except (_CliError, ValueError, OSError) as exc:  # format errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # a crash must not read as a verdict
        traceback.print_exc()
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
