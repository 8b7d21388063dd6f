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
import sys
import traceback
from pathlib import Path

from .bitmatrix import (
    SPARSE,
    BinaryMatrix,
    GapSpec,
    check_ordering,
    parse_matrix,
    parse_ordering,
    serialize_matrix,
    serialize_ordering,
)
from .reduction import (
    VARIANT_LITERAL,
    VARIANT_REPAIRED,
    parse_dimacs,
    reduce_theorem2,
    reduce_theorem3,
    to_exact3,
)
from .solver import (
    EXHAUSTED,
    SATISFIED,
    TIMED_OUT,
    SearchConfig,
    SolveOutcome,
    SearchStats,
    brute_force,
    decide,
)
from .gadget import GadgetSpec, build_gadget, verify_rigidity
from .verifysuite import DEFAULT_SEED, FAIL, SKIP, run_single_rigidity, run_suite

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
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'inf', got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gapc1p", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="check one ordering against a (k,delta) spec")
    p_check.add_argument("--matrix", required=True)
    p_check.add_argument("--order", required=True)
    p_check.add_argument("--k", type=_bound, required=True)
    p_check.add_argument("--delta", type=_bound, required=True)
    p_check.add_argument("--json", action="store_true")

    p_solve = sub.add_parser("solve", help="decide (k,delta)-consecutiveness of a matrix")
    p_solve.add_argument("--matrix", required=True)
    p_solve.add_argument("--k", type=_bound, required=True)
    p_solve.add_argument("--delta", type=_bound, required=True)
    p_solve.add_argument("--timeout", type=float, default=None, metavar="SECS")
    p_solve.add_argument("--nodes", type=int, default=None, metavar="N")
    p_solve.add_argument("--brute-force", action="store_true",
                         help="use full permutation enumeration instead of the search")
    p_solve.add_argument("--json", action="store_true")

    p_gadget = sub.add_parser("gadget", help="emit a column-rigidity gadget as a matrix file")
    p_gadget.add_argument("--n", type=int, required=True)
    p_gadget.add_argument("--delta", type=int, required=True)
    p_gadget.add_argument("--k", type=int, default=2)
    p_gadget.add_argument("--columns", default=None,
                          help="comma-separated target order (default 1..n)")
    p_gadget.add_argument("--verify", action="store_true",
                          help="exhaustively verify rigidity instead of emitting rows")
    p_gadget.add_argument("--force", action="store_true",
                          help="build even when n < 2*delta+3 (rigidity not guaranteed)")
    p_gadget.add_argument("-o", "--output", default=None)

    p_reduce = sub.add_parser("reduce", help="generate a hardness instance from a DIMACS CNF")
    p_reduce.add_argument("--cnf", required=True)
    p_reduce.add_argument("--theorem", type=int, choices=(2, 3), required=True)
    p_reduce.add_argument("--k", type=int, required=True)
    p_reduce.add_argument("--delta", type=int, default=None)
    p_reduce.add_argument("--variant", choices=(VARIANT_LITERAL, VARIANT_REPAIRED),
                          default=None, help=f"Theorem-2 family only (default {VARIANT_REPAIRED})")
    p_reduce.add_argument("--legend", default=None, metavar="PATH",
                          help="write a JSON column-role sidecar")
    p_reduce.add_argument("-o", "--output", default=None)

    p_verify = sub.add_parser("verify", help="run the oracle verification suites")
    p_verify.add_argument("--suite", choices=("gadget", "solver", "reduction", "all"),
                          required=True)
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--no-stretch", action="store_true",
                          help="skip the long unsatisfiable companion case")
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("--n", type=int, default=None)
    p_verify.add_argument("--delta", type=int, default=None)
    p_verify.add_argument("--k", type=int, default=None)
    p_verify.add_argument("--extra", type=int, default=None)

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
    return {
        "nodes_expanded": stats.nodes_expanded,
        "elapsed_seconds": round(stats.elapsed_seconds, 6),
        "prunes": stats.prunes,
    }


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
                "block_count": v.profile.block_count,
                "gaps": list(v.profile.gaps),
            }
        print(json.dumps({"ok": report.ok, "violation": violation}))
    elif report.ok:
        print("ok")
    else:
        v = report.first_violation
        print(f"violation row={v.row_index} kind={v.kind} "
              f"blocks={v.profile.block_count} gaps={list(v.profile.gaps)}")
    return EXIT_HOLDS if report.ok else EXIT_FAILS


def _outcome_exit(status: str) -> int:
    return {SATISFIED: EXIT_HOLDS, EXHAUSTED: EXIT_FAILS, TIMED_OUT: EXIT_UNDECIDED}[status]


def _cmd_solve(args) -> int:
    matrix = parse_matrix(_read(args.matrix))
    spec = GapSpec(args.k, args.delta)
    if args.brute_force:
        report = brute_force(matrix, spec)
        witness = report.witnesses[0] if report.witnesses else None
        status = SATISFIED if report.valid_count else EXHAUSTED
        outcome = SolveOutcome(status, witness, SearchStats(0, 0.0, {}))
    else:
        config = SearchConfig(timeout_seconds=args.timeout, node_limit=args.nodes)
        outcome = decide(matrix, spec, config)
    if args.json:
        print(json.dumps({
            "status": outcome.status,
            "witness": list(outcome.witness.forward) if outcome.witness else None,
            "stats": _stats_json(outcome.stats),
        }))
    else:
        if outcome.witness is not None:
            sys.stdout.write(serialize_ordering(outcome.witness))
        print(
            f"status={outcome.status} nodes={outcome.stats.nodes_expanded} "
            f"elapsed={outcome.stats.elapsed_seconds:.2f}s",
            file=sys.stderr,
        )
    return _outcome_exit(outcome.status)


def _cmd_gadget(args) -> int:
    if args.columns is not None:
        try:
            target = tuple(int(t) for t in args.columns.replace(",", " ").split())
        except ValueError:
            raise _CliError(f"bad --columns list {args.columns!r}")
        if len(target) != args.n:
            raise _CliError(f"--columns lists {len(target)} columns but --n is {args.n}")
    else:
        target = tuple(range(1, args.n + 1))
    if args.verify:
        if args.columns is not None:
            raise _CliError("--verify enumerates the default universe; omit --columns")
        report = verify_rigidity(args.n, args.delta, args.k, extra_columns=0)
        print(f"rigid={str(report.rigid).lower()} valid_count={report.valid_count}")
        return EXIT_HOLDS if report.rigid else EXIT_FAILS
    rows = build_gadget(GadgetSpec(target, args.delta, force=args.force))
    matrix = BinaryMatrix(max(target), rows)
    _write(args.output, serialize_matrix(matrix, SPARSE))
    return EXIT_HOLDS


def _cmd_reduce(args) -> int:
    cnf = to_exact3(parse_dimacs(_read(args.cnf)))
    if args.theorem == 3:
        if args.delta is not None and args.delta != 1:
            raise _CliError("the block-count family is defined at delta = 1")
        if args.variant is not None:
            raise _CliError("--variant selects a Theorem-2 family; use --theorem 2")
        output = reduce_theorem3(cnf, args.k)
    else:
        if args.delta is None:
            raise _CliError("--theorem 2 requires --delta")
        output = reduce_theorem2(cnf, args.k, args.delta, args.variant or VARIANT_REPAIRED)
    _write(args.output, serialize_matrix(output.matrix, SPARSE))
    if args.legend is not None:
        params = output.params
        legend = {
            "theorem": params.theorem,
            "k": params.k,
            "delta": params.delta,
            "d": params.d,
            "num_vars": params.num_vars,
            "num_clauses": params.num_clauses,
            "variant": params.variant,
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
    if any(v is not None for v in (args.n, args.k, args.delta, args.extra)):
        if args.suite != "gadget":
            raise _CliError("--n/--delta/--k/--extra select a single gadget case; "
                            "use --suite gadget")
        if args.n is None or args.delta is None:
            raise _CliError("a single gadget case needs both --n and --delta")
        k = 2 if args.k is None else args.k
        GapSpec(k, args.delta)  # a bad bound is a usage error, not a failed case
        results = [run_single_rigidity(args.n, args.delta, k, args.extra or 0)]
    else:
        results = run_suite(args.suite, seed=args.seed, stretch=not args.no_stretch)
    if args.json:
        print(json.dumps({
            "suite": args.suite,
            "seed": args.seed,
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
            print(f"[{r.case_id}] {r.status.upper():4s} {r.name} "
                  f"({r.elapsed_seconds:.2f}s) - {r.detail}")
        failed = sum(r.status == FAIL for r in results)
        skipped = sum(r.status == SKIP for r in results)
        print(f"{len(results)} cases: {len(results) - failed - skipped} passed, "
              f"{failed} failed, {skipped} skipped")
    return EXIT_FAILS if any(r.status == FAIL for r in results) else EXIT_HOLDS


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "gadget":
            return _cmd_gadget(args)
        if args.command == "reduce":
            return _cmd_reduce(args)
        return _cmd_verify(args)
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
