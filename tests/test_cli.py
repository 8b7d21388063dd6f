import argparse
import itertools
import json

import pytest

from gapc1p import (
    Cnf,
    GapSpec,
    check_ordering,
    parse_matrix,
    parse_ordering,
    reduce_formula,
    serialize_matrix,
)
from gapc1p import verifysuite
from gapc1p.cli import build_parser, main
from gapc1p.solver import PRUNE_RULES
from gapc1p.verifysuite import SUITES, run_suite

TRIPLE_TEXT = "3 3\n1 2\n2 3\n1 3\n"
CHAIN_TEXT = "2 3\n1 2\n2 3\n"
# Every pair of 5 columns: exhausted at (2,1) after 4 search nodes.
ALL_PAIRS_TEXT = "10 5\n" + "".join(
    f"{a} {b}\n" for a, b in itertools.combinations(range(1, 6), 2)
)


@pytest.fixture
def triple(tmp_path):
    path = tmp_path / "triple.txt"
    path.write_text(TRIPLE_TEXT)
    return path


@pytest.fixture
def all_pairs(tmp_path):
    path = tmp_path / "all_pairs.txt"
    path.write_text(ALL_PAIRS_TEXT)
    return path


@pytest.fixture
def chain(tmp_path):
    path = tmp_path / "chain.txt"
    path.write_text(CHAIN_TEXT)
    return path


class TestSolve:
    def test_satisfiable_exits_zero_and_prints_witness(self, chain, capsys):
        code = main(["solve", "--matrix", str(chain), "--k", "1", "--delta", "0"])
        assert code == 0
        out = capsys.readouterr().out
        ordering = parse_ordering(out, 3)
        matrix = parse_matrix(CHAIN_TEXT)
        assert check_ordering(matrix, ordering, GapSpec(1, 0)).ok

    def test_triple_exhausts_with_exit_one(self, triple):
        assert main(["solve", "--matrix", str(triple), "--k", "1", "--delta", "0"]) == 1

    def test_triple_satisfiable_with_gap(self, triple):
        assert main(["solve", "--matrix", str(triple), "--k", "2", "--delta", "1"]) == 0

    def test_node_limit_gives_undecided_exit(self, all_pairs, capsys):
        code = main(["solve", "--matrix", str(all_pairs), "--k", "2", "--delta", "1",
                     "--nodes", "1"])
        assert code == 2
        # A limit of N reports the N nodes judged.
        capsys.readouterr()
        code = main(["solve", "--matrix", str(all_pairs), "--k", "2", "--delta", "1",
                     "--nodes", "0", "--json"])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["stats"]["nodes_expanded"] == 0

    def test_exit_codes_distinguish_exhausted_from_undecided(self, all_pairs):
        exhausted = main(["solve", "--matrix", str(all_pairs), "--k", "2", "--delta", "1"])
        undecided = main(["solve", "--matrix", str(all_pairs), "--k", "2", "--delta", "1",
                          "--nodes", "1"])
        assert exhausted == 1 and undecided == 2

    def test_stats_line_counts_prunes_by_rule(self, tmp_path, capsys):
        # Every rule fires on this 8-column matrix at (3,1).
        path = tmp_path / "m.txt"
        path.write_text("4 8\n1 4 8\n3 6 7 8\n2 3 4 5\n2 3\n")
        argv = ["solve", "--matrix", str(path), "--k", "3", "--delta", "1"]
        assert main(argv) == 0
        line = capsys.readouterr().err.strip()
        assert line.startswith("status=satisfied nodes=30 ")
        assert line.endswith(" prunes=blocks:1,forced:2,deadline:2,symmetry:1,seen:2")
        assert main([*argv, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)["stats"]
        assert stats["prunes"] == {"blocks": 1, "forced": 2, "deadline": 2, "symmetry": 1, "seen": 2}
        assert list(stats) == ["nodes_expanded", "elapsed_seconds", "prunes"]
        assert list(stats["prunes"]) == list(PRUNE_RULES)

    def test_classical_json_counts_every_rule_as_zero(self, triple, capsys):
        assert main(["solve", "--matrix", str(triple), "--k", "1", "--delta", "0", "--json"]) == 1
        stats = json.loads(capsys.readouterr().out)["stats"]
        assert stats["nodes_expanded"] == 0
        assert list(stats["prunes"].items()) == [
            ("blocks", 0), ("forced", 0), ("deadline", 0), ("symmetry", 0), ("seen", 0)]

    def test_deep_path_is_satisfied(self, tmp_path):
        # 1,200 columns is deeper than Python's recursion limit.
        path = tmp_path / "path.txt"
        path.write_text("1199 1200\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 1200)))
        assert main(["solve", "--matrix", str(path), "--k", "2", "--delta", "1"]) == 0

    def test_nested_prefixes_are_classic_c1p(self, tmp_path):
        # 1,200 nested rows {1..i+1} are C1P; they once overflowed a recursive walk.
        path = tmp_path / "nested.txt"
        rows = [range(1, i + 2) for i in range(1, 1201)]
        path.write_text("1200 1201\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))
        assert main(["solve", "--matrix", str(path), "--k", "1", "--delta", "0"]) == 0

    def test_zero_timeout_gives_undecided_exit(self, tmp_path):
        # The deadline is read every 1,024 nodes; this companion needs millions.
        path = tmp_path / "companion_3_3.txt"
        cnf = Cnf(1, ((1, 1, 1), (-1, -1, -1)))
        path.write_text(serialize_matrix(reduce_formula(cnf, GapSpec(3, 3)).matrix))
        code = main(["solve", "--matrix", str(path), "--k", "3", "--delta", "3",
                     "--timeout", "0"])
        assert code == 2

    def test_json_witness_reparses_as_ordering_file(self, chain, capsys, tmp_path):
        code = main(["solve", "--matrix", str(chain), "--k", "2", "--delta", "1", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "satisfied"
        order_path = tmp_path / "order.txt"
        order_path.write_text(" ".join(str(c) for c in payload["witness"]) + "\n")
        assert main(["check", "--matrix", str(chain), "--order", str(order_path),
                     "--k", "2", "--delta", "1"]) == 0

    def test_brute_force_flag(self, triple):
        # `brute_force` is the library oracle; `solve` runs the search only.
        assert main(["solve", "--matrix", str(triple), "--k", "1", "--delta", "0",
                     "--brute-force"]) == 3

    def test_negative_limits_are_usage_errors(self, triple):
        # The deadline is read only every 1,024 nodes, so a negative timeout
        # would not stop a small search; zero keeps its meaning.
        base = ["solve", "--matrix", str(triple), "--k", "2", "--delta", "1"]
        assert main([*base, "--nodes", "-1"]) == 3
        assert main([*base, "--timeout", "-5"]) == 3
        assert main([*base, "--timeout", "nan"]) == 3
        # Seconds follow the integer token rule plus an optional .digits part.
        for token in ("1_0", "+5", "\u0663", " 2", "1e1"):
            assert main([*base, "--timeout", token]) == 3, token
        assert main([*base, "--nodes", "0"]) == 2
        assert main([*base, "--timeout", "2.5"]) == 0

    def test_internal_error_is_not_a_verdict(self, triple, monkeypatch, capsys):
        def crash(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr("gapc1p.cli.decide", crash)
        assert main(["solve", "--matrix", str(triple), "--k", "2", "--delta", "1"]) == 4
        assert "error: internal: RecursionError" in capsys.readouterr().err

    def test_inf_bounds_accepted(self, triple):
        # Unlimited blocks cannot beat a zero gap bound (delta=0 collapse),
        # while an unlimited gap bound with two blocks can.
        assert main(["solve", "--matrix", str(triple), "--k", "inf", "--delta", "0"]) == 1
        assert main(["solve", "--matrix", str(triple), "--k", "2", "--delta", "inf"]) == 0

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main(["solve", "--matrix", str(tmp_path / "nope.txt"),
                     "--k", "1", "--delta", "0"]) == 3

    def test_index_too_long_for_int_is_a_format_error(self, tmp_path, capsys):
        path = tmp_path / "long.txt"
        path.write_text("1 3\n" + "1" * 5000 + "\n")
        assert main(["solve", "--matrix", str(path), "--k", "2", "--delta", "1"]) == 3
        assert capsys.readouterr().err.startswith("error: line 2: index of 5000 digits exceeds")


class TestCheck:
    def test_check_on_solve_witness_round_trip(self, triple, tmp_path, capsys):
        code = main(["solve", "--matrix", str(triple), "--k", "2", "--delta", "1"])
        assert code == 0
        witness = capsys.readouterr().out
        order_path = tmp_path / "w.txt"
        order_path.write_text(witness)
        assert main(["check", "--matrix", str(triple), "--order", str(order_path),
                     "--k", "2", "--delta", "1"]) == 0

    def test_violation_exits_one_with_detail(self, triple, tmp_path, capsys):
        order_path = tmp_path / "id.txt"
        order_path.write_text("1 2 3\n")
        code = main(["check", "--matrix", str(triple), "--order", str(order_path),
                     "--k", "1", "--delta", "0"])
        assert code == 1
        assert "violation" in capsys.readouterr().out

    def test_index_too_long_for_int_is_a_format_error(self, triple, tmp_path, capsys):
        order_path = tmp_path / "long.txt"
        order_path.write_text("1 2 " + "9" * 5000 + "\n")
        assert main(["check", "--matrix", str(triple), "--order", str(order_path),
                     "--k", "2", "--delta", "1"]) == 3
        assert capsys.readouterr().err.startswith("error: ordering: index of 5000 digits exceeds")

    def test_json_violation_payload(self, triple, tmp_path, capsys):
        order_path = tmp_path / "id.txt"
        order_path.write_text("1 2 3\n")
        main(["check", "--matrix", str(triple), "--order", str(order_path),
              "--k", "1", "--delta", "0", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["violation"]["row"] == 3


class TestGadget:
    def test_emits_parseable_sparse_matrix(self, tmp_path):
        out = tmp_path / "g.txt"
        assert main(["gadget", "--n", "5", "--delta", "1", "-o", str(out)]) == 0
        matrix = parse_matrix(out.read_text())
        assert matrix.num_rows == 7
        assert matrix.num_columns == 5

    def test_undersized_gadget_is_a_usage_error(self, capsys):
        # No option builds a gadget below the rigidity hypothesis.
        assert main(["gadget", "--n", "4", "--delta", "1"]) == 3
        assert main(["gadget", "--n", "4", "--delta", "1", "--force"]) == 3

    def test_empty_gadget_is_a_usage_error(self, capsys):
        assert main(["gadget", "--n", "0", "--delta", "0"]) == 3
        assert "breaks the rigidity hypothesis" in capsys.readouterr().err

    def test_negative_n_names_the_requested_value(self, capsys):
        assert main(["gadget", "--n", "-3", "--delta", "0"]) == 3
        assert "--n must be >= 0, got -3" in capsys.readouterr().err

    def test_rigidity_check_lives_in_verify(self):
        # `verify_rigidity` is the one rigidity check; the gadget's rows do
        # not depend on k.
        assert main(["gadget", "--n", "5", "--delta", "1", "--verify"]) == 3
        assert main(["gadget", "--n", "5", "--delta", "1", "--k", "2"]) == 3

    def test_columns_is_not_an_option(self):
        # `gadget` emits columns 1..n; `build_gadget(order, delta)` takes any order.
        assert main(["gadget", "--n", "5", "--delta", "1", "--columns", "1,2,3,4,5"]) == 3


class TestReduce:
    def write_cnf(self, tmp_path, text):
        path = tmp_path / "f.cnf"
        path.write_text(text)
        return path

    def test_theorem3_instance_with_legend(self, tmp_path):
        cnf = self.write_cnf(tmp_path, "p cnf 1 1\n1 1 1 0\n")
        out = tmp_path / "m.txt"
        legend = tmp_path / "legend.json"
        code = main(["reduce", "--cnf", str(cnf), "--k", "3", "--delta", "1",
                     "-o", str(out), "--legend", str(legend)])
        assert code == 0
        matrix = parse_matrix(out.read_text())
        assert matrix.num_columns == 12 and matrix.num_rows == 14
        payload = json.loads(legend.read_text())
        assert list(payload) == ["theorem", "k", "delta", "d", "num_vars", "num_clauses",
                                 "num_columns", "num_rows", "columns"]
        assert payload["theorem"] == 3 and payload["d"] == 6
        assert len(payload["columns"]) == 12
        roles = {c["column"]: c["role"] for c in payload["columns"]}
        assert roles[1] == "variable" and roles[3] == "separator" and roles[12] == "clause"

    def test_theorem2_instance_has_one_width(self, tmp_path, capsys):
        # The separator is max{2k, 2*delta+3} = 7 wide (REPAIRS.md R7); the
        # printed width max{2k, 5} is not offered.
        cnf = self.write_cnf(tmp_path, "p cnf 1 1\n1 1 1 0\n")
        legend = tmp_path / "legend.json"
        assert main(["reduce", "--cnf", str(cnf), "--k", "2", "--delta", "2",
                     "--legend", str(legend)]) == 0
        assert parse_matrix(capsys.readouterr().out).num_columns == 14
        assert json.loads(legend.read_text())["d"] == 7

    def test_variant_is_not_an_option(self, tmp_path):
        # One Theorem-2 construction, so neither family takes --variant and
        # the legend names no variant.
        cnf = self.write_cnf(tmp_path, "p cnf 1 1\n1 1 1 0\n")
        for spec in (["--k", "2", "--delta", "2"], ["--k", "3", "--delta", "1"]):
            assert main(["reduce", "--cnf", str(cnf), *spec,
                         "--variant", "literal"]) == 3
        legend = tmp_path / "legend.json"
        assert main(["reduce", "--cnf", str(cnf), "--k", "2",
                     "--delta", "2", "-o", str(tmp_path / "m.txt"),
                     "--legend", str(legend)]) == 0
        assert "variant" not in json.loads(legend.read_text())

    def test_delta_above_one_builds_the_gapped_family(self, tmp_path):
        cnf = self.write_cnf(tmp_path, "p cnf 1 1\n1 1 1 0\n")
        legend = tmp_path / "legend.json"
        assert main(["reduce", "--cnf", str(cnf), "--k", "3", "--delta", "2",
                     "-o", str(tmp_path / "m.txt"), "--legend", str(legend)]) == 0
        payload = json.loads(legend.read_text())
        assert payload["theorem"] == 2 and payload["d"] == 7

    def test_the_spec_alone_picks_the_family(self, tmp_path):
        cnf = self.write_cnf(tmp_path, "p cnf 1 1\n1 1 1 0\n")
        base = ["reduce", "--cnf", str(cnf), "-o", str(tmp_path / "m.txt")]
        assert main([*base, "--theorem", "3", "--k", "3", "--delta", "1"]) == 3
        assert main([*base, "--k", "inf", "--delta", "2"]) == 3
        assert main([*base, "--k", "3", "--delta", "inf"]) == 3
        assert main([*base, "--k", "0", "--delta", "2"]) == 3

    def test_theorem2_requires_delta(self, tmp_path):
        cnf = self.write_cnf(tmp_path, "p cnf 1 1\n1 1 1 0\n")
        assert main(["reduce", "--cnf", str(cnf), "--k", "2"]) == 3

    def test_open_case_has_no_family(self, tmp_path, capsys):
        cnf = self.write_cnf(tmp_path, "p cnf 1 1\n1 1 1 0\n")
        assert main(["reduce", "--cnf", str(cnf), "--k", "2", "--delta", "1"]) == 3
        assert "(2,1) is the paper's open case" in capsys.readouterr().err

    def test_classical_specs_have_no_family(self, tmp_path, capsys):
        cnf = self.write_cnf(tmp_path, "p cnf 1 1\n1 1 1 0\n")
        for k, delta in (("3", "0"), ("1", "2")):
            assert main(["reduce", "--cnf", str(cnf), "--k", k, "--delta", delta]) == 3
            err = capsys.readouterr().err
            assert "classical C1P, polynomial, no hardness family" in err
            assert "k >= 3 family" not in err

    def test_generated_instance_solves_end_to_end(self, tmp_path, capsys):
        cnf = self.write_cnf(tmp_path, "p cnf 1 1\n1 1 1 0\n")
        out = tmp_path / "m.txt"
        assert main(["reduce", "--cnf", str(cnf), "--k", "3", "--delta", "1",
                     "-o", str(out)]) == 0
        assert main(["solve", "--matrix", str(out), "--k", "3", "--delta", "1"]) == 0


class TestVerify:
    def test_gadget_suite_json(self, capsys):
        code = main(["verify", "--suite", "gadget", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert "seed" not in payload  # the solver cases always draw CORPUS_SEED
        assert [c["id"] for c in payload["cases"]] == ["C1", "C2", "C3"]
        assert all(c["status"] == "pass" for c in payload["cases"])

    def test_stretch_case_always_runs(self):
        # There is no option to skip C7S; the installed-copy run in
        # test_acceptance.py checks that the reduction suite runs it.
        assert main(["verify", "--suite", "reduction", "--no-stretch"]) == 3

    def test_suites_run_the_case_table_in_order(self, monkeypatch):
        # The table's ids and suites with instant checks: only the order is tested.
        instant = tuple((case_id, suite, name, budget, lambda: "")
                        for case_id, suite, name, budget, _ in verifysuite.CASES)
        monkeypatch.setattr(verifysuite, "CASES", instant)
        ids = {suite: [r.case_id for r in run_suite(suite)] for suite in SUITES}
        assert ids == {
            "all": ["C1", "C2", "C3", "C4", "C5", "C9", "C6", "C10", "C7", "C7S", "C11"],
            "gadget": ["C1", "C2", "C3"],
            "solver": ["C4", "C5", "C9"],
            "reduction": ["C6", "C10", "C7", "C7S", "C11"],
        }
        with pytest.raises(ValueError, match="unknown suite 'bogus'"):
            run_suite("bogus")

    def test_suite_choices_are_the_table_suites(self):
        (commands,) = [a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)]
        (suite,) = [a for a in commands.choices["verify"]._actions if a.dest == "suite"]
        assert tuple(suite.choices) == SUITES

    def test_single_case_options_are_usage_errors(self):
        # `verify` runs named suites only; `verify_rigidity(n, delta, k,
        # extra_columns)` is the ad-hoc rigidity check.
        assert main(["verify", "--suite", "gadget", "--n", "5", "--delta", "1"]) == 3

    def test_seed_is_not_an_option(self):
        assert main(["verify", "--suite", "solver", "--seed", "7"]) == 3


class TestUsage:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 3

    def test_removed_search_flags_are_usage_errors(self, triple):
        for flag in (["--threads", "2"], ["--no-symmetry"], ["--heuristic", "input"]):
            assert main(["solve", "--matrix", str(triple), "--k", "2", "--delta", "1",
                         *flag]) == 3
        assert main(["verify", "--suite", "gadget", "--timeout", "5"]) == 3

    def test_bad_bound_value(self, triple):
        # Bounds and integer options take an optional '-' and ASCII digits only.
        base = ["solve", "--matrix", str(triple), "--delta", "0"]
        for value in ("zero", "+1", "1_0", "\u0662", " 2"):
            assert main([*base, "--k", value]) == 3
            assert main([*base, "--k", "2", "--nodes", value]) == 3
            assert main(["gadget", "--n", value, "--delta", "0"]) == 3
        assert main([*base, "--k", "2", "--nodes", "0010"]) == 1  # leading zeros are fine

    def test_malformed_matrix_file(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2\n3\n")
        assert main(["solve", "--matrix", str(bad), "--k", "1", "--delta", "0"]) == 3

    def test_dense_matrix_file_is_rejected(self, tmp_path, capsys):
        # Read as sparse, these rows would be {11} and {1}, not {11,12} and {12}.
        dense = tmp_path / "dense.txt"
        dense.write_text("2 12\n000000000011\n000000000001\n")
        assert main(["solve", "--matrix", str(dense), "--k", "1", "--delta", "0"]) == 3
        assert "leading zero" in capsys.readouterr().err

    def test_option_sets_are_pinned(self):
        # Every option changes a result; adding one back is a deliberate change here.
        parser = build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        actions = [a for sub in commands.choices.values() for a in sub._actions
                   if not isinstance(a, argparse._HelpAction)]
        assert len(actions) == 21  # -o and --output are one option
        options = {
            name: {s for a in sub._actions if not isinstance(a, argparse._HelpAction)
                   for s in a.option_strings}
            for name, sub in commands.choices.items()
        }
        assert options == {
            "check": {"--matrix", "--order", "--k", "--delta", "--json"},
            "solve": {"--matrix", "--k", "--delta", "--timeout", "--nodes", "--json"},
            "gadget": {"--n", "--delta", "-o", "--output"},
            "reduce": {"--cnf", "--k", "--delta", "--legend", "-o", "--output"},
            "verify": {"--suite", "--json"},
        }
