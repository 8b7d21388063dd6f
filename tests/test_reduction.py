import hashlib
import itertools
import random
import re

import pytest

from gapc1p import (
    EXHAUSTED,
    SATISFIED,
    Cnf,
    ColumnOrdering,
    ConstructionError,
    DimacsFormatError,
    GapSpec,
    build_gadget,
    check_ordering,
    parse_dimacs,
    reduce_formula,
    satisfying_assignments,
    serialize_matrix,
    to_exact3,
    verify_reduction,
    witness_from_assignment,
    decide,
)
from gapc1p import reduction
from gapc1p.reduction import (
    ROLE_CLAUSE, ROLE_SEPARATOR, ROLE_VARIABLE, formula_value, reduce_theorem2, reduce_theorem3,
)

ONE_VAR_CLAUSES = [(1, 1, 1), (1, 1, -1), (1, -1, -1), (-1, -1, -1)]
# The 45 satisfiable formulas of the R9 sweep (see small_formulas) whose
# Theorem-2 matrices at (2,2) are unsatisfiable: the residual of REPAIRS.md R9.
# Literals sort as 1, -1, 2, -2.
R9_LOST = {
    ((1, 1, 1), (1, -1, -1)), ((1, 1, -1), (1, -1, -1)), ((1, 1, -1), (-1, -1, -1)),
    ((1, 1, 1), (-1, -1, 2)), ((1, 1, 1), (-1, -1, -2)), ((1, 1, 1), (-1, 2, -2)),
    ((1, 1, -1), (-1, -1, 2)), ((1, 1, -1), (-1, -1, -2)), ((1, 1, -1), (-1, 2, -2)),
    ((1, 1, 2), (1, -1, -1)), ((1, 1, 2), (-1, -1, -1)), ((1, 1, 2), (-1, -1, 2)),
    ((1, 1, 2), (-1, -1, -2)), ((1, 1, 2), (-1, 2, -2)), ((1, 1, -2), (1, -1, -1)),
    ((1, 1, -2), (-1, -1, -1)), ((1, 1, -2), (-1, -1, 2)), ((1, 1, -2), (-1, -1, -2)),
    ((1, 1, -2), (-1, 2, -2)), ((1, -1, -1), (1, 2, -2)), ((1, -1, 2), (1, -1, -2)),
    ((1, -1, 2), (1, -2, -2)), ((1, -1, 2), (-1, -2, -2)), ((1, -1, 2), (2, -2, -2)),
    ((1, -1, 2), (-2, -2, -2)), ((1, -1, -2), (1, 2, 2)), ((1, -1, -2), (-1, 2, 2)),
    ((1, -1, -2), (2, 2, 2)), ((1, -1, -2), (2, 2, -2)), ((1, 2, 2), (1, -2, -2)),
    ((1, 2, 2), (-1, -2, -2)), ((1, 2, 2), (2, -2, -2)), ((1, 2, 2), (-2, -2, -2)),
    ((1, 2, -2), (-1, -1, -1)), ((1, 2, -2), (-1, -1, 2)), ((1, 2, -2), (-1, -1, -2)),
    ((1, 2, -2), (-1, 2, -2)), ((1, -2, -2), (-1, 2, 2)), ((1, -2, -2), (2, 2, 2)),
    ((1, -2, -2), (2, 2, -2)), ((-1, 2, 2), (-1, -2, -2)), ((-1, 2, 2), (2, -2, -2)),
    ((-1, 2, 2), (-2, -2, -2)), ((-1, -2, -2), (2, 2, 2)), ((-1, -2, -2), (2, 2, -2)),
}


def cnf_over(num_vars, *clauses):
    return Cnf(num_vars, tuple(tuple(c) for c in clauses))


def small_formulas():
    """Every exact-3 formula of 1-2 clauses over 1-2 variables, each variable used.

    Clauses are multisets of literals and formulas multisets of clauses: 216 formulas.
    """
    for n in (1, 2):
        lits = [lit for v in range(1, n + 1) for lit in (v, -v)]
        clauses = list(itertools.combinations_with_replacement(lits, 3))
        for count in (1, 2):
            for f in itertools.combinations_with_replacement(clauses, count):
                if {abs(lit) for c in f for lit in c} == set(range(1, n + 1)):
                    yield Cnf(n, f)


# sha256 of every instance and refusal of reduce_formula over the sweep below.
# It pins the generated rows and layouts: a change to the construction must
# re-pin it on purpose.
SWEEP_DIGEST = "60c3e270f1797bbc413f0fc8de782221cb71956d07d42e53a207ac6ae7d232d3"
SWEEP_BOUNDS = (None, 0, 1, 2, 3, 4, 5, 6)


def sweep_formulas():
    """40 formulas: two empty ones and 38 seeded ones of 1-4 clauses, 1-5 literals each."""
    rng = random.Random(1831)
    yield Cnf(0, ())
    yield Cnf(2, ())
    for _ in range(38):
        n = rng.randint(1, 4)
        yield Cnf(n, tuple(
            tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(1, 5)))
            for _ in range(rng.randint(1, 4))
        ))


def sweep_digest():
    """Hash each instance over the sweep, or its refusal message, at k, delta in SWEEP_BOUNDS."""
    digest = hashlib.sha256()
    for cnf in sweep_formulas():
        for k in SWEEP_BOUNDS:
            if k == 0:
                continue
            for delta in SWEEP_BOUNDS[:-1]:
                try:
                    out = reduce_formula(cnf, GapSpec(k, delta))
                except ValueError as exc:
                    digest.update(f"{type(exc).__name__}: {exc}\n".encode())
                    continue
                legend = sorted((c, r.kind, r.index, r.slot) for c, r in out.legend.items())
                digest.update(serialize_matrix(out.matrix).encode())
                digest.update(repr((legend, out.params, out.clause_blocks,
                                    out.first_literal_row, out.cnf)).encode())
    return digest.hexdigest()

# sha256 of witness_from_assignment over the sweep below: each forward map or
# ConstructionError message.  It was computed with the per-block permutation
# search that the layout rule replaced, so it pins the rule to the
# arrangements that search found.
WITNESS_DIGEST = "8e887f7d7c1e621d2e1a278d9652123189d9ec67e42b4bd54ea6690422c81218"
WITNESS_SPECS = ((3, 1), (5, 1), (2, 2), (3, 2), (2, 4))


def witness_formulas():
    """24 seeded formulas of 1-3 clauses over 1-3 variables, 1-5 literals each."""
    rng = random.Random(4242)
    for _ in range(24):
        n = rng.randint(1, 3)
        yield Cnf(n, tuple(
            tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(1, 5)))
            for _ in range(rng.randint(1, 3))
        ))


def most_falsified(cnf, assignment):
    """The largest number of falsified literals in one clause of ``cnf``."""
    return max(sum(assignment[abs(lit)] != (lit > 0) for lit in clause) for clause in cnf.clauses)


class TestDimacs:
    def test_single_repeated_literal(self):
        cnf = parse_dimacs("p cnf 1 1\n1 1 1 0\n")
        assert cnf == cnf_over(1, (1, 1, 1))

    def test_two_clauses_as_written(self):
        cnf = parse_dimacs("p cnf 2 2\n1 -2 2 0\n-1 -1 -1 0\n")
        assert cnf.clauses == ((1, -2, 2), (-1, -1, -1))

    def test_variable_out_of_range(self):
        with pytest.raises(DimacsFormatError, match="out of range"):
            parse_dimacs("p cnf 1 1\n2 0\n")

    def test_comments_and_multiline_clauses(self):
        cnf = parse_dimacs("c a comment\np cnf 3 2\n1 2\n3 0\n-1 -2 -3 0\n")
        assert cnf.clauses == ((1, 2, 3), (-1, -2, -3))

    def test_header_count_mismatch(self):
        with pytest.raises(DimacsFormatError, match="announces"):
            parse_dimacs("p cnf 1 2\n1 0\n")

    def test_zero_length_clause(self):
        with pytest.raises(DimacsFormatError, match="zero-length"):
            parse_dimacs("p cnf 1 2\n1 0 0\n")

    def test_missing_terminator(self):
        with pytest.raises(DimacsFormatError, match="terminating"):
            parse_dimacs("p cnf 1 1\n1 1\n")

    def test_numbers_are_plain_decimal(self):
        # int() would read "1_0" as 10 and "+2" as 2.
        for line in ("p cnf 1_0 1", "p cnf +1 1", "p cnf 1 \u0661"):
            with pytest.raises(DimacsFormatError, match="malformed problem line"):
                parse_dimacs(f"{line}\n1 1 1 0\n")
        for clause, token in (("1_0 +2 -3 0", "1_0"), ("1 +2 -3 0", "+2"), ("1 2 3 0_0", "0_0")):
            with pytest.raises(DimacsFormatError, match=re.escape(f"bad literal '{token}'")):
                parse_dimacs(f"p cnf 10 1\n{clause}\n")


class TestToExact3:
    def test_pads_unit_clause(self):
        assert to_exact3(cnf_over(1, (1,))).clauses == ((1, 1, 1),)

    def test_pads_two_literal_clause(self):
        assert to_exact3(cnf_over(2, (1, -2))).clauses == ((1, 1, -2),)

    def test_splits_four_literal_clause(self):
        out = to_exact3(cnf_over(4, (1, 2, 3, 4)))
        assert out.num_vars == 5
        assert out.clauses == ((1, 2, 5), (-5, 3, 4))

    def test_equisatisfiable_by_enumeration(self):
        rng = random.Random(77)
        for _ in range(40):
            n = rng.randint(1, 4)
            clauses = []
            for _ in range(rng.randint(1, 3)):
                width = rng.randint(1, 5)
                clauses.append(tuple(
                    rng.choice((1, -1)) * rng.randint(1, n) for _ in range(width)
                ))
            cnf = Cnf(n, tuple(clauses))
            out = to_exact3(cnf)
            assert all(len(c) == 3 for c in out.clauses)
            sat_in = next(satisfying_assignments(cnf), None) is not None
            assert sat_in == (next(satisfying_assignments(out), None) is not None)


class TestSatOracle:
    def test_forced_true(self):
        assert next(satisfying_assignments(cnf_over(1, (1, 1, 1))), None) == {1: True}

    def test_contradiction(self):
        assert next(satisfying_assignments(cnf_over(1, (1, 1, 1), (-1, -1, -1))), None) is None

    def test_empty_formula_vacuous(self):
        assert next(satisfying_assignments(Cnf(2, ())), None) == {1: False, 2: False}

    def test_cap(self):
        with pytest.raises(ValueError):
            next(satisfying_assignments(Cnf(21, ((1, 2, 3),))), None)


class TestTheorem3Shape:
    def test_single_variable_single_clause_counts(self):
        out = reduce_formula(cnf_over(1, (1, 1, 1)), GapSpec(3, 1))
        assert out.params.d == 6
        assert out.matrix.num_columns == 12
        assert out.matrix.num_rows == 14  # gadget 9 + variable 1 + nesting 1 + literal 3

    def test_two_by_two_counts(self):
        out = reduce_formula(cnf_over(2, (1, 2, 2), (-1, -2, -2)), GapSpec(3, 1))
        assert out.matrix.num_columns == 18
        assert out.matrix.num_rows == 19

    def test_k_below_three_rejected(self):
        with pytest.raises(ValueError, match="open case"):
            reduce_formula(cnf_over(1, (1, 1, 1)), GapSpec(2, 1))

    def test_size_formulas_across_range(self):
        for n in range(1, 5):
            for m in range(1, 5):
                clauses = tuple(
                    ((j % n) + 1, -(((j + 1) % n) + 1), (j % n) + 1) for j in range(m)
                )
                for k in (3, 4):
                    out = reduce_formula(Cnf(n, clauses), GapSpec(k, 1))
                    d = max(2 * k, 5)
                    assert out.matrix.num_columns == 2 * n + d + 4 * m
                    assert out.matrix.num_rows == n + 4 * m + 2 * d - 3

    def test_legend_partitions_columns(self):
        out = reduce_formula(cnf_over(2, (1, 2, 2), (-1, -2, -2)), GapSpec(3, 1))
        legend = out.legend
        assert sorted(legend) == list(range(1, out.matrix.num_columns + 1))
        n, d = out.params.num_vars, out.params.d
        for col, role in legend.items():
            if col <= 2 * n:
                assert role.kind == ROLE_VARIABLE
            elif col <= 2 * n + d:
                assert role.kind == ROLE_SEPARATOR
            else:
                assert role.kind == ROLE_CLAUSE

    def test_separator_carries_full_gadget(self):
        out = reduce_formula(cnf_over(1, (1, 1, 1)), GapSpec(3, 1))
        sep = tuple(out.separator_column(t) for t in range(1, out.params.d + 1))
        expected = set(build_gadget(sep, 1))
        assert expected <= set(out.matrix.rows)


class TestTheorem2Shape:
    def test_repaired_counts(self):
        out = reduce_formula(cnf_over(1, (1, 1, 1)), GapSpec(2, 2))
        assert out.params.d == 7  # max(2k, 2*delta+3)
        assert out.matrix.num_columns == 14
        assert out.matrix.num_rows == 20

    def test_every_separator_meets_the_rigidity_hypothesis(self):
        # build_gadget checks d >= 2*delta+3 for each instance.
        f = cnf_over(1, (1, 1, 1))
        for k in range(2, 9):
            for delta in range(2, 9):
                assert reduce_formula(f, GapSpec(k, delta)).params.d == max(2 * k, 2 * delta + 3)
            if k >= 3:
                assert reduce_formula(f, GapSpec(k, 1)).params.d == max(2 * k, 5)

    def test_delta_one_belongs_to_other_family(self):
        f = cnf_over(1, (1, 1, 1))
        for k, delta in ((3, 1), (4, 1), (2, 2), (3, 2), (2, 3)):
            out = reduce_formula(f, GapSpec(k, delta))
            theorem, width = (3, 4) if delta == 1 else (2, 5)
            assert out.params.theorem == theorem
            assert [len(block) for block in out.clause_blocks] == [width]

    def test_clause_blocks_disjoint_and_five_wide(self):
        out = reduce_formula(cnf_over(1, (1, 1, 1), (1, 1, 1)), GapSpec(2, 2))
        b1, b2 = out.clause_blocks
        assert len(b1) == len(b2) == 5
        assert not set(b1) & set(b2)
        assert max(b2) == out.matrix.num_columns
        # Three literal rows per clause close the row list.
        assert out.matrix.num_rows == out.first_literal_row + 3 * 2
        assert all(b2[0] in row for row in out.matrix.rows[out.first_literal_row + 3:])


class TestReduceFormula:
    def test_the_spec_picks_the_family(self):
        phi = cnf_over(1, (1, -1))  # normalized to exactly three literals
        for k, delta in ((3, 1), (4, 1), (2, 2), (3, 2), (2, 3)):
            out = reduce_formula(phi, GapSpec(k, delta))
            assert out == reduce_formula(to_exact3(phi), GapSpec(k, delta))
            assert out.cnf.clauses == ((1, 1, -1),)

    def test_benchmark_entry_points_equal_reduce_formula(self):
        refute = Cnf(1, ((1, 1, 1), (-1, -1, -1)))
        for k in range(3, 9):
            assert reduce_theorem3(refute, k) == reduce_formula(refute, GapSpec(k, 1))
        assert reduce_theorem2(refute, 3, 3) == reduce_formula(refute, GapSpec(3, 3))
        # Infinite bounds are refused with the spec's message, not a TypeError.
        with pytest.raises(ValueError, match="finite k and delta"):
            reduce_theorem3(refute, None)
        with pytest.raises(ValueError, match="finite k and delta"):
            reduce_theorem2(refute, 2, None)

    def test_negative_variable_count_rejected(self):
        with pytest.raises(ValueError, match="num_vars must be >= 0, got -1"):
            Cnf(-1, ())

    def test_specs_without_a_family_are_rejected(self):
        phi = cnf_over(1, (1, 1, 1))
        with pytest.raises(ValueError, match=r"\(2,1\) is the paper's open case"):
            reduce_formula(phi, GapSpec(2, 1))
        for k, delta in ((1, 2), (3, 0), (None, 0), (1, None)):
            with pytest.raises(ValueError, match="classical C1P, polynomial, no hardness family"):
                reduce_formula(phi, GapSpec(k, delta))
        for k, delta in ((None, 1), (3, None)):
            with pytest.raises(ValueError, match="finite k and delta"):
                reduce_formula(phi, GapSpec(k, delta))
        # The old (cnf, theorem, k) form must not build a (3,3) instance.
        with pytest.raises(TypeError):
            verify_reduction(phi, 3, 3)

    def test_instances_match_the_pinned_digest(self):
        assert sweep_digest() == SWEEP_DIGEST


class TestWitness:
    def test_theorem3_witness_validates(self):
        out = reduce_formula(cnf_over(1, (1, 1, 1)), GapSpec(3, 1))
        witness = witness_from_assignment(out, {1: True})
        assert check_ordering(out.matrix, witness, GapSpec(3, 1)).ok

    def test_assignment_missing_a_variable_rejected(self):
        out = reduce_formula(Cnf(3, ((1, 1, 1),)), GapSpec(3, 1))
        with pytest.raises(ValueError, match="no value for variable 2"):
            witness_from_assignment(out, {1: True})

    def test_unsatisfying_assignment_rejected(self):
        out = reduce_formula(cnf_over(1, (1, 1, 1)), GapSpec(3, 1))
        with pytest.raises(ValueError, match="does not satisfy"):
            witness_from_assignment(out, {1: False})

    def test_witness_reversal_also_valid(self):
        out = reduce_formula(cnf_over(1, (1, 1, 1)), GapSpec(3, 1))
        witness = witness_from_assignment(out, {1: True})
        assert check_ordering(out.matrix, witness.reverse(), GapSpec(3, 1)).ok

    def test_theorem2_witness_validates(self):
        out = reduce_formula(cnf_over(1, (-1, -1, -1)), GapSpec(2, 2))
        witness = witness_from_assignment(out, {1: False})
        assert check_ordering(out.matrix, witness, GapSpec(2, 2)).ok

    def test_witnesses_match_the_pinned_digest(self):
        # Up to three seeded satisfying assignments per instance.  The gapped
        # family refuses exactly when a clause has two falsified literals
        # (REPAIRS.md R9); the block-count family never refuses.
        rng = random.Random(99)
        digest = hashlib.sha256()
        for cnf in witness_formulas():
            for k, delta in WITNESS_SPECS:
                out = reduce_formula(cnf, GapSpec(k, delta))
                assignments = list(satisfying_assignments(out.cnf))
                for assignment in rng.sample(assignments, min(3, len(assignments))):
                    two_falsified = most_falsified(out.cnf, assignment) >= 2
                    try:
                        witness = witness_from_assignment(out, assignment)
                    except ConstructionError as exc:
                        assert delta >= 2 and two_falsified, (cnf, k, delta, assignment)
                        digest.update(f"{exc}\n".encode())
                    else:
                        assert delta == 1 or not two_falsified, (cnf, k, delta, assignment)
                        digest.update(repr(witness.forward).encode())
        assert digest.hexdigest() == WITNESS_DIGEST

    def test_negative_literal_orientation_penalty(self):
        # With the satisfying orientation flipped, some clause row must break.
        out = reduce_formula(cnf_over(1, (1, 1, 1)), GapSpec(3, 1))
        good = witness_from_assignment(out, {1: True})
        flipped = list(good.forward)
        p1, p2 = flipped.index(1), flipped.index(2)
        flipped[p1], flipped[p2] = flipped[p2], flipped[p1]
        assert not check_ordering(out.matrix, ColumnOrdering(tuple(flipped)), GapSpec(3, 1)).ok


def separator_reversed(output, ordering):
    first = output.separator_column(1)
    last = output.separator_column(output.params.d)
    return ordering.inverse[first - 1] > ordering.inverse[last - 1]


def first_three_positions(output, ordering, j, reverse):
    positions = sorted(ordering.inverse[c - 1] for c in output.clause_blocks[j - 1])
    return set(positions[-3:]) if reverse else set(positions[:3])


class TestForcedGapMechanism:
    def test_falsified_rows_pin_targets_to_block_head(self):
        # Any witness orients variable blocks; rows of falsified literals
        # must keep their two clause-block targets among the head columns.
        phi = cnf_over(1, (1, 1, -1))
        out = reduce_formula(phi, GapSpec(3, 1))
        outcome = decide(out.matrix, GapSpec(3, 1))
        assert outcome.status == SATISFIED
        ordering = outcome.witness
        rev = separator_reversed(out, ordering)
        inv = ordering.inverse
        for i in range(1, out.params.num_vars + 1):
            left_first = inv[2 * i - 2] < inv[2 * i - 1]
            value = left_first != rev
            for j, clause in enumerate(out.cnf.clauses, start=1):
                head = first_three_positions(out, ordering, j, rev)
                for slot, lit in enumerate(clause, start=2):
                    if abs(lit) != i:
                        continue
                    falsified = value != (lit > 0)
                    if falsified:
                        block = out.clause_blocks[j - 1]
                        assert inv[block[0] - 1] in head
                        assert inv[block[slot - 1] - 1] in head


class TestEquivalence:
    def test_theorem3_criterion_instances(self):
        rep = verify_reduction(cnf_over(1, (1, 1, 1)), GapSpec(3, 1))
        assert rep.agree and rep.formula_satisfiable
        rep2 = verify_reduction(cnf_over(1, (1, 1, 1), (-1, -1, -1)), GapSpec(3, 1))
        assert rep2.agree and not rep2.formula_satisfiable
        assert rep2.outcome.status == EXHAUSTED

    def test_theorem3_one_variable_corpus(self):
        formulas = [Cnf(1, (c,)) for c in ONE_VAR_CLAUSES]
        formulas += [
            Cnf(1, (a, b))
            for a, b in itertools.combinations_with_replacement(ONE_VAR_CLAUSES, 2)
        ]
        assert len(formulas) == 14
        for f in formulas:
            rep = verify_reduction(f, GapSpec(3, 1))
            assert rep.agree, f

    def test_theorem3_two_variable_samples(self):
        rng = random.Random(5150)
        lits = [1, -1, 2, -2]
        seen = 0
        while seen < 8:
            m = rng.randint(1, 2)
            f = Cnf(2, tuple(
                tuple(rng.choice(lits) for _ in range(3)) for _ in range(m)
            ))
            rep = verify_reduction(f, GapSpec(3, 1))
            assert rep.agree, f
            seen += 1

    def test_theorem2_repaired_criterion_instance(self):
        rep = verify_reduction(cnf_over(1, (1, 1, 1)), GapSpec(2, 2))
        assert rep.agree and rep.formula_satisfiable
        assert rep.outcome.status == SATISFIED

    def test_theorem2_uniform_truth_corpus(self):
        # Clauses whose occurrences share one literal exercise both sides of
        # the gapped family's game without its documented k=2 limitation.
        for f in (cnf_over(1, (1, 1, 1)), cnf_over(1, (-1, -1, -1)),
                  cnf_over(1, (1, 1, 1), (1, 1, 1))):
            rep = verify_reduction(f, GapSpec(2, 2))
            assert rep.agree and rep.formula_satisfiable, f

    def test_theorem2_k3_mixed_clause(self):
        rep = verify_reduction(cnf_over(1, (1, 1, -1)), GapSpec(3, 2))
        assert rep.agree and rep.formula_satisfiable

    def test_formula_over_the_cap_is_refused_before_the_search(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("decide ran before the SAT oracle")

        monkeypatch.setattr(reduction, "decide", no_search)
        cnf = Cnf(21, tuple((v, -(v % 21 + 1), v) for v in range(1, 22)))
        with pytest.raises(ValueError, match="21 variables exceeds the cap of 20"):
            verify_reduction(cnf, GapSpec(2, 3))

    def test_r9_sweep_of_small_formulas(self):
        # Theorem 3 at k=3 agrees on all 216; Theorem 2 at (2,2) is sound for
        # unsatisfiable formulas and loses exactly the R9_LOST satisfiable ones.
        formulas = list(small_formulas())
        assert len(formulas) == 216
        lost = set()
        for f in formulas:
            satisfiable = next(satisfying_assignments(f), None) is not None
            t3 = decide(reduce_formula(f, GapSpec(3, 1)).matrix, GapSpec(3, 1))
            assert (t3.status == SATISFIED) == satisfiable, f
            t2 = decide(reduce_formula(f, GapSpec(2, 2)).matrix, GapSpec(2, 2))
            if not satisfiable:
                assert t2.status == EXHAUSTED, f
            elif t2.status == EXHAUSTED:
                lost.add(f.clauses)
        assert lost == R9_LOST
        assert ((1, 1, 1), (1, -1, -1)) in lost


class TestFormulaValue:
    def test_value_matches_oracle(self):
        rng = random.Random(6)
        for _ in range(30):
            n = rng.randint(1, 3)
            f = Cnf(n, tuple(
                tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(3))
                for _ in range(rng.randint(1, 3))
            ))
            assignment = next(satisfying_assignments(f), None)
            if assignment is not None:
                assert formula_value(f, assignment)
