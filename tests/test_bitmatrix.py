import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapc1p import (
    GAP_TOO_LARGE,
    TOO_MANY_BLOCKS,
    BinaryMatrix,
    ColumnOrdering,
    GapSpec,
    MatrixFormatError,
    check_ordering,
    parse_matrix,
    parse_ordering,
    profile_row,
    serialize_matrix,
    serialize_ordering,
)
from gapc1p.bitmatrix import first_violating_row, valid_forward_maps


def random_matrix(rng, max_cols=6, max_rows=6, density=0.4):
    n = rng.randint(1, max_cols)
    rows = tuple(
        tuple(c for c in range(1, n + 1) if rng.random() < density)
        for _ in range(rng.randint(0, max_rows))
    )
    return BinaryMatrix(n, rows)


def random_ordering(rng, n):
    forward = list(range(1, n + 1))
    rng.shuffle(forward)
    return ColumnOrdering(tuple(forward))


class TestParsing:
    def test_index_out_of_range(self):
        with pytest.raises(MatrixFormatError, match="exceeds 2"):
            parse_matrix("1 2\n3\n")

    def test_duplicate_index(self):
        with pytest.raises(MatrixFormatError, match="duplicate"):
            parse_matrix("1 3\n2 2\n")

    def test_malformed_header(self):
        # int() would read "1_2" as 12, "+1" as 1 and Arabic-Indic "\u0663" as 3.
        for text in ("3\n", "1 1_2\n1\n", "+1 +3\n1\n", "1 \u0663\n1\n", "1 3.0\n1\n"):
            with pytest.raises(MatrixFormatError, match="line 1: malformed header"):
                parse_matrix(text)

    def test_dense_rejects_other_characters(self):
        # A 0/1 row is not read as indices, whatever its characters.
        with pytest.raises(MatrixFormatError, match="bad index '1x0'"):
            parse_matrix("1 3\n1x0\n")

    def test_error_reports_line_number(self):
        with pytest.raises(MatrixFormatError, match="line 3"):
            parse_matrix("2 2\n1\n7\n")

    def test_sparse_rejects_leading_zeros(self):
        # A 0/1 row read as indices: "0011" is not column 11.  int() would
        # also read "1_0" as 10, "+07" as 7 and Arabic-Indic "١٢" as 12.
        for row, token in (("0011", "0011"), (" 07", "07"), ("1\t010", "010"),
                           ("3 00", "00"), ("0", "0"), ("1_0", "1_0"), ("2 +07", "+07"),
                           ("-3", "-3"), ("\u0661\u0662", "\u0661\u0662")):
            with pytest.raises(MatrixFormatError,
                               match=f"line 2: bad index {re.escape(repr(token))}"):
                parse_matrix(f"1 12\n{row}\n")
            with pytest.raises(MatrixFormatError,
                               match=f"ordering: bad index {re.escape(repr(token))}"):
                parse_ordering(f"{row} 1\n", 2)
        assert parse_matrix("1 12\n10 1 12\n").rows == ((1, 10, 12),)
        assert parse_matrix("1 12\n\t10\u00a01  12 \n").rows == ((1, 10, 12),)

    def test_empty_row_line(self):
        m = parse_matrix("2 2\n\n1 2\n")
        assert m.rows == ((), (1, 2))

    def test_round_trips(self):
        rng = random.Random(7)
        for _ in range(50):
            m = random_matrix(rng)
            assert parse_matrix(serialize_matrix(m)) == m

    def test_serialize_examples(self):
        m = BinaryMatrix(3, ((1, 2), (3,)))
        assert serialize_matrix(m) == "2 3\n1 2\n3\n"
        empty_row = BinaryMatrix(2, ((),))
        assert serialize_matrix(empty_row) == "1 2\n\n"

    def test_ordering_file_round_trip(self):
        o = ColumnOrdering((2, 3, 1))
        assert parse_ordering(serialize_ordering(o), 3) == o
        with pytest.raises(MatrixFormatError):
            parse_ordering("1 2 2", 3)
        with pytest.raises(MatrixFormatError):
            parse_ordering("1 2", 3)


class TestProfile:
    def test_spread_row_identity(self):
        p = profile_row((1, 5, 8), ColumnOrdering.identity(8))
        assert p.block_count == 3
        assert p.gaps == (3, 2)

    def test_all_ones_single_block(self):
        rng = random.Random(1)
        for n in (1, 4, 7):
            p = profile_row(tuple(range(1, n + 1)), random_ordering(rng, n))
            assert p.block_count == 1
            assert p.gaps == ()

    def test_reversal_mirrors_gaps(self):
        p = profile_row((1, 5, 8), ColumnOrdering.identity(8).reverse())
        assert p.block_count == 3
        assert p.gaps == (2, 3)

    def test_empty_row(self):
        p = profile_row((), ColumnOrdering.identity(3))
        assert p.block_count == 0 and p.gaps == ()

    def test_out_of_universe_column(self):
        with pytest.raises(ValueError):
            profile_row((4,), ColumnOrdering.identity(3))

    def test_gap_accounting(self):
        # Block widths plus gaps plus boundary zero runs cover every position.
        rng = random.Random(42)
        for _ in range(200):
            m = random_matrix(rng)
            o = random_ordering(rng, m.num_columns)
            for row in m.rows:
                if not row:
                    continue
                positions = sorted(o.inverse[c - 1] for c in row)
                p = profile_row(row, o)
                widths = len(row)  # total ones == sum of block widths
                leading = positions[0] - 1
                trailing = m.num_columns - positions[-1]
                assert widths + sum(p.gaps) + leading + trailing == m.num_columns


class TestCheck:
    def test_spec_examples(self):
        m = BinaryMatrix(8, ((1, 5, 8),))
        identity = ColumnOrdering.identity(8)
        assert check_ordering(m, identity, GapSpec(3, 3)).ok
        report = check_ordering(m, identity, GapSpec(2, 3))
        assert not report.ok
        assert report.first_violation.row_index == 1
        assert report.first_violation.kind == TOO_MANY_BLOCKS

    def test_gap_violation_kind(self):
        m = BinaryMatrix(8, ((1, 5),))
        report = check_ordering(m, ColumnOrdering.identity(8), GapSpec(2, 2))
        assert not report.ok
        assert report.first_violation.kind == GAP_TOO_LARGE

    def test_contiguous_rows_pass_strict_spec(self):
        m = BinaryMatrix(3, ((1, 2), (2, 3)))
        assert check_ordering(m, ColumnOrdering.identity(3), GapSpec(1, 0)).ok

    def test_lowest_violating_row_reported(self):
        m = BinaryMatrix(3, ((1, 2), (1, 3), (1, 3)))
        report = check_ordering(m, ColumnOrdering.identity(3), GapSpec(1, 0))
        assert report.first_violation.row_index == 2

    def test_universe_mismatch(self):
        m = BinaryMatrix(3, ((1, 2),))
        with pytest.raises(ValueError):
            check_ordering(m, ColumnOrdering.identity(4), GapSpec(1, 0))

    def test_reversal_invariance(self):
        rng = random.Random(11)
        for _ in range(200):
            m = random_matrix(rng)
            o = random_ordering(rng, m.num_columns)
            for spec in (GapSpec(1, 0), GapSpec(2, 1), GapSpec(3, 2), GapSpec(None, 2)):
                assert (
                    check_ordering(m, o, spec).ok
                    == check_ordering(m, o.reverse(), spec).ok
                )

    def test_monotonicity(self):
        rng = random.Random(12)
        wider = [
            (GapSpec(1, 0), GapSpec(2, 0)),
            (GapSpec(1, 0), GapSpec(1, 1)),
            (GapSpec(2, 1), GapSpec(3, 2)),
            (GapSpec(2, 1), GapSpec(None, 1)),
            (GapSpec(2, 1), GapSpec(2, None)),
        ]
        for _ in range(150):
            m = random_matrix(rng)
            o = random_ordering(rng, m.num_columns)
            for tight, loose in wider:
                if check_ordering(m, o, tight).ok:
                    assert check_ordering(m, o, loose).ok

    def test_rows_with_at_most_one_one_always_pass(self):
        rng = random.Random(13)
        for _ in range(50):
            n = rng.randint(1, 6)
            rows = tuple((rng.randint(1, n),) for _ in range(3)) + ((),)
            m = BinaryMatrix(n, rows)
            o = random_ordering(rng, n)
            assert check_ordering(m, o, GapSpec(1, 0)).ok

    def test_delta_zero_collapse(self):
        rng = random.Random(14)
        for _ in range(150):
            m = random_matrix(rng)
            o = random_ordering(rng, m.num_columns)
            base = check_ordering(m, o, GapSpec(1, 0)).ok
            for k in (2, 3, None):
                assert check_ordering(m, o, GapSpec(k, 0)).ok == base


class TestTypes:
    def test_matrix_invariants(self):
        with pytest.raises(ValueError):
            BinaryMatrix(0, ())
        with pytest.raises(ValueError):
            BinaryMatrix(3, ((2, 1),))
        with pytest.raises(ValueError):
            BinaryMatrix(3, ((0, 1),))
        with pytest.raises(ValueError):
            BinaryMatrix.from_rows(3, [(1, 1)])

    def test_ordering_is_bijection(self):
        with pytest.raises(ValueError):
            ColumnOrdering((1, 1, 3))
        o = ColumnOrdering((3, 1, 2))
        assert [o.forward[p - 1] for p in o.inverse] == [1, 2, 3]

    def test_gap_spec_bounds(self):
        with pytest.raises(ValueError):
            GapSpec(0, 1)
        with pytest.raises(ValueError):
            GapSpec(1, -1)
        assert GapSpec(None, None).block_limit(5) == 5
        assert str(GapSpec(2, None)) == "(2,inf)"


@st.composite
def matrices(draw) -> BinaryMatrix:
    n = draw(st.integers(1, 12))
    return BinaryMatrix.from_rows(n, draw(st.lists(st.sets(st.integers(1, n)), max_size=8)))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(matrices())
def test_serialize_parse_round_trip(m):
    assert parse_matrix(serialize_matrix(m)) == m


@st.composite
def matrices_with_orderings(draw) -> tuple[BinaryMatrix, ColumnOrdering]:
    m = draw(matrices())
    return m, ColumnOrdering(tuple(draw(st.permutations(range(1, m.num_columns + 1)))))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(matrices_with_orderings(),
       st.sampled_from((GapSpec(2, 1), GapSpec(3, 2), GapSpec(None, 1), GapSpec(2, None))))
def test_check_ordering_is_reversal_invariant(case, spec):
    m, o = case

    def verdict(ordering):
        v = check_ordering(m, ordering, spec).first_violation
        return None if v is None else (v.row_index, v.kind)

    assert verdict(o) == verdict(o.reverse())


REFERENCE_SPECS = tuple(GapSpec(k, d) for k, d in (
    (1, 0), (2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (3, 0), (1, 3),
    (None, 1), (2, None), (None, None)))


def reference_forward_maps(m, spec):
    """The definition of valid_forward_maps: filter every permutation by the row check."""
    n = m.num_columns
    k_eff, d_eff = spec.block_limit(n), spec.gap_limit(n)

    def pos(forward):
        position = [0] * (n + 1)
        for p, c in enumerate(forward, start=1):
            position[c] = p
        return position

    return [f for f in itertools.permutations(range(1, n + 1))
            if first_violating_row(m.rows, pos(f), k_eff, d_eff) < 0]


def reference_corpus():
    """Seeded (matrix, spec) pairs on 1-8 columns with empty, single-one and duplicate rows.

    Up to 7 columns every matrix meets every spec; each 8-column matrix
    meets one spec, as its reference filters 40,320 permutations.
    """
    rng = random.Random(2009)
    cases = []
    for n in range(1, 9):
        for i in range({7: 2, 8: 4}.get(n, 4)):
            rows = [rng.sample(range(1, n + 1), rng.randint(2, min(n, 4)))
                    for _ in range(rng.randint(1, n) if n > 1 else 0)]
            rows += [[], [rng.randint(1, n)]]
            rows.append(rng.choice(rows))  # a duplicate row
            rng.shuffle(rows)
            m = BinaryMatrix.from_rows(n, rows)
            specs = REFERENCE_SPECS if n < 8 else REFERENCE_SPECS[1 + 3 * i:2 + 3 * i]
            cases.extend((m, spec) for spec in specs)
    return cases


def test_valid_forward_maps_equals_the_permutation_filter():
    for m, spec in reference_corpus():
        assert list(valid_forward_maps(m, spec)) == reference_forward_maps(m, spec), (m, spec)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.integers(1, 6).flatmap(lambda n: st.builds(
           BinaryMatrix.from_rows, st.just(n),
           st.lists(st.sets(st.integers(1, n), max_size=5), max_size=7))),
       st.sampled_from(REFERENCE_SPECS))
def test_valid_forward_maps_equals_the_permutation_filter_on_drawn_matrices(m, spec):
    assert list(valid_forward_maps(m, spec)) == reference_forward_maps(m, spec)
