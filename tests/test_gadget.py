import itertools
import math

import pytest

from gapc1p import (
    BinaryMatrix,
    ColumnOrdering,
    GapSpec,
    brute_force,
    build_gadget,
    check_ordering,
    gadget_row_count,
    verify_rigidity,
)


def pair_count(n, delta):
    return sum(1 for i in range(1, n + 1) for j in range(i + 1, n + 1) if j - i <= delta + 1)


class TestRowCount:
    def test_known_values(self):
        assert gadget_row_count(5, 1) == 7
        assert gadget_row_count(7, 2) == 15

    def test_delta_one_closed_form(self):
        for d in range(5, 20):
            assert gadget_row_count(d, 1) == 2 * d - 3

    def test_identity_against_pair_enumeration(self):
        for delta in (0, 1, 2, 3):
            for n in range(2 * delta + 3, 15):
                assert gadget_row_count(n, delta) == pair_count(n, delta)

    def test_hypothesis_enforced_unless_forced(self):
        # Nothing forces an undersized gadget: the closed form holds only
        # for n >= 2*delta + 3 and rejects every smaller n.
        for delta in range(9):
            n = 2 * delta + 3
            assert gadget_row_count(n, delta) == pair_count(n, delta)
            with pytest.raises(ValueError, match="rigidity hypothesis"):
                gadget_row_count(n - 1, delta)


class TestBuild:
    def test_delta_one_on_five_columns(self):
        rows = build_gadget((1, 2, 3, 4, 5), 1)
        assert set(rows) == {(1, 2), (2, 3), (3, 4), (4, 5), (1, 3), (2, 4), (3, 5)}
        assert len(rows) == gadget_row_count(5, 1)

    def test_small_n_rejected_without_force(self):
        # The builder shares the closed form's rule, n >= 2*delta + 3, and
        # has no option to bypass it.
        for delta in range(9):
            n = 2 * delta + 3
            assert len(build_gadget(range(1, n + 1), delta)) == gadget_row_count(n, delta)
            with pytest.raises(ValueError, match="rigidity hypothesis"):
                build_gadget(range(1, n), delta)

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_gadget((1, 2, 3, 2, 5), 1)
        with pytest.raises(ValueError, match="nonnegative"):
            build_gadget((1, 2, 3, 4, 5), -1)

    def test_rows_generated_from_target_positions(self):
        # Identifiers are arbitrary; distances are measured along the target.
        rows = build_gadget((9, 2, 7, 5, 4), 1)
        assert (2, 9) in rows  # positions 1 and 2
        assert (7, 9) in rows  # positions 1 and 3
        assert (4, 9) not in rows  # positions 1 and 5: distance 4 > 2

    def test_every_row_has_two_ones_inside_target(self):
        for delta in (1, 2):
            target = tuple(range(1, 2 * delta + 4))
            for row in build_gadget(target, delta):
                assert len(row) == 2
                assert set(row) <= set(target)

    def test_row_count_identity_full_range(self):
        for delta in (1, 2, 3):
            for n in range(2 * delta + 3, 15):
                rows = build_gadget(range(1, n + 1), delta)
                assert len(rows) == gadget_row_count(n, delta) == pair_count(n, delta)

    def test_delta_zero_is_adjacency_path(self):
        rows = build_gadget((1, 2, 3, 4), 0)
        assert set(rows) == {(1, 2), (2, 3), (3, 4)}
        report = brute_force(BinaryMatrix(4, rows), GapSpec(1, 0))
        assert report.valid_count == 2


class TestRigidity:
    def test_base_case_boundaries(self):
        for n, delta, k in ((5, 1, 2), (7, 2, 2)):
            report = verify_rigidity(n, delta, k)
            assert report.rigid
            assert report.valid_count == 2
            assert report.counterexample is None

    def test_sweep_small_sizes(self):
        for delta in (1, 2):
            for n in range(2 * delta + 3, 9):
                for k in (2, 3):
                    report = verify_rigidity(n, delta, k)
                    assert report.rigid, (n, delta, k)
                    assert report.valid_count == 2, (n, delta, k)

    def test_embedded_with_free_columns(self):
        for extra in (1, 2):
            report = verify_rigidity(5, 1, 2, extra_columns=extra)
            assert report.rigid
            assert report.valid_count > 2  # free columns multiply the count

    @pytest.mark.parametrize("n, delta, k, extra", [
        (5, 1, 2, 5), (6, 1, 2, 3), (8, 2, 3, 2), (10, 1, 2, 0)])
    def test_rigid_at_the_enumeration_cap(self, n, delta, k, extra):
        # The gadget moves as one block, in either orientation, among the
        # free columns: 2 * (extra + 1)! valid orderings.
        report = verify_rigidity(n, delta, k, extra_columns=extra)
        assert report.rigid and report.counterexample is None
        assert report.valid_count == 2 * math.factorial(extra + 1)

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            verify_rigidity(9, 1, 2, extra_columns=2)

    def test_negative_extra_columns_rejected(self):
        with pytest.raises(ValueError, match="extra_columns"):
            verify_rigidity(5, 1, 2, extra_columns=-1)

    @pytest.mark.parametrize("n, delta, k, extra", [
        (4, 1, 2, 0), (4, 1, 2, 1), (4, 1, 2, 2), (5, 2, 2, 0), (5, 2, 2, 1)])
    def test_counterexample_is_the_first_non_rigid_ordering(self, n, delta, k, extra):
        # The definition: filter every permutation by the row check, then
        # take the first valid one whose gadget columns are not in place.
        rows = [(a, b) for a in range(1, n + 1) for b in range(a + 1, min(a + delta + 2, n + 1))]
        m = BinaryMatrix(n + extra, tuple(rows))
        spec = GapSpec(k, delta)
        valid = [f for f in itertools.permutations(range(1, n + extra + 1))
                 if check_ordering(m, ColumnOrdering(f), spec).ok]
        target = tuple(range(1, n + 1))

        def in_place(f):
            start = min(f.index(1), f.index(n))
            return f[start:start + n] in (target, target[::-1])

        report = verify_rigidity(n, delta, k, extra_columns=extra)
        assert report.valid_count == len(valid)
        assert not report.rigid
        assert report.counterexample.forward == next(f for f in valid if not in_place(f))

    def test_single_block_is_refused(self):
        with pytest.raises(ValueError, match="k >= 2"):
            verify_rigidity(5, 1, 1)

    def test_undersized_gadget_is_reported_not_hidden(self):
        # Below the hypothesis the construction may lose rigidity; the
        # report carries the verdict either way.
        report = verify_rigidity(4, 1, 2)
        assert report.valid_count >= 2
        if not report.rigid:
            assert report.counterexample is not None
