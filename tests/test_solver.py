import hashlib
import itertools
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapc1p import (
    EXHAUSTED,
    SATISFIED,
    TIMED_OUT,
    BinaryMatrix,
    Cnf,
    ColumnOrdering,
    GapSpec,
    SearchConfig,
    brute_force,
    check_ordering,
    classic_c1p,
    decide,
    reduce_formula,
)
from gapc1p.bitmatrix import valid_forward_maps
from gapc1p.pqtree import consecutive_ordering
from gapc1p import solver
from gapc1p.solver import PRUNE_RULES, WITNESS_CAP, breadth_first_order
from test_bitmatrix import random_matrix

TRIPLE = BinaryMatrix(3, ((1, 2), (2, 3), (1, 3)))
# Every pair of 5 columns: the search exhausts it at (2,1) in 4 nodes.
ALL_PAIRS_5 = BinaryMatrix(5, tuple(itertools.combinations(range(1, 6), 2)))


def path_matrix(n: int) -> BinaryMatrix:
    """Rows {i, i+1}: trivially satisfiable; 1,200 columns exceed the recursion limit."""
    return BinaryMatrix(n, tuple((i, i + 1) for i in range(1, n)))


def planted_matrix(rng: random.Random, n: int, k: int, delta: int) -> BinaryMatrix:
    """n rows over a hidden column order, each of at most k blocks with gaps of at most delta."""
    hidden = rng.sample(range(1, n + 1), n)
    rows = []
    while len(rows) < n:
        row, p = [], rng.randrange(n)
        for _ in range(rng.randint(1, k)):
            length = rng.randint(1, 4)
            row += hidden[p:p + length]
            p += length + rng.randint(1, delta)
            if p >= n:
                break
        if len(row) >= 2:
            rows.append(row)
    return BinaryMatrix.from_rows(n, rows)


def nested_prefixes(count: int) -> list[list[int]]:
    """Rows {1..i+1} for i = 1..count, shuffled: C1P, and nested count deep."""
    rows = [list(range(1, i + 2)) for i in range(1, count + 1)]
    random.Random(0).shuffle(rows)
    return rows


def refute(k: int = 3) -> BinaryMatrix:
    """The Theorem-3 matrix of (x) and (not x): unsatisfiable at (k,1)."""
    return reduce_formula(Cnf(1, ((1, 1, 1), (-1, -1, -1))), GapSpec(k, 1)).matrix


def companion(k: int, delta: int) -> BinaryMatrix:
    """The matrix built from (x) and (not x) at (k,delta), delta >= 2: unsatisfiable.

    At (3,3) it has 21 columns and takes more than a million nodes.
    """
    return reduce_formula(Cnf(1, ((1, 1, 1), (-1, -1, -1))), GapSpec(k, delta)).matrix


def insert_free(m: BinaryMatrix, at: int, count: int) -> BinaryMatrix:
    """m with count free columns at labels at..at+count-1; later labels move up."""
    move = {c: c if c < at else c + count for c in range(1, m.num_columns + 1)}
    return BinaryMatrix.from_rows(m.num_columns + count, [[move[c] for c in row] for row in m.rows])


def covered_matrix(rng: random.Random, n: int) -> BinaryMatrix:
    """Random rows of 2 to 4 ones, plus a 2-one row for each column they miss: no free column."""
    rows = [rng.sample(range(1, n + 1), rng.randint(2, 4))
            for _ in range(rng.randint(n // 2, 3 * n // 2))]
    held = {c for row in rows for c in row}
    for c in range(1, n + 1):
        if c not in held:
            rows.append([c, rng.choice([u for u in range(1, n + 1) if u != c])])
    return BinaryMatrix.from_rows(n, rows)


class TestDecide:
    def test_already_consecutive(self):
        m = BinaryMatrix(3, ((1, 2), (2, 3)))
        out = decide(m, GapSpec(1, 0))
        assert out.status == SATISFIED
        assert check_ordering(m, out.witness, GapSpec(1, 0)).ok

    def test_triple_is_not_c1p(self):
        assert decide(TRIPLE, GapSpec(1, 0)).status == EXHAUSTED

    def test_triple_with_one_gap_allowed(self):
        out = decide(TRIPLE, GapSpec(2, 1))
        assert out.status == SATISFIED

    def test_empty_and_trivial_matrices(self):
        assert decide(BinaryMatrix(4, ()), GapSpec(1, 0)).status == SATISFIED
        assert decide(BinaryMatrix(4, ((), (2,))), GapSpec(1, 0)).status == SATISFIED

    def test_node_limit_reports_timed_out(self):
        out = decide(ALL_PAIRS_5, GapSpec(2, 1), SearchConfig(node_limit=1))
        assert out.status == TIMED_OUT
        assert out.witness is None

    def test_node_limit_counts_only_judged_candidates(self):
        # The unlimited search exhausts in 4 nodes; a limit of N judges and
        # reports N candidates.
        for limit in range(4):
            out = decide(ALL_PAIRS_5, GapSpec(2, 1), SearchConfig(node_limit=limit))
            assert (out.status, out.stats.nodes_expanded) == (TIMED_OUT, limit)
        out = decide(ALL_PAIRS_5, GapSpec(2, 1), SearchConfig(node_limit=4))
        assert (out.status, out.stats.nodes_expanded) == (EXHAUSTED, 4)

    def test_node_limit_inside_a_run_of_rejected_candidates(self):
        # A mask-heavy 200-column search, where most candidates are untouched
        # columns that fail the parent's masks and are counted as a run: every
        # limit stops at exactly that many judged candidates, and one more
        # candidate adds at most one prune, under one rule.
        m = planted_matrix(random.Random(40), 200, 2, 2)
        before = dict.fromkeys(PRUNE_RULES, 0)
        for limit in range(1, 601):
            out = decide(m, GapSpec(2, 2), SearchConfig(node_limit=limit))
            assert (out.status, out.stats.nodes_expanded) == (TIMED_OUT, limit)
            assert sum(abs(out.stats.prunes[rule] - before[rule]) for rule in PRUNE_RULES) <= 1
            before = out.stats.prunes
        assert before["blocks"] + before["deadline"] == 582

    def test_generous_timeout_changes_no_count(self):
        # The clock is read every 1,024 nodes, and a run of rejected candidates
        # that a read falls inside goes one at a time; this search has such
        # runs at 1,024, 2,048 and 3,072 nodes.  A timeout that does not
        # expire changes no status, count or witness under any node limit.
        m = planted_matrix(random.Random(46), 80, 3, 1)
        for limit in [*range(1, 3001, 17), None]:
            a = decide(m, GapSpec(3, 1), SearchConfig(node_limit=limit))
            b = decide(m, GapSpec(3, 1), SearchConfig(timeout_seconds=3600, node_limit=limit))
            assert (a.status, a.stats.nodes_expanded, a.stats.prunes, a.witness) == (
                b.status, b.stats.nodes_expanded, b.stats.prunes, b.witness), limit
        assert (a.status, a.stats.nodes_expanded) == (SATISFIED, 3427)

    def test_timed_out_never_confused_with_exhausted(self):
        out = decide(ALL_PAIRS_5, GapSpec(2, 1), SearchConfig(node_limit=1))
        full = decide(ALL_PAIRS_5, GapSpec(2, 1))
        assert full.status == EXHAUSTED
        assert out.status != full.status

    def test_timeout_reports_timed_out_at_the_first_deadline_check(self):
        # The deadline is read every 1,024 nodes, so a zero timeout stops there.
        out = decide(companion(3, 3), GapSpec(3, 3), SearchConfig(timeout_seconds=0))
        assert out.status == TIMED_OUT
        assert out.witness is None
        assert out.stats.nodes_expanded == 1024
        # Here a run of rejected candidates spans node 1,024, so the check
        # must fall inside it.
        m = planted_matrix(random.Random(40), 200, 2, 2)
        out = decide(m, GapSpec(2, 2), SearchConfig(timeout_seconds=0))
        assert (out.status, out.stats.nodes_expanded) == (TIMED_OUT, 1024)

    def test_every_path_counts_every_prune_rule(self):
        # Classical, no work rows, timed out, exhausted and satisfied.
        cases = [
            (TRIPLE, GapSpec(1, 0), SearchConfig(), EXHAUSTED),
            (BinaryMatrix(4, ((), (2,))), GapSpec(2, 1), SearchConfig(), SATISFIED),
            (ALL_PAIRS_5, GapSpec(2, 1), SearchConfig(node_limit=1), TIMED_OUT),
            (ALL_PAIRS_5, GapSpec(2, 1), SearchConfig(), EXHAUSTED),
            (TRIPLE, GapSpec(2, 1), SearchConfig(), SATISFIED),
        ]
        for m, spec, config, status in cases:
            out = decide(m, spec, config)
            assert out.status == status
            assert tuple(out.stats.prunes) == PRUNE_RULES
        assert decide(TRIPLE, GapSpec(1, 0)).stats.prunes == dict.fromkeys(PRUNE_RULES, 0)

    def test_search_counts_are_pinned(self):
        # A child that breaks both the deadline and the forced rule counts
        # under deadline, which is checked first; forced + deadline is the
        # same 162 and 457 as when forced was checked first.
        out = decide(refute(3), GapSpec(3, 1))
        assert out.status == EXHAUSTED
        assert out.stats.nodes_expanded == 175
        assert out.stats.prunes == {"blocks": 0, "forced": 0, "symmetry": 0, "deadline": 162, "seen": 0}
        out = decide(refute(8), GapSpec(8, 1))
        assert out.status == EXHAUSTED
        assert out.stats.nodes_expanded == 485
        assert out.stats.prunes == {"blocks": 0, "forced": 0, "symmetry": 0, "deadline": 457, "seen": 0}
        assert out.stats.prunes["forced"] + out.stats.prunes["deadline"] == 107 + 350
        full = decide(ALL_PAIRS_5, GapSpec(2, 1))
        assert full.status == EXHAUSTED
        assert full.stats.nodes_expanded == 4
        # An exhausted search judges every candidate of every frame it opens,
        # so its counts do not depend on the order the candidates are tried.
        for k, nodes in zip(range(3, 9), (175, 250, 365, 405, 445, 485)):
            out = decide(refute(k), GapSpec(k, 1))
            assert (out.status, out.stats.nodes_expanded) == (EXHAUSTED, nodes)
        out = decide(companion(2, 3), GapSpec(2, 3))
        assert (out.status, out.stats.nodes_expanded) == (EXHAUSTED, 1310)
        assert out.stats.prunes == {"blocks": 0, "forced": 0, "symmetry": 0, "deadline": 1236, "seen": 0}

    def test_witness_is_in_the_callers_labels(self):
        # Isolated columns (1, 4, 6), an empty row, one-one rows, a duplicate
        # row and three components, and the smallest searched matrix.
        rows = [[], [6], [3, 9], [9, 5], [5, 9], [5, 11], [2, 7, 10], [7, 12], [10, 12],
                [8], [8, 13], [13, 14]]
        cases = [BinaryMatrix.from_rows(14, rows), BinaryMatrix.from_rows(2, [[1, 2]]),
                 BinaryMatrix.from_rows(2, [[2, 1], [1, 2], [], [2]])]
        for m in cases:
            for spec in (GapSpec(2, 1), GapSpec(3, 1), GapSpec(2, 2), GapSpec(2, None)):
                out = decide(m, spec)
                assert out.status == SATISFIED
                assert check_ordering(m, out.witness, spec).ok

    def test_breadth_first_order_starts_components_at_an_end(self):
        # A path hidden under shuffled labels comes out end to end; an
        # isolated column is a component of its own.
        hidden = random.Random(38).sample(range(1, 41), 40)
        rows = [tuple(hidden[i:i + 2]) for i in range(39)]
        assert breadth_first_order(41, rows) in (hidden + [41], hidden[::-1] + [41])
        assert breadth_first_order(3, []) == [1, 2, 3]

    def test_search_counts_are_pinned_on_a_seeded_corpus(self):
        # Exhausted, satisfied and node-budget cases; (20,1) bounds blocks
        # beyond the longest row and (2,inf) leaves gaps unbounded.
        specs = [GapSpec(2, 1), GapSpec(3, 1), GapSpec(2, 2), GapSpec(3, 2), GapSpec(None, 1),
                 GapSpec(2, None), GapSpec(20, 1)]
        rng = random.Random(37)
        statuses, prunes, nodes = Counter(), Counter(), 0
        for i in range(300):
            m = random_matrix(rng, max_cols=12, max_rows=12)
            out = decide(m, specs[i % len(specs)], SearchConfig(node_limit=None if i % 3 else 300))
            statuses[out.status] += 1
            prunes.update(out.stats.prunes)
            nodes += out.stats.nodes_expanded
        assert statuses == {SATISFIED: 262, EXHAUSTED: 36, TIMED_OUT: 2}
        assert nodes == 164_036
        assert prunes == {"blocks": 130_772, "forced": 534, "symmetry": 38, "deadline": 1_992,
                          "seen": 4_348}

    def test_deep_path_has_no_recursion_cliff(self):
        for n in (1200, 5000):
            m = path_matrix(n)
            out = decide(m, GapSpec(2, 1))
            assert out.status == SATISFIED
            assert out.stats.nodes_expanded == n
            assert check_ordering(m, out.witness, GapSpec(2, 1)).ok

    def test_path_scale_at_two_and_five_thousand_columns(self):
        # One node per column and a checked witness; no wall-clock assert.
        for n in (2000, 5000):
            m = path_matrix(n)
            out = decide(m, GapSpec(2, 1))
            assert out.status == SATISFIED
            assert out.stats.nodes_expanded == n
            assert check_ordering(m, out.witness, GapSpec(2, 1)).ok

    def test_budgeted_search_decisions_are_pinned(self):
        # 60 planted-satisfiable matrices under a 5,000-node budget: a digest
        # of every status, node count and witness, so any change to the
        # candidate order, to what the prune rules cut or to the budget
        # cut-off shows.
        rng = random.Random(41)
        digest = hashlib.sha256()
        statuses = Counter()
        for i in range(60):
            k, delta = ((2, 1), (3, 1), (2, 2))[i % 3]
            m = planted_matrix(rng, rng.randint(20, 80), k, delta)
            out = decide(m, GapSpec(k, delta), SearchConfig(node_limit=5000))
            witness = out.witness and out.witness.forward
            digest.update(repr((out.status, out.stats.nodes_expanded, witness)).encode())
            statuses[out.status] += 1
        assert statuses == {SATISFIED: 56, TIMED_OUT: 4}
        assert digest.hexdigest() == "54255dad6aa85beda14a8e42e824f4109d2bc2ba12a2b4141c0c3d8cd042f670"

    def test_budgeted_search_counts_are_pinned_up_to_two_hundred_columns(self):
        # 90 planted-satisfiable matrices of 20, 80 and 200 columns under a
        # 5,000-node budget: a digest of every status, node count, prune count
        # and witness (recorded before untouched candidates were judged in
        # runs), so any change to what is counted where shows.
        rng = random.Random(47)
        digest = hashlib.sha256()
        statuses = Counter()
        for i in range(90):
            k, delta = ((2, 1), (3, 1), (2, 2))[i % 3]
            m = planted_matrix(rng, (20, 80, 200)[i // 3 % 3], k, delta)
            out = decide(m, GapSpec(k, delta), SearchConfig(node_limit=5000))
            witness = out.witness and out.witness.forward
            prunes = dict(out.stats.prunes)
            digest.update(repr((out.status, out.stats.nodes_expanded, prunes, witness)).encode())
            statuses[out.status] += 1
        assert statuses == {SATISFIED: 78, TIMED_OUT: 12}
        assert digest.hexdigest() == "f705ae569bc976dfc7f14e97b366f06eec04ff3c1eb40f0c3ded7bd6b72d8e8c"

    def test_free_columns_are_left_out_of_the_search(self):
        # Free columns among labels 2..n-1 change no count.  Free columns at
        # the end make column n free, so the reversal pair is dropped.
        m = companion(2, 3)
        for at, nodes in ((2, 1310), (m.num_columns + 1, 7906)):
            out = decide(insert_free(m, at, 4), GapSpec(2, 3))
            assert (out.status, out.stats.nodes_expanded) == (EXHAUSTED, nodes)
        # A witness places the free columns last, in label order.
        m = BinaryMatrix.from_rows(6, [[2, 5], [5, 3], [3, 2]])
        out = decide(m, GapSpec(2, 1))
        assert out.witness.forward[3:] == (1, 4, 6)
        assert check_ordering(m, out.witness, GapSpec(2, 1)).ok

    def test_exhausted_state_table_keeps_statuses_and_first_witnesses(self):
        # Seeded matrices with no free column, searched with no budget: the
        # table cuts only exhausted subtrees, so every status and witness is
        # the one the search gave before the table (digest recorded then).
        specs = [GapSpec(2, 1), GapSpec(3, 1), GapSpec(2, 2), GapSpec(3, 2), GapSpec(2, 3),
                 GapSpec(None, 1), GapSpec(2, None)]
        rng = random.Random(43)
        digest = hashlib.sha256()
        statuses = Counter()
        for i in range(140):
            out = decide(covered_matrix(rng, rng.randint(8, 14)), specs[i % len(specs)])
            digest.update(repr((out.status, out.witness and out.witness.forward)).encode())
            statuses[out.status] += 1
        assert statuses == {SATISFIED: 76, EXHAUSTED: 64}
        assert digest.hexdigest() == "9a10ef2d66f862ed22c5552510a0e191a992ffb4229d86b4694adfdf55467147"

    def test_exhausted_state_table_is_bounded(self, monkeypatch):
        # A 1,000-entry table is cleared many times on the (3,2) companion.
        # Forgetting only loses pruning: still exhausted, in at least the
        # 153,829 nodes of the uncapped table.
        m = companion(3, 2)
        rows = len({row for row in m.rows if len(row) >= 2})
        sizes = []

        class Table(set):
            def add(self, key):
                super().add(key)
                sizes.append(len(self))

        monkeypatch.setattr(solver, "set", Table, raising=False)
        monkeypatch.setattr(solver, "TABLE_FIELDS", 1000 * rows)
        out = decide(m, GapSpec(3, 2))
        assert out.status == EXHAUSTED
        assert out.stats.nodes_expanded >= 153_829
        assert max(sizes) == 1000

    def test_determinism(self):
        rng = random.Random(33)
        for _ in range(30):
            m = random_matrix(rng)
            a = decide(m, GapSpec(2, 1))
            b = decide(m, GapSpec(2, 1))
            assert a.status == b.status
            assert a.witness == b.witness

    def test_unbounded_bounds_are_first_class(self):
        m = BinaryMatrix(5, ((1, 3, 5), (2, 4)))
        assert decide(m, GapSpec(None, 0)).status == SATISFIED
        assert decide(m, GapSpec(1, None)).status == SATISFIED

    def test_classic_specs_skip_the_search(self):
        # A shuffled 400-column interval matrix: exponential for the search,
        # a fraction of a second for the polynomial classical test.
        rng = random.Random(36)
        n = 400
        hidden = list(range(1, n + 1))
        rng.shuffle(hidden)
        rows = []
        for _ in range(n):
            a = rng.randint(0, n - 2)
            rows.append(hidden[a:a + rng.randint(2, 8)])
        m = BinaryMatrix.from_rows(n, rows)
        t0 = time.monotonic()
        out = decide(m, GapSpec(1, 0))
        assert time.monotonic() - t0 < 1.0
        assert out.status == SATISFIED
        assert out.stats.nodes_expanded == 0
        assert check_ordering(m, out.witness, GapSpec(1, 0)).ok


class TestOracleEquivalence:
    SPECS = [GapSpec(1, 0), GapSpec(1, 1), GapSpec(1, None), GapSpec(2, 1), GapSpec(2, 2),
             GapSpec(3, 1)]

    def test_decide_matches_brute_force(self):
        rng = random.Random(990)
        for _ in range(120):
            m = random_matrix(rng)
            for spec in self.SPECS:
                truth = brute_force(m, spec).valid_count > 0
                out = decide(m, spec)
                assert (out.status == SATISFIED) == truth
                if out.status == SATISFIED:
                    assert check_ordering(m, out.witness, spec).ok

    # Statuses of 210 seeded matrices of 9-13 columns (e exhausted, s
    # satisfied), recorded from the search without the deadline rule: a sound
    # prune changes node counts, never a status.
    WIDE_STATUSES = (
        "esssssseseseeeeeessesessssessessseseesseeseeesesseeessssesessesseesess"
        "essessseeesseseeessesesesssssseseesesessesessesssesesesseessesseesssss"
        "esssseseeeseesseseseseeessesesesseseeeseeseeeesssesessesesesseseeessss"
    )

    def test_wide_statuses_are_pinned(self):
        specs = [GapSpec(2, 1), GapSpec(3, 1), GapSpec(2, 2), GapSpec(3, 2), GapSpec(2, 3),
                 GapSpec(None, 1), GapSpec(2, None)]
        rng = random.Random(41)
        statuses = []
        for i in range(len(self.WIDE_STATUSES)):
            n = rng.randint(9, 13)
            rows = [rng.sample(range(1, n + 1), rng.randint(2, 4))
                    for _ in range(rng.randint(n // 2, 3 * n // 2))]
            m = BinaryMatrix.from_rows(n, rows)
            spec = specs[i % len(specs)]
            out = decide(m, spec)
            if out.status == SATISFIED:
                assert check_ordering(m, out.witness, spec).ok
            statuses.append(out.status[0])
        assert "".join(statuses) == self.WIDE_STATUSES

    def test_spec_monotonicity_of_decisions(self):
        rng = random.Random(992)
        for _ in range(60):
            m = random_matrix(rng)
            if decide(m, GapSpec(2, 1)).status == SATISFIED:
                for spec in (GapSpec(3, 1), GapSpec(2, 2), GapSpec(None, 1), GapSpec(2, None)):
                    assert decide(m, spec).status == SATISFIED

    def test_k_zero_delta_collapse(self):
        rng = random.Random(993)
        for _ in range(60):
            m = random_matrix(rng)
            base = brute_force(m, GapSpec(1, 0)).valid_count > 0
            for k in (2, 3):
                assert (decide(m, GapSpec(k, 0)).status == SATISFIED) == base


class TestBruteForce:
    def test_single_column(self):
        m = BinaryMatrix(1, ((1,),))
        assert brute_force(m, GapSpec(1, 0)).valid_count == 1

    def test_triple_has_no_valid_ordering(self):
        assert brute_force(TRIPLE, GapSpec(1, 0)).valid_count == 0

    def test_gadget_has_exactly_two(self):
        from gapc1p import build_gadget

        rows = build_gadget((1, 2, 3, 4, 5), 1)
        report = brute_force(BinaryMatrix(5, rows), GapSpec(2, 1))
        assert report.valid_count == 2
        forwards = {w.forward for w in report.witnesses}
        assert forwards == {(1, 2, 3, 4, 5), (5, 4, 3, 2, 1)}

    def test_valid_set_closed_under_reversal(self):
        rng = random.Random(994)
        for _ in range(40):
            m = random_matrix(rng, max_cols=5)
            forwards = set(valid_forward_maps(m, GapSpec(2, 1))[1])
            assert brute_force(m, GapSpec(2, 1)).valid_count == len(forwards)
            for f in forwards:
                assert tuple(reversed(f)) in forwards

    def test_witnesses_lexicographic_and_capped(self):
        m = BinaryMatrix(4, ())
        report = brute_force(m, GapSpec(1, 0))
        assert report.valid_count == 24
        assert WITNESS_CAP == 8
        assert len(report.witnesses) == WITNESS_CAP
        forwards = [w.forward for w in report.witnesses]
        assert forwards == sorted(forwards)

    def test_column_cap(self):
        with pytest.raises(ValueError):
            brute_force(BinaryMatrix(11, ()), GapSpec(1, 0))


class TestClassicC1P:
    def test_simple_positive(self):
        m = BinaryMatrix(3, ((1, 2), (2, 3)))
        ordering = classic_c1p(m)
        assert ordering is not None
        assert check_ordering(m, ordering, GapSpec(1, 0)).ok

    def test_triple_rejected(self):
        assert classic_c1p(TRIPLE) is None

    def test_singleton_rows_any_ordering(self):
        m = BinaryMatrix(3, ((1,), (2,), (3,)))
        assert classic_c1p(m) is not None

    def test_agrees_with_brute_force_on_corpus(self):
        rng = random.Random(995)
        for _ in range(150):
            m = random_matrix(rng)
            truth = brute_force(m, GapSpec(1, 0)).valid_count > 0
            ordering = classic_c1p(m)
            assert (ordering is not None) == truth
            if ordering is not None:
                assert check_ordering(m, ordering, GapSpec(1, 0)).ok

    def test_interval_matrices_up_to_twelve_columns(self):
        # Rows cut as intervals of a hidden permutation are always C1P.
        rng = random.Random(996)
        for _ in range(150):
            n = rng.randint(2, 12)
            base = list(range(1, n + 1))
            rng.shuffle(base)
            rows = []
            for _ in range(rng.randint(1, 10)):
                a, b = sorted((rng.randrange(n), rng.randrange(n)))
                rows.append(tuple(sorted(base[a:b + 1])))
            m = BinaryMatrix.from_rows(n, rows)
            ordering = classic_c1p(m)
            assert ordering is not None
            assert check_ordering(m, ordering, GapSpec(1, 0)).ok

    def test_known_tucker_style_negatives(self):
        # Overlapping chain plus a row hitting both ends forces rejection.
        m = BinaryMatrix(4, ((1, 2), (2, 3), (3, 4), (1, 4), (1, 3)))
        assert classic_c1p(m) is None

    def test_new_columns_extend_the_end_the_row_fills(self):
        # {1,2,3} and {3..10} give the classes {1,2} {3} {4..10}; the row
        # {1,2,3,4,11} fills {1,2} and only part of {4..10}, so 11 goes past
        # {1,2} and 4 faces inward.
        rows = [(1, 2, 3), tuple(range(3, 11)), (1, 2, 3, 4, 11)]
        order = consecutive_ordering(11, rows)
        classes = [{11}, {1, 2}, {3}, {4}, set(range(5, 11))]
        if order[0] != 11:
            order.reverse()
        at = 0
        for cls in classes:
            assert set(order[at:at + len(cls)]) == cls
            at += len(cls)

    def test_repeated_rows_give_a_valid_ordering(self):
        m = BinaryMatrix(5, ((1, 2), (2, 3), (1, 2), (3, 4, 5), (2, 3), (1, 2)))
        ordering = ColumnOrdering(tuple(consecutive_ordering(5, m.rows)))
        assert check_ordering(m, ordering, GapSpec(1, 0)).ok

    def test_nested_prefixes_have_no_recursion_cliff(self):
        # 1,200 nested rows, and the same prefixes plus {2..1201}, which
        # overlaps all but the largest; both once overflowed a recursive walk.
        for rows in (nested_prefixes(1200), nested_prefixes(1200) + [list(range(2, 1202))]):
            m = BinaryMatrix.from_rows(1201, rows)
            ordering = classic_c1p(m)
            assert ordering is not None
            assert check_ordering(m, ordering, GapSpec(1, 0)).ok

    def test_long_path_and_deep_nesting(self):
        # One overlap component of 4,999 rows, and 2,000 components nested
        # 2,000 deep: both were quadratic before the classes became a list.
        for m in (path_matrix(5000), BinaryMatrix.from_rows(2001, nested_prefixes(2000))):
            ordering = classic_c1p(m)
            assert ordering is not None
            assert check_ordering(m, ordering, GapSpec(1, 0)).ok

    def test_hidden_orders_with_and_without_a_five_cycle(self):
        # Intervals, prefixes and suffixes of a hidden order are always C1P;
        # a hidden cycle of pair rows never is, since a path has no cycle.
        rng = random.Random(997)
        for _ in range(12):
            n = rng.randint(40, 400)
            hidden = rng.sample(range(1, n + 1), n)
            rows = []
            for _ in range(n):
                a, b = sorted(rng.sample(range(n + 1), 2))
                rows.append(rng.choice((hidden[a:b], hidden[:b], hidden[a:])))
            m = BinaryMatrix.from_rows(n, rows)
            ordering = classic_c1p(m)
            assert ordering is not None
            assert check_ordering(m, ordering, GapSpec(1, 0)).ok
            cycle = rng.sample(hidden, 5)
            pairs = [(cycle[j], cycle[(j + 1) % 5]) for j in range(5)]
            assert classic_c1p(BinaryMatrix.from_rows(n, rows + pairs)) is None


@st.composite
def small_matrices(draw) -> BinaryMatrix:
    """At most 9 columns; rows are intervals of a hidden order, prefixes of it, or any subsets."""
    n = draw(st.integers(1, 9))
    hidden = draw(st.permutations(range(1, n + 1)))
    rows = []
    for _ in range(draw(st.integers(0, 2 * n))):
        kind = draw(st.sampled_from(("interval", "prefix", "subset")))
        if kind == "interval":
            a = draw(st.integers(0, n - 1))
            rows.append(hidden[a:draw(st.integers(a + 1, n))])
        elif kind == "prefix":
            rows.append(hidden[:draw(st.integers(1, n))])
        else:
            rows.append(draw(st.sets(st.integers(1, n), min_size=min(n, 2))))
    return BinaryMatrix.from_rows(n, rows)


GAPPED_SPECS = [GapSpec(2, 1), GapSpec(3, 1), GapSpec(2, 2), GapSpec(3, 2), GapSpec(2, 3),
                GapSpec(3, 3), GapSpec(None, 1), GapSpec(2, None)]


@settings(derandomize=True, deadline=None, max_examples=500)
@given(small_matrices())
def test_classic_c1p_agrees_with_brute_force(m):
    ordering = classic_c1p(m)
    # The exhaustive enumerator decides it by its first valid map.
    _, maps = valid_forward_maps(m, GapSpec(1, 0))
    assert (ordering is not None) == (next(maps, None) is not None)
    if ordering is not None:
        assert check_ordering(m, ordering, GapSpec(1, 0)).ok


@st.composite
def crowded_matrices(draw) -> BinaryMatrix:
    """At most 9 columns and n to 3n rows of 2 to 4 ones: many refute a gapped spec."""
    n = draw(st.integers(1, 9))
    row = st.sets(st.integers(1, n), min_size=min(n, 2), max_size=4)
    return BinaryMatrix.from_rows(n, draw(st.lists(row, min_size=n, max_size=3 * n)))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(crowded_matrices(), st.sampled_from(["beyond", *GAPPED_SPECS]))
def test_decide_agrees_with_brute_force(m, spec):
    if spec == "beyond":
        # A block bound above the longest row never binds; the search clamps it.
        spec = GapSpec(max(map(len, m.rows), default=0) + 30, 1)
    out = decide(m, spec)
    assert (out.status == SATISFIED) == (brute_force(m, spec).valid_count > 0)
    if out.status == SATISFIED:
        assert check_ordering(m, out.witness, spec).ok


@settings(derandomize=True, deadline=None, max_examples=300)
@given(crowded_matrices(), st.sampled_from(GAPPED_SPECS), st.randoms(use_true_random=False))
def test_exhausted_search_does_not_depend_on_column_labels(m, spec, rng):
    # Relabel every column but 1 and n, which carry the reversal-symmetry
    # pair: an exhausted search opens the same frames, so its counts match.
    n = m.num_columns
    label = list(range(n + 1))
    middle = label[2:n]
    rng.shuffle(middle)
    label[2:n] = middle
    relabelled = BinaryMatrix.from_rows(n, [[label[c] for c in row] for row in m.rows])
    config = SearchConfig(node_limit=20_000)
    a, b = decide(m, spec, config), decide(relabelled, spec, config)
    if EXHAUSTED in (a.status, b.status):
        assert a.status == b.status
        assert a.stats.nodes_expanded == b.stats.nodes_expanded
        assert a.stats.prunes == b.stats.prunes


@settings(derandomize=True, deadline=None, max_examples=150)
@given(crowded_matrices(), st.sampled_from(GAPPED_SPECS),
       st.sampled_from(["first", "last", "both"]), st.randoms(use_true_random=False))
def test_exhausted_search_with_a_free_end_column_does_not_depend_on_labels(m, spec, ends, rng):
    # Column 1, column n or both are free, so the search keeps no reversal
    # pair and no column's label matters: relabel every column but 1 and n.
    shift = ends != "last"
    n = m.num_columns + shift + (ends != "first")
    rows = [[c + shift for c in row] for row in m.rows]
    label = list(range(n + 1))
    middle = label[2:n]
    rng.shuffle(middle)
    label[2:n] = middle
    padded = BinaryMatrix.from_rows(n, rows)
    relabelled = BinaryMatrix.from_rows(n, [[label[c] for c in row] for row in rows])
    config = SearchConfig(node_limit=20_000)
    a, b = decide(padded, spec, config), decide(relabelled, spec, config)
    if EXHAUSTED in (a.status, b.status):
        assert a.status == b.status
        assert a.stats.nodes_expanded == b.stats.nodes_expanded
        assert a.stats.prunes == b.stats.prunes
    for matrix, out in ((padded, a), (relabelled, b)):
        if out.status == SATISFIED:
            assert check_ordering(matrix, out.witness, spec).ok


@settings(derandomize=True, deadline=None, max_examples=150)
@given(crowded_matrices(), st.sampled_from(GAPPED_SPECS),
       st.lists(st.integers(2, 9), min_size=1, max_size=3))
def test_free_columns_among_the_middle_labels_change_no_search(m, spec, spots):
    # Free columns inserted at labels 2..n-1 keep columns 1 and n and the
    # other columns' order, so the search, its counts and status are the same.
    padded = m
    for at in spots:
        if 2 <= at <= padded.num_columns:
            padded = insert_free(padded, at, 1)
    a, b = decide(m, spec), decide(padded, spec)
    assert a.status == b.status
    assert a.stats.nodes_expanded == b.stats.nodes_expanded
    assert a.stats.prunes == b.stats.prunes
    if b.status == SATISFIED:
        assert check_ordering(padded, b.witness, spec).ok
