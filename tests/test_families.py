"""Family enumeration against independent filter oracles, plus frozen fixtures."""

import sys
import time
from collections import Counter
from functools import lru_cache
from itertools import islice
from operator import add
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beckpart
from beckpart import cli, families
from beckpart import (
    DecoratedPartition,
    Family,
    PairSet,
    Partition,
    RectanglePair,
    count,
    enumerate_family,
    gf,
    is_member,
)
from beckpart.partitions import MARK, OVERLINE
from helpers import Totals, totals

# ---------------------------------------------------------------------------
# Independent oracle predicates, written from scratch on purpose.
# ---------------------------------------------------------------------------

def all_partitions(n):
    def rec(n, cap):
        if n == 0:
            yield []
            return
        for v in range(min(n, cap), 0, -1):
            for rest in rec(n - v, v):
                yield [v] + rest
    return [tuple(p) for p in rec(n, n if n else 1)]


def gaps(parts):
    if not parts:
        return []
    return [parts[i] - parts[i + 1] for i in range(len(parts) - 1)] + [parts[-1]]


def oracle_filter(n, family, r):
    out = []
    for p in all_partitions(n):
        mult = Counter(p)
        if family is Family.ALL:
            keep = True
        elif family is Family.O_R:
            keep = all(x % r for x in p)
        elif family is Family.D_R:
            keep = all(c <= r - 1 for c in mult.values())
        elif family is Family.F_R:
            keep = all(g <= r - 1 for g in gaps(p))
        elif family is Family.O_1R:
            keep = len({x for x in p if x % r == 0}) == 1
        elif family is Family.D_1R:
            keep = sum(1 for c in mult.values() if c >= r) == 1
        elif family is Family.F_1R:
            keep = sum(1 for g in gaps(p) if g >= r) == 1
        elif family is Family.T_R:
            big = [c for c in mult.values() if c >= r]
            keep = len(big) == 1 and r < big[0] < 2 * r
        else:
            raise AssertionError(family)
        if keep:
            out.append(p)
    return out


def oracle_decorations(n, family, r, t):
    out = []
    for p in all_partitions(n):
        mult = Counter(p)
        if family is Family.O_STAR:
            if all(x % r for x in p):
                for i, x in enumerate(p, start=1):
                    if x % r == t:
                        out.append((p, MARK, i))
        elif family is Family.F_BAR:
            if all(g <= r - 1 for g in gaps(p)):
                for i, g in enumerate(gaps(p), start=1):
                    if g >= t:
                        out.append((p, OVERLINE, i))
        elif family is Family.O_BAR or family is Family.D_BAR:
            ok = all(x % r for x in p) if family is Family.O_BAR \
                else all(c <= r - 1 for c in mult.values())
            if ok:
                for i in range(1, len(p) + 1):
                    if i == len(p) or p[i] != p[i - 1]:
                        out.append((p, OVERLINE, i))
    return out


PLAIN = [Family.ALL, Family.O_R, Family.D_R, Family.F_R,
         Family.O_1R, Family.D_1R, Family.F_1R, Family.T_R]


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_plain_families_match_filter_oracle(r):
    for n in range(0, 26):
        reference = all_partitions(n)
        for family in PLAIN:
            got = [tuple(p) for p in enumerate_family(n, family, None if family is Family.ALL else r)]
            expected = oracle_filter(n, family, r)
            assert sorted(got, reverse=True) == got  # descending lex stream
            assert len(set(got)) == len(got)
            assert set(got) == set(expected), (n, family)
        assert reference == [tuple(p) for p in enumerate_family(n, Family.ALL)]


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_decorated_families_match_oracle(r):
    for n in range(0, 20):
        for family in (Family.O_BAR, Family.D_BAR):
            got = [(tuple(d.base), d.decoration, d.position)
                   for d in enumerate_family(n, family, r)]
            assert set(got) == set(oracle_decorations(n, family, r, None))
            assert len(set(got)) == len(got)
        for t in range(1, r):
            for family in (Family.O_STAR, Family.F_BAR):
                got = [(tuple(d.base), d.decoration, d.position)
                       for d in enumerate_family(n, family, r, t)]
                assert set(got) == set(oracle_decorations(n, family, r, t))
                assert len(set(got)) == len(got)


def test_count_matches_enumeration_for_every_family():
    # every family and pair set, each count and each range read
    for r in range(2, 7):
        for family in (*Family, *PairSet):
            if family is Family.ALL:
                cases = [(None, None)]
            elif family in families._NEEDS_T:
                cases = [(r, t) for t in range(1, r)]
            else:
                cases = [(r, None)]
            for rr, t in cases:
                listed = [len(list(enumerate_family(n, family, rr, t))) for n in range(26)]
                for n in range(0, 26):
                    assert count(n, family, rr, t) == listed[n], (n, family, rr, t)
                assert families.counts(25, family, rr, t) == listed, (family, rr, t)


def test_pair_counts_never_list(monkeypatch):
    # a pair set is counted from the flat count column, so a lister that
    # fails is never reached, far past the sizes a listing could count
    def listing(*_):
        raise AssertionError("a pair count listed")

    families.clear_caches()
    monkeypatch.setattr(families, "_walk", listing)
    assert count(60, PairSet.A, 2) == 26939
    assert count(60, PairSet.P_RT, 2, 1) == 164734
    for r in (2, 3, 7):
        for tag in PairSet:
            for t in residues(tag, r):
                assert len(families.counts(300, tag, r, t)) == 301
    assert count(2048, PairSet.A, 2) == count(2048, PairSet.B, 2)  # zeta


def test_counts_are_the_counts_of_each_n():
    # a range read from fresh tables equals the reads of each n
    for r in (2, 3, 5):
        for tag in (*Family, *PairSet):
            ts = range(1, r) if tag in families._NEEDS_T else (None,)
            for t in ts:
                rr = None if tag is Family.ALL else r
                families.clear_caches()
                got = families.counts(18, tag, rr, t)
                assert got == [count(n, tag, rr, t) for n in range(19)], (tag, r, t)
    with pytest.raises(ValueError, match="n = 20000 is too large at r = 3"):
        families.counts(20000, Family.O_R, 3)  # past every count table the model admits
    with pytest.raises(ValueError, match="non-negative"):
        families.counts(True, Family.O_R, 3)


def test_is_member_matches_filter_oracle():
    for r in range(2, 7):
        for n in range(0, 19):
            for family in PLAIN:
                members = set(oracle_filter(n, family, r))
                for p in all_partitions(n):
                    assert is_member(Partition(p), family, r) == (p in members), (p, family, r)


def test_listing_recovers_from_a_failed_search(monkeypatch):
    # a walk cut short by an error stores nothing for the states on its
    # stack, so none of them is read as searched by the next listing
    full = list(enumerate_family(12, Family.T_R, 3))
    moves = families._moves
    for fail_at in (1, 2, 3, 10, 25, 50):  # of the 53 calls a cold listing makes
        calls = []

        def failing(*state):
            calls.append(state)
            if len(calls) == fail_at:
                raise RuntimeError("interrupted")
            return moves(*state)

        families.clear_caches()
        monkeypatch.setattr(families, "_moves", failing)
        with pytest.raises(RuntimeError):
            list(enumerate_family(12, Family.T_R, 3))
        monkeypatch.undo()
        assert list(enumerate_family(12, Family.T_R, 3)) == full, fail_at


def test_first_member_of_a_flat_family_with_many_distinct_values(monkeypatch):
    # the lister keeps its own stack: the first flat partition of 200000 has
    # 631 distinct values, past the default recursion limit
    moves = families._moves
    calls = []

    def counted(*state):
        calls.append(state)
        return moves(*state)

    monkeypatch.setattr(families, "_moves", counted)
    # the largest first part k of a 2-flat partition of n has k(k+1)/2 <= n
    for n, k in ((200000, 631), (500000, 999)):
        families.clear_caches()
        del calls[:]
        start = time.perf_counter()
        lam = next(enumerate_family(n, Family.F_R, 2))
        assert time.perf_counter() - start < 10
        assert lam.size == n and all(g < 2 for g in gaps(lam)) and lam[0] == k
        # no first part past k and no run whose least flat tail cannot fit
        # is tried, so each state searched places a run of the member
        assert len(calls) <= len(set(lam)), n


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(PLAIN[1:]), st.integers(2, 6), st.integers(0, 30),
                          st.integers(0, 60), st.booleans()), min_size=1, max_size=8))
def test_walks_cut_short_leave_the_memo_whole(walks):
    # Each walk stops after k members, or fails once its searches have read
    # k moves; afterwards every listing reads the memo and must still be whole.
    moves = families._moves
    families.clear_caches()
    for family, r, n, k, fail in walks:
        ticks = iter(range(k, -1, -1))

        def failing(*state):
            for move in moves(*state):
                if not next(ticks):
                    raise RuntimeError("interrupted")
                yield move

        with mock.patch.object(families, "_moves", failing if fail else moves):
            stream = enumerate_family(n, family, r)
            try:
                list(islice(stream, None if fail else k))
            except RuntimeError:
                pass
            stream.close()
    warm = {(family, r, n): list(enumerate_family(n, family, r)) for family, r, n, _, _ in walks}
    families.clear_caches()
    for (family, r, n), members in warm.items():
        assert members == list(enumerate_family(n, family, r)), (family, r, n)
        assert len(members) == count(n, family, r), (family, r, n)


# ---------------------------------------------------------------------------
# The (n, prev) walk that counted and totalled the families before the
# largest-value recurrence, kept as its oracle: every state (n left,
# previous run value, violations used) tries every run (v, c) below the
# previous value, roughly n^3 work in all.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def walk_count(n, prev, used, rule, viol, r):
    if n == 0:
        return int(used + families._RULES[rule](r, prev, 0, 0) == viol)
    return sum(walk_count(n - v * c, v, u, rule, viol, r)
               for v, c, u in families._moves(n, prev, used, rule, viol, r))


@lru_cache(maxsize=None)
def walk_sums(n, prev, used, rule, viol, r):
    # count, parts, distinct values, then r-slots: parts by residue, runs by
    # min(c, r-1), and gaps (final part included) by min(gap, r-1)
    out = [0] * (3 + 3 * r)
    steep = 3 + 2 * r
    if n == 0:
        if used + families._RULES[rule](r, prev, 0, 0) == viol:
            out[0] = 1
            if prev:
                out[steep + min(prev, r - 1)] = 1
        return tuple(out)
    for v, c, u in families._moves(n, prev, used, rule, viol, r):
        sub = walk_sums(n - v * c, v, u, rule, viol, r)
        k = sub[0]
        if k:
            out = list(map(add, out, sub))
            out[1] += c * k
            out[2] += k
            out[3 + v % r] += c * k
            out[3 + r + min(c, r - 1)] += k
            if prev:
                out[steep + min(prev - v, r - 1)] += k
    return tuple(out)


def walk_totals(n, family, r):
    s = walk_sums(n, 0, 0, *families._SPEC[family], r)

    def at_least(hist):
        return (0,) + tuple(sum(hist[t:]) for t in range(1, r))

    return Totals(s[0], s[1], s[2], s[3:3 + r],
                  at_least(s[3 + r:3 + 2 * r]), at_least(s[3 + 2 * r:]))


def test_counts_and_totals_match_the_walk_oracle():
    # r = 45 passes the table sizes 16 and 32 and r = 301 every size read,
    # and those tables keep min(r, size + 1) gap states and r-slots
    for r in (*range(2, 8), 45, 301):
        for n in range(0, 41):
            for family in PLAIN:
                spec = families._SPEC[family]
                assert count(n, family, None if family is Family.ALL else r) == \
                    walk_count(n, 0, 0, *spec, r), (n, family, r)
                got = totals(n, family, r)
                expected = walk_totals(n, family, r)
                if spec[0] == "gap":
                    assert got == expected, (n, family, r)
                else:
                    assert got.steep is None
                    assert got._replace(steep=None) == expected._replace(steep=None), \
                        (n, family, r)


class TestCountingAtScale:
    # Cold counts far past the exhaustive grids, under the default recursion
    # limit; the series is only the reference here, never the route.
    def test_cold_counts_of_a_thousand_match_the_series(self):
        families.clear_caches()
        assert count(1000, Family.O_R, 3) == gf("O_r", 3, bound=1000)[1000]
        families.clear_caches()
        assert count(1000, Family.O_1R, 3) == gf("O_1r", 3, bound=1000)[1000]

    def test_counts_past_2048_match_the_series(self):
        # the count route past the old ceiling of 2048, against its series twin
        families.clear_caches()
        assert families.counts(3000, Family.O_R, 3) == list(gf("O_r", 3, bound=3000).coeffs)

    def test_counts_between_table_sizes(self):
        # n on either side of a power of two reads tables of different sizes
        for n in (15, 16, 17, 31, 32, 33, 64, 65):
            assert count(n, Family.F_1R, 4) == walk_count(n, 0, 0, *families._SPEC[Family.F_1R], 4)


def partition_numbers(n_max):
    # p(0..n_max) by Euler's pentagonal recurrence
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        k = 1
        while k * (3 * k - 1) // 2 <= n:
            sign = 1 if k % 2 else -1
            for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if g <= n:
                    p[n] += sign * p[n - g]
            k += 1
    return p


def admits(size, rule, viol, r, totals):
    # whether the cost model admits the table of the spec at size
    bits, work, _ = families._cost(size, rule, viol, r, totals)
    return bits <= families.TABLE_BITS and work <= families.TABLE_WORK


def every_spec(rs):
    # the (rule, violations, r, totals) of every table at the moduli rs
    return [(rule, viol, r, totals) for rule, viol in sorted(set(families._SPEC.values()))
            for totals in (False, True)
            for r in ((None,) if rule == "none" and not totals else rs)]


@pytest.fixture
def builds(monkeypatch):
    # the (rule, violations, r, totals) of every table built, in order
    built = []
    build = families._build

    def recording(size, rule, viol, r, totals, width):
        built.append((rule, viol, r, totals))
        return build(size, rule, viol, r, totals, width)

    monkeypatch.setattr(families, "_build", recording)
    return built


class TestTables:
    def test_block_width_bound(self):
        # The closed-form width holds p(n), and the totals width (n + 1) p(n),
        # at every size up to the largest table the cost model admits, that
        # of the cheapest spec, the plain count table: no table at r <= 7 is
        # admitted one size further.  The bound is checked here, not proven.
        top = 2048
        while admits(top + 1, "none", 0, None, False):
            top += 1
        assert not [spec for spec in every_spec(range(2, 8)) if admits(top + 1, *spec)]
        p = partition_numbers(top)
        assert p[:8] == [1, 1, 2, 3, 5, 7, 11, 15] and p[100] == 190569292
        for n in range(top + 1):
            assert families._width(n, False) >= p[n].bit_length(), n
            assert families._width(n, True) >= ((n + 1) * p[n]).bit_length(), n

    def test_sizes_past_the_limit_are_refused_unbuilt(self, builds):
        # past every table the cost model admits at these r: refused by the
        # model, naming the n asked for, before any table is built
        n = 20000
        for call in (lambda: count(n, Family.O_R, 3), lambda: count(n, Family.D_BAR, 3),
                     lambda: count(n, PairSet.A, 2), lambda: totals(n, Family.F_R, 3)):
            with pytest.raises(ValueError, match=f"n = {n} is too large at r = [23]: "):
                call()
        assert builds == []

    def test_every_table_up_to_r_7_passes_the_cost_limits(self, builds):
        # the cost model admits every table at r <= 7 and size 2048, and the
        # costliest, the F1r totals, still at r = 9; at r = 10 it is refused
        # before it is built
        assert all(admits(2048, *spec) for spec in every_spec(range(2, 8)))
        assert admits(2048, "gap", 1, 9, True)
        assert not admits(2048, "gap", 1, 10, True)
        families.clear_caches()
        with pytest.raises(ValueError, match="n = 2048 is too large at r = 10: "):
            families._table(2048, "gap", 1, 10, True)
        assert builds == []

    def test_the_cost_model_sizes_the_table_built(self):
        # _cost works out the states and slots of a table apart from _build:
        # its bits are those of the table _build lays out, at sizes below and
        # past r, so the gate sizes the table that is built
        for size in (1, 5, 16, 22):
            for spec in every_spec((2, 3, 7, 30)):
                bits, _, width = families._cost(size, *spec)
                table = families._build(size, *spec, width)
                assert len(table) * len(table[0]) * (size + 1) * width == bits, (size, spec)

    def test_reads_from_a_larger_table_equal_cold_reads(self):
        def reads():
            return [(count(n, family, None if family is Family.ALL else r),
                     totals(n, family, r))
                    for r in range(2, 7) for family in PLAIN for n in range(41)]

        families.clear_caches()
        cold = reads()  # each n read from the least table that holds it
        families.clear_caches()
        for r in range(2, 7):
            for family in PLAIN:
                count(1024, family, r)
                totals(1024, family, r)
        assert {families._held(*families._SPEC[family], r, totals)[0]
                for r in range(2, 7) for family in PLAIN for totals in (False, True)} == {1024}
        assert reads() == cold

    def test_rising_reads_grow_the_tables_within_the_limit(self):
        # A plain count table and a totals table read cold at 1500, then at
        # 1600 and 2048: the second read builds at 2 * 1500, which the cost
        # model admits, and the third reads that table.  Each read equals a
        # cold read.
        specs = [(*families._SPEC[Family.O_1R], 2, False), (*families._SPEC[Family.D_R], 2, True)]

        def read(n):
            return count(n, Family.O_1R, 2), totals(n, Family.D_R, 2)

        families.clear_caches()
        rising, sizes = [], []
        for n in (1500, 1600, 2048):
            rising.append(read(n))
            sizes.append([families._held(*spec)[0] for spec in specs])
        assert all(admits(size, *spec) for spec in specs for size in (1500, 3000))
        assert sizes == [[1500] * 2, [3000] * 2, [3000] * 2]
        for n, got in zip((1600, 2048), rising[1:]):  # the read at 1500 was cold
            families.clear_caches()
            assert read(n) == got, n

    def test_totals_at_a_wide_modulus_read_only_the_kept_slots(self, monkeypatch):
        # a size-30 table keeps min(r, 31) r-slots per statistic; the other
        # r - 31 entries of each tuple are 0 and are not read one by one
        families.clear_caches()
        calls = []
        stat = families._stat
        monkeypatch.setattr(families, "_stat", lambda *args: calls.append(args) or stat(*args))
        got = totals(30, Family.O_R, 20000)
        assert len(calls) == 2 + 2 * 31  # before count reads _stat once more
        assert len(got.residue) == len(got.repeats) == 20000
        assert got.residue[31:] == got.repeats[31:] == (0,) * (20000 - 31)
        assert got.residue[1] == count(30, Family.O_STAR, 20000, 1)

    def test_a_cold_sweep_builds_one_table_per_spec(self, builds, capsys):
        families.clear_caches()
        assert cli.main(["verify", "beck3", "--r", "6", "--n-max", "22"]) == 0
        assert sorted(builds, key=repr) == sorted([
            ("value", 1, 6, False), ("mult", 1, 6, False),
            ("value", 0, 6, True), ("mult", 0, 6, True)], key=repr)

    def test_gaps_are_read_from_the_conjugate_totals(self, builds):
        # Fbar counts gaps of at least t, read as the repeats of D_r: no flat
        # totals table is built, and the count still equals the listing
        families.clear_caches()
        for r, t in ((2, 1), (4, 2), (6, 5)):
            assert count(30, Family.F_BAR, r, t) == \
                sum(1 for _ in enumerate_family(30, Family.F_BAR, r, t))
        assert builds and not [b for b in builds if b[0] == "gap" and b[3]]

    def test_cleared_caches_rebuild_the_table(self, builds):
        def cold_count():
            del builds[:]
            assert count(20, Family.O_R, 3) == count(20, Family.D_R, 3)
            return builds[:]

        families.clear_caches()
        assert cold_count() == [("value", 0, 3, False), ("mult", 0, 3, False)]
        assert cold_count() == []
        families.clear_caches()
        assert len(cold_count()) == 2
        for name, module in list(sys.modules.items()):
            # every cache of the package, as a harness that clears them all finds it
            if name == "beckpart" or name.startswith("beckpart."):
                for obj in list(vars(module).values()):
                    if callable(getattr(obj, "cache_clear", None)):
                        obj.cache_clear()
        assert len(cold_count()) == 2


def test_clear_caches_empties_every_memo():
    count(12, Family.O_1R, 3)
    totals(12, Family.F_R, 3)
    list(enumerate_family(12, Family.T_R, 3))
    count(6, PairSet.A, 2)
    memos = [families._held, families._memo, count]
    assert set(memos) == {obj for obj in vars(families).values()
                          if callable(getattr(obj, "cache_info", None))}
    assert all(m.cache_info().currsize for m in memos)
    beckpart.clear_caches()
    assert [m.cache_info().currsize for m in memos] == [0] * len(memos)


class TestFrozenExamples:
    def test_regular_of_five(self):
        assert list(enumerate_family(5, Family.O_R, 2)) == \
            [Partition((5,)), Partition((3, 1, 1)), Partition((1, 1, 1, 1, 1))]

    def test_size_zero(self):
        for family in (Family.O_R, Family.D_R, Family.F_R):
            assert list(enumerate_family(0, family, 3)) == [Partition()]
        for family in (Family.O_1R, Family.D_1R, Family.F_1R, Family.T_R):
            assert list(enumerate_family(0, family, 3)) == []

    def test_one_steep_contains_fixture(self):
        assert Partition((5, 2, 1)) in set(enumerate_family(8, Family.F_1R, 3))

    def test_counts_of_five(self):
        assert count(5, Family.O_R, 2) == 3
        assert count(5, Family.D_R, 2) == 3
        assert count(5, Family.O_1R, 2) == 4
        assert count(5, Family.D_1R, 2) == 4
        assert count(0, Family.O_R, 4) == 1

    def test_marking_repeated_values_separately(self):
        # a value of residue t with multiplicity m yields m marked partitions
        marked = [d for d in enumerate_family(14, Family.O_STAR, 5, 2)
                  if tuple(d.base) == (7, 7)]
        assert [(d.position) for d in marked] == [1, 2]


class TestPairSets:
    def test_pair_fixtures(self):
        pairs = set(enumerate_family(8, PairSet.P_RT, 3, 2))
        assert RectanglePair(Partition((2, 1, 1)), 2, 2) in pairs
        assert RectanglePair(Partition((3, 2, 1)), 2, 1) in pairs

    def test_empty_at_zero(self):
        assert list(enumerate_family(0, PairSet.P_RT, 3, 2)) == []

    def test_no_duplicates_and_predicates(self):
        for r in (2, 3, 5):
            for n in range(0, 16):
                for tag in (PairSet.A_O, PairSet.A_D, PairSet.A_T, PairSet.A, PairSet.B):
                    pairs = list(enumerate_family(n, tag, r))
                    assert len(set(pairs)) == len(pairs)
                    for p in pairs:
                        assert p.size == n and p.part == 1
                        assert all(g < r for g in gaps(p.flat))
                        gap = dict(enumerate(gaps(p.flat), 1))  # the gap at each position
                        j, i = p.count // r, p.count
                        if tag is PairSet.A_O:
                            assert i % r != 0
                        elif tag is PairSet.A_D:
                            assert gap.get(i, 0) < r - 1
                        elif tag is PairSet.A_T:
                            assert i % r == 0
                            assert gap.get(j, 0) > 0
                        elif tag is PairSet.A:
                            assert gap.get(i, 0) == r - 1
                        else:
                            assert i % r == 0
                            assert gap.get(j, 0) == 0

    def test_unit_pairs_partition_into_o_t_b(self):
        # (flat, (1^i)) pairs split exactly into A_o, A_t and B
        for r in (2, 4):
            for n in range(0, 14):
                everything = {
                    (tuple(f), i)
                    for i in range(1, n + 1)
                    for f in enumerate_family(n - i, Family.F_R, r)
                }
                split = []
                for tag in (PairSet.A_O, PairSet.A_T, PairSet.B):
                    split.extend((tuple(p.flat), p.count) for p in enumerate_family(n, tag, r))
                assert sorted(split) == sorted(everything)

    def test_a_and_b_equinumerous(self):
        for r in range(2, 6):
            for n in range(0, 26):
                assert count(n, PairSet.A, r) == count(n, PairSet.B, r)


# ---------------------------------------------------------------------------
# The pair-set and decorated-family tables: the membership readers accept
# exactly the members the lister streams, among every candidate of a size.
# ---------------------------------------------------------------------------

def candidate_pairs(n):
    """Every (partition, (s^i)) of size n, the partition flat or not."""
    return [RectanglePair(Partition(f), s, i)
            for s in range(1, n + 1) for i in range(1, n // s + 1)
            for f in all_partitions(n - s * i)]


def candidate_decorations(n):
    """Every mark and every overline on a last occurrence, over all partitions of n."""
    out = []
    for p in all_partitions(n):
        for i in range(1, len(p) + 1):
            out.append(DecoratedPartition(Partition(p), MARK, i))
            if i == len(p) or p[i] != p[i - 1]:
                out.append(DecoratedPartition(Partition(p), OVERLINE, i))
    return out


def residues(tag, r):
    return range(1, r) if tag in families._NEEDS_T else (None,)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_membership_readers_accept_exactly_the_listed_members(r):
    for n in range(0, 13):
        pairs, decorated = candidate_pairs(n), candidate_decorations(n)
        for tag in PairSet:
            for t in residues(tag, r):
                members = set(enumerate_family(n, tag, r, t))
                assert {p for p in pairs if is_member(p, tag, r, t)} == members, \
                    (n, tag, r, t)
        for family in families._DECORATED:
            for t in residues(family, r):
                members = set(enumerate_family(n, family, r, t))
                assert {d for d in decorated if is_member(d, family, r, t)} \
                    == members, (n, family, r, t)


def test_listed_members_are_what_the_public_constructors_build():
    # the listers build members without re-validation; each is exactly what
    # the checking constructor makes of the same fields
    for r in range(2, 6):
        for n in range(0, 17):
            for family in families._DECORATED:
                for t in residues(family, r):
                    for x in enumerate_family(n, family, r, t):
                        assert type(x.base) is Partition
                        assert x == DecoratedPartition(x.base, x.decoration, x.position)
            for tag in PairSet:
                for t in residues(tag, r):
                    for x in enumerate_family(n, tag, r, t):
                        assert type(x.flat) is Partition
                        assert x == RectanglePair(x.flat, x.part, x.count)


class TestValidation:
    def test_t_required_exactly_for_t_tags(self):
        with pytest.raises(ValueError):
            list(enumerate_family(5, Family.O_STAR, 3))
        with pytest.raises(ValueError):
            list(enumerate_family(5, Family.O_R, 3, 1))
        with pytest.raises(ValueError):
            list(enumerate_family(5, Family.O_STAR, 3, 3))  # t out of range
        with pytest.raises(ValueError):
            list(enumerate_family(5, PairSet.P_RT, 3))
        with pytest.raises(ValueError):
            list(enumerate_family(5, PairSet.A_O, 3, 1))

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            list(enumerate_family(5, Family.O_R, 1))

    def test_bool_size_rejected(self):
        assert count(1, Family.O_R, 3) == 1
        with pytest.raises(ValueError):
            count(True, Family.O_R, 3)
        with pytest.raises(ValueError):
            count(True, "Or", 3)

    def test_warm_pair_count_rejects_bool_size(self):
        # a warm cache must not answer a bool size with the count of 1
        assert count(1, "Ao", 3) == 1
        with pytest.raises(ValueError):
            count(True, "Ao", 3)
