"""Family enumeration against independent filter oracles, plus frozen fixtures."""

from collections import Counter
from functools import lru_cache
from operator import add

import pytest

import beckpart
from beckpart import families
from beckpart import (
    DecoratedPartition,
    Family,
    PairSet,
    Partition,
    RectanglePair,
    count,
    count_pairs,
    enumerate_family,
    enumerate_pairs,
    gf,
    is_member,
)
from beckpart.partitions import MARK, OVERLINE

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
    for r in range(2, 7):
        for n in range(0, 26):
            for family in Family:
                if family is Family.ALL:
                    cases = [(None, None)]
                elif family in (Family.O_STAR, Family.F_BAR):
                    cases = [(r, t) for t in range(1, r)]
                else:
                    cases = [(r, None)]
                for rr, t in cases:
                    assert count(n, family, rr, t) == \
                        len(list(enumerate_family(n, family, rr, t))), (n, family, rr, t)


def test_is_member_matches_filter_oracle():
    for r in range(2, 7):
        for n in range(0, 19):
            for family in PLAIN:
                members = set(oracle_filter(n, family, r))
                for p in all_partitions(n):
                    assert is_member(Partition(p), family, r) == (p in members), (p, family, r)


def test_listing_recovers_from_a_failed_search(monkeypatch):
    # a move search cut short by an error must not be cached as complete
    full = list(enumerate_family(12, Family.T_R, 3))
    families._live.cache_clear()
    families._completes.cache_clear()
    search = families._completes
    calls = []

    def failing(*args):
        calls.append(args)
        if len(calls) == 40:
            raise RuntimeError("interrupted")
        return search(*args)

    monkeypatch.setattr(families, "_completes", failing)
    with pytest.raises(RuntimeError):
        list(enumerate_family(12, Family.T_R, 3))
    monkeypatch.undo()
    assert list(enumerate_family(12, Family.T_R, 3)) == full


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

    return families._Totals(s[0], s[1], s[2], s[3:3 + r],
                            at_least(s[3 + r:3 + 2 * r]), at_least(s[3 + 2 * r:]))


def test_counts_and_totals_match_the_walk_oracle():
    for r in range(2, 8):
        for n in range(0, 41):
            for family in PLAIN:
                spec = families._SPEC[family]
                assert count(n, family, None if family is Family.ALL else r) == \
                    walk_count(n, 0, 0, *spec, r), (n, family, r)
                got = families._totals(n, family, r)
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

    def test_counts_between_table_sizes(self):
        # n on either side of a power of two reads tables of different sizes
        for n in (15, 16, 17, 31, 32, 33, 64, 65):
            assert count(n, Family.F_1R, 4) == walk_count(n, 0, 0, *families._SPEC[Family.F_1R], 4)


def test_clear_caches_empties_every_memo():
    count(12, Family.O_1R, 3)
    families._totals(12, Family.F_R, 3)
    list(enumerate_family(12, Family.T_R, 3))
    count_pairs(6, PairSet.A, 2)
    memos = [obj for obj in vars(families).values() if callable(getattr(obj, "cache_info", None))]
    assert len(memos) >= 6 and all(m.cache_info().currsize for m in memos)
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
        pairs = set(enumerate_pairs(8, PairSet.P_RT, 3, 2))
        assert RectanglePair(Partition((2, 1, 1)), 2, 2) in pairs
        assert RectanglePair(Partition((3, 2, 1)), 2, 1) in pairs

    def test_empty_at_zero(self):
        assert list(enumerate_pairs(0, PairSet.P_RT, 3, 2)) == []

    def test_no_duplicates_and_predicates(self):
        for r in (2, 3, 5):
            for n in range(0, 16):
                for tag in (PairSet.A_O, PairSet.A_D, PairSet.A_T, PairSet.A, PairSet.B):
                    pairs = list(enumerate_pairs(n, tag, r))
                    assert len(set(pairs)) == len(pairs)
                    for p in pairs:
                        assert p.size == n and p.part == 1
                        assert p.flat.is_flat(r)
                        j, i = p.count // r, p.count
                        if tag is PairSet.A_O:
                            assert i % r != 0
                        elif tag is PairSet.A_D:
                            assert p.flat.part_at(i) - p.flat.part_at(i + 1) < r - 1
                        elif tag is PairSet.A_T:
                            assert i % r == 0
                            assert p.flat.part_at(j) - p.flat.part_at(j + 1) > 0
                        elif tag is PairSet.A:
                            assert p.flat.part_at(i) - p.flat.part_at(i + 1) == r - 1
                        else:
                            assert i % r == 0
                            assert p.flat.part_at(j) - p.flat.part_at(j + 1) == 0

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
                    split.extend((tuple(p.flat), p.count) for p in enumerate_pairs(n, tag, r))
                assert sorted(split) == sorted(everything)

    def test_a_and_b_equinumerous(self):
        for r in range(2, 6):
            for n in range(0, 26):
                assert count_pairs(n, PairSet.A, r) == count_pairs(n, PairSet.B, r)


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
                members = set(enumerate_pairs(n, tag, r, t))
                assert {p for p in pairs if families._in_pairs(p, tag, r, t)} == members, \
                    (n, tag, r, t)
        for family in families._DECORATED:
            for t in residues(family, r):
                members = set(enumerate_family(n, family, r, t))
                assert {d for d in decorated if families._in_decorated(d, family, r, t)} \
                    == members, (n, family, r, t)


class TestValidation:
    def test_t_required_exactly_for_t_tags(self):
        with pytest.raises(ValueError):
            list(enumerate_family(5, Family.O_STAR, 3))
        with pytest.raises(ValueError):
            list(enumerate_family(5, Family.O_R, 3, 1))
        with pytest.raises(ValueError):
            list(enumerate_family(5, Family.O_STAR, 3, 3))  # t out of range
        with pytest.raises(ValueError):
            list(enumerate_pairs(5, PairSet.P_RT, 3))
        with pytest.raises(ValueError):
            list(enumerate_pairs(5, PairSet.A_O, 3, 1))

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
        assert count_pairs(1, "Ao", 3) == 1
        with pytest.raises(ValueError):
            count_pairs(True, "Ao", 3)
