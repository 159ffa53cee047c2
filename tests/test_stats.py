"""Statistics and the aggregate excess quantities."""

import pytest

from beckpart import families, stats
from beckpart import (
    Family,
    Partition,
    beck_b,
    beck_b_prime,
    count,
    enumerate_family,
    excess_Ert,
    excess_Ert_flat,
    parse_partition,
    stat_report,
    total_repeated_values,
    total_residue_parts,
)
from helpers import totals


# ---------------------------------------------------------------------------
# Listing oracles: the statistic totals summed member by member.  Vectors are
# indexed by residue/threshold t with entry 0 unused.
# ---------------------------------------------------------------------------

def regular_totals(n, r):
    count = parts = distinct = 0
    residue = [0] * r
    for lam in enumerate_family(n, Family.O_R, r):
        count += 1
        parts += len(lam)
        distinct += len(lam.multiplicities())
        for p in lam:
            residue[p % r] += 1
    return count, parts, tuple(residue), distinct


def bounded_totals(n, r):
    count = parts = distinct = 0
    repeats = [0] * r  # repeats[t] = total number of values repeated >= t
    for lam in enumerate_family(n, Family.D_R, r):
        count += 1
        parts += len(lam)
        mult = lam.multiplicities()
        distinct += len(mult)
        for c in mult.values():
            for t in range(1, min(c, r - 1) + 1):
                repeats[t] += 1
    return count, parts, tuple(repeats), distinct


def flat_totals(n, r):
    count = 0
    residue = [0] * r
    steep = [0] * r  # steep[t] = total number of gaps >= t
    for lam in enumerate_family(n, Family.F_R, r):
        count += 1
        for p in lam:
            residue[p % r] += 1
        for g in lam.gaps():
            for t in range(1, min(g, r - 1) + 1):
                steep[t] += 1
    return count, tuple(residue), tuple(steep)


def test_totals_match_listing_oracle():
    for r in range(2, 7):
        for n in range(0, 31):
            regular = totals(n, Family.O_R, r)
            bounded = totals(n, Family.D_R, r)
            flat = totals(n, Family.F_R, r)
            assert (regular.count, regular.parts, regular.residue, regular.distinct) \
                == regular_totals(n, r), (n, r)
            assert (bounded.count, bounded.parts, bounded.repeats, bounded.distinct) \
                == bounded_totals(n, r), (n, r)
            assert (flat.count, flat.residue, flat.steep) == flat_totals(n, r), (n, r)


class TestStatReport:
    def test_flat_witness_fixture(self):
        # a flat partition whose signed term ell_t - d_t is negative
        rep = stat_report(Partition((10, 7, 7, 5, 4, 3)), 4, 2)
        assert rep.ell_t == 1 and rep.d_t == 3
        assert rep.ell_t - rep.d_t == -2

    def test_empty(self):
        rep = stat_report(Partition(), 4, 2)
        assert (rep.ell, rep.ell_t, rep.ell_bar_t, rep.d_t, rep.ell_bar) == (0, 0, 0, 0, 0)

    def test_repeat_counts(self):
        rep = stat_report(parse_partition("5^2,4,3^3,1^2"), 4, 2)
        assert rep.ell_bar_t == 3  # 5, 3 and 1 appear at least twice
        assert rep.ell_bar == 4

    def test_d_t_counts_final_gap(self):
        assert stat_report(Partition((3,)), 4, 3).d_t == 1
        assert stat_report(Partition((3,)), 4, 2).d_t == 1

    def test_t_range_validated(self):
        with pytest.raises(ValueError):
            stat_report(Partition((3,)), 4, 4)
        with pytest.raises(ValueError):
            stat_report(Partition((3,)), 4, 0)


class TestAggregates:
    def test_excess_fixture(self):
        # O_2(5) carries 9 odd parts, D_2(5) carries 5 distinct values
        assert total_residue_parts(5, 2, 1) == 9
        assert total_repeated_values(5, 2, 1) == 5
        assert excess_Ert(5, 2, 1) == 4

    def test_zero_size(self):
        assert excess_Ert(0, 3, 2) == 0
        assert beck_b(0, 4) == 0
        assert beck_b_prime(0, 4) == 0

    def test_beck_fixtures(self):
        assert beck_b(5, 2) == 4
        assert beck_b_prime(5, 2) == 1

    def test_warm_totals_reject_non_int_sizes(self):
        # a warm totals cache must not answer True or 1.0 with the totals of 1
        assert excess_Ert(1, 3, 1) == 0
        for call in (lambda: excess_Ert(True, 3, 1), lambda: beck_b(1.0, 3),
                     lambda: total_residue_parts(True, 3, 1)):
            with pytest.raises(ValueError):
                call()

    def test_totals_count_decorated_families(self):
        for r in (2, 3):
            for n in range(0, 15):
                for t in range(1, r):
                    assert total_residue_parts(n, r, t) == count(n, Family.O_STAR, r, t)
                    assert total_repeated_values(n, r, t) == count(n, Family.F_BAR, r, t)


class TestColumns:
    SCALARS = {f.__name__: f for f in (total_residue_parts, total_repeated_values, excess_Ert,
                                       excess_Ert_flat, beck_b, beck_b_prime)}

    def test_columns_are_the_aggregates_of_each_n(self):
        for r in (2, 3, 5, 40):
            for name, scalar in self.SCALARS.items():
                takes_t = name not in ("beck_b", "beck_b_prime")
                for t in range(1, min(r, 6)) if takes_t else (None,):
                    args = (r, t) if takes_t else (r,)
                    assert stats.column(name, 24, r, t) == \
                        [scalar(n, *args) for n in range(25)], (name, r, t)

    def test_bad_columns_are_refused(self):
        for call, why in ((lambda: stats.column("beck_c", 5, 3), "unknown aggregate"),
                          (lambda: stats.column("excess_Ert", 5, 3), "requires the residue"),
                          (lambda: stats.column("excess_Ert", 5, 3, 3), "must lie in"),
                          (lambda: stats.column("beck_b", 5, 3, 1), "does not take"),
                          (lambda: stats.column("beck_b", -1, 3), "non-negative"),
                          (lambda: stats.column("beck_b", 5, 1), "modulus")):
            with pytest.raises(ValueError, match=why):
                call()


    def test_a_read_answers_as_it_would_cold(self):
        # A table grows to twice the held size only where the cost model
        # admits that size, and is built at the n asked for otherwise, so a
        # read gives the same answer, or the same refusal, whatever was read
        # before it.  At r = 10**6 the flat totals are admitted at 110 but
        # not at 2 * 100 = 200.
        families.clear_caches()
        cold = excess_Ert_flat(110, 10 ** 6, 1)
        families.clear_caches()
        excess_Ert_flat(100, 10 ** 6, 1)
        assert excess_Ert_flat(110, 10 ** 6, 1) == cold
        # refused at n = 200, not at the doubled 220, and named by that n
        with pytest.raises(ValueError, match="^n = 200 is too large at r = 1000000: "):
            excess_Ert_flat(200, 10 ** 6, 1)


class TestInvariants:
    def test_repeat_thresholds_sum_to_length(self):
        # summing ell_bar_t over t = 1..r-1 recounts every part of a bounded partition
        for r in range(2, 6):
            for n in range(0, 31):
                for lam in enumerate_family(n, Family.D_R, r):
                    mult = lam.multiplicities()
                    total = sum(
                        sum(1 for c in mult.values() if c >= t) for t in range(1, r))
                    assert total == len(lam)

    def test_excess_agrees_with_flat_route(self):
        for r in range(2, 6):
            for n in range(0, 31):
                for t in range(1, r):
                    assert excess_Ert(n, r, t) == excess_Ert_flat(n, r, t)

    def test_excess_agrees_with_flat_route_at_scale(self):
        # the flat totals carry the gap of every state, here at n = 300
        for t in (1, 2):
            assert excess_Ert_flat(300, 3, t) == excess_Ert(300, 3, t)

    def test_excess_nonnegative(self):
        for r in range(2, 6):
            for n in range(0, 31):
                for t in range(1, r):
                    assert excess_Ert(n, r, t) >= 0
