"""Exact truncated series: ring operations, named series, Lambert sums."""

import pytest

from beckpart import (
    Family,
    TruncatedSeries,
    count,
    eta_quotient,
    excess_Ert,
    geometric,
    gf,
    lambert_sum,
    total_repeated_values,
    total_residue_parts,
)


def divisor_multiples_oracle(k, step, bound):
    """Coefficients of sum over m>=1 of q^(m*step)/(1-q^(m*step)) by divisor counting."""
    c = [0] * (bound + 1)
    for n in range(1, bound + 1):
        c[n] = sum(1 for d in range(1, n + 1) if n % d == 0 and d % step == 0)
    return tuple(c)


class TestRing:
    def test_difference_of_squares(self):
        one_plus = TruncatedSeries(2, (1, 1))
        one_minus = TruncatedSeries(2, (1, -1))
        assert one_plus * one_minus == TruncatedSeries(2, (1, 0, -1))

    def test_additive_identity(self):
        a = TruncatedSeries(4, (3, 0, 1, 2, 7))
        assert a + TruncatedSeries.zero(4) == a
        assert a - a == TruncatedSeries.zero(4)

    def test_geometric_telescopes(self):
        n = 20
        product = geometric(1, n) * TruncatedSeries(n, (1, -1))
        assert product == TruncatedSeries.one(n)

    def test_bool_coefficient_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries(3, (True, 1))

    def test_bound_mismatch(self):
        with pytest.raises(ValueError):
            TruncatedSeries(3) + TruncatedSeries(4)

    def test_exactness_big_integers(self):
        big = 10 ** 40
        a = TruncatedSeries(2, (big, big))
        assert (a * a)[1] == 2 * big * big
        assert (a * a)[2] == big * big


class TestGeometric:
    def test_small(self):
        assert geometric(3, 7).coeffs == (1, 0, 0, 1, 0, 0, 1, 0)
        assert geometric(1, 3).coeffs == (1, 1, 1, 1)

    def test_truncates_beyond_bound(self):
        assert geometric(6, 5) == TruncatedSeries.one(5)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            geometric(0, 5)

    def test_rejects_bool_step(self):
        with pytest.raises(ValueError):
            geometric(True, 5)


class TestEtaQuotient:
    def test_constant_term(self):
        assert eta_quotient(3, 10)[0] == 1

    def test_counts_regular_partitions(self):
        assert eta_quotient(2, 5)[5] == 3
        for r in (2, 3, 5):
            series = eta_quotient(r, 20)
            for n in range(0, 21):
                assert series[n] == count(n, Family.O_R, r)


class TestLambert:
    def test_even_multiples_against_divisor_oracle(self):
        series = lambert_sum("multiples", 2, bound=6)
        assert series.coeffs == divisor_multiples_oracle(6, 2, 6)
        assert series.coeffs == (0, 0, 1, 0, 2, 0, 2)

    def test_zero_below_least_exponent(self):
        assert lambert_sum("progression", 5, 3, 2) == TruncatedSeries.zero(2)

    def test_progression_equals_mixed(self):
        # the two expansions of the same double sum agree as truncated series
        for r in (2, 3, 4, 5):
            for t in range(1, r):
                assert lambert_sum("progression", r, t, 60) == lambert_sum("mixed", r, t, 60)

    def test_validation(self):
        with pytest.raises(ValueError):
            lambert_sum("progression", 3, None, 10)
        with pytest.raises(ValueError):
            lambert_sum("multiples", 3, 1, 10)
        with pytest.raises(ValueError):
            lambert_sum("nope", 3, 1, 10)


class TestNamedSeries:
    def test_excess_series_matches_enumeration(self):
        for r in (2, 3):
            series = gf("E_rt", r, bound=25)
            for t in range(1, r):
                for n in range(0, 26):
                    assert series[n] == excess_Ert(n, r, t)

    def test_one_violation_series_matches_counts(self):
        for r in (2, 3):
            series = gf("O_1r", r, bound=25)
            for n in range(0, 26):
                assert series[n] == count(n, Family.O_1R, r)
                assert series[n] == count(n, Family.D_1R, r)

    def test_derivative_series_match_totals(self):
        for r, t in ((2, 1), (3, 2)):
            parts = gf("parts_t_in_Or", r, t, 20)
            repeats = gf("repeats_t_in_Dr", r, t, 20)
            for n in range(0, 21):
                assert parts[n] == total_residue_parts(n, r, t)
                assert repeats[n] == total_repeated_values(n, r, t)

    def test_difference_assembles_excess_series(self):
        for r in (2, 3, 4):
            ert = gf("E_rt", r, bound=30)
            for t in range(1, r):
                parts = gf("parts_t_in_Or", r, t, 30)
                repeats = gf("repeats_t_in_Dr", r, t, 30)
                assert parts - repeats == ert

    def test_excess_series_independent_of_t(self):
        for r in (3, 4, 5):
            reference = gf("E_rt", r, 1, 30)
            for t in range(2, r):
                assert gf("E_rt", r, t, 30) == reference

    def test_missing_t(self):
        with pytest.raises(ValueError):
            gf("parts_t_in_Or", 3, None, 10)


class TestDump:
    def test_tab_separated_lines(self):
        dump = eta_quotient(2, 3).dump()
        assert dump == "0\t1\n1\t1\n2\t1\n3\t2"
