"""Exact truncated series: ring operations, named series, Lambert sums."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beckpart import (
    Family,
    TruncatedSeries,
    count,
    excess_Ert,
    gf,
    lambert_sum,
    total_repeated_values,
    total_residue_parts,
)
from beckpart.qseries import DEGREE_LIMIT, GF_NAMES


def eta_quotient_oracle(r, bound):
    """The eta quotient by one multiply and one divide per factor, O(bound^2)."""
    c = [0] * (bound + 1)
    c[0] = 1
    for n in range(1, bound + 1):
        k = r * n
        if k <= bound:
            for i in range(bound, k - 1, -1):  # multiply by (1 - q^k)
                c[i] -= c[i - k]
        for i in range(n, bound + 1):          # divide by (1 - q^n)
            c[i] += c[i - n]
    return tuple(c)


def schoolbook_oracle(a, b):
    """Coefficients of the truncated product a * b, term by term."""
    n = a.bound
    out = [0] * (n + 1)
    for i, x in enumerate(a.coeffs):
        if x == 0:
            continue
        for j, y in enumerate(b.coeffs[: n + 1 - i]):
            if y:
                out[i + j] += x * y
    return tuple(out)


GF_LAMBERT = {"O_r": None, "O_1r": "multiples", "parts_t_in_Or": "progression",
              "repeats_t_in_Dr": "repeat-excess", "E_rt": "multiples"}


def gf_oracle(name, r, t, bound):
    """``gf`` assembled from the two oracles: eta quotient times its Lambert sum."""
    eta = TruncatedSeries(bound, eta_quotient_oracle(r, bound))
    family = GF_LAMBERT[name]
    if family is None:
        return eta.coeffs
    lambert = lambert_sum(family, r, None if family == "multiples" else t, bound)
    return schoolbook_oracle(eta, lambert)


@st.composite
def series_pairs(draw):
    """Two series of one bound; each is mixed-sign, nonnegative or nonpositive,
    with magnitudes up to 1, 7, 255, 10**6, 2**64 - 1 or 10**60, and zeros and
    the extreme values mixed in (extremes fill the packing slots)."""
    bound = draw(st.integers(0, 60))

    def operand():
        mag = draw(st.sampled_from([1, 7, 255, 10 ** 6, 2 ** 64 - 1, 10 ** 60]))
        lo, hi = draw(st.sampled_from([(-mag, mag), (0, mag), (-mag, 0)]))
        values = st.integers(lo, hi) | st.sampled_from([0, lo, hi])
        coeffs = draw(st.lists(values, max_size=bound + 1))
        return TruncatedSeries(bound, coeffs)

    return operand(), operand()


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
        assert a + TruncatedSeries(4) == a
        assert a - a == TruncatedSeries(4)

    def test_geometric_telescopes(self):
        n = 20
        product = TruncatedSeries(n, [1] * (n + 1)) * TruncatedSeries(n, (1, -1))
        assert product == TruncatedSeries(n, (1,))

    def test_bool_coefficient_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries(3, (True, 1))

    @pytest.mark.parametrize("bound", [2.5, "7", -1, True, None, DEGREE_LIMIT + 1])
    def test_rejects_bad_bound(self, bound):
        with pytest.raises(ValueError):
            TruncatedSeries(bound)

    def test_bound_mismatch(self):
        with pytest.raises(ValueError):
            TruncatedSeries(3) + TruncatedSeries(4)

    def test_exactness_big_integers(self):
        big = 10 ** 40
        a = TruncatedSeries(2, (big, big))
        assert (a * a)[1] == 2 * big * big
        assert (a * a)[2] == big * big

    @pytest.mark.parametrize("bound, a, b", [
        (0, (0,), (0,)),
        (0, (-3,), (5,)),
        (0, (-(10 ** 60),), (-(10 ** 60),)),
        (5, (), (1, 2, 3)),
        (5, (0, 0, 7), (0, 0, 0, -2)),
        (5, (-1, -1, -1, -1, -1, -1), (-1, -2, -3, -4, -5, -6)),
        (4, (1, -1, 1, -1, 1), (1, 1, 1, 1, 1)),
        (3, (10 ** 60, -(10 ** 60)), (-(10 ** 60), 1, 10 ** 60)),
        (0, (128,), (1,)),
        (0, (-128,), (1,)),
        (1, (8, 8), (8, 8)),
        (40, (255,) * 41, (255,) * 41),
        (40, (-(2 ** 64 - 1),) * 41, (2 ** 64 - 1, -(2 ** 64 - 1)) * 20),
    ])
    def test_product_edge_cases(self, bound, a, b):
        a, b = TruncatedSeries(bound, a), TruncatedSeries(bound, b)
        assert (a * b).coeffs == schoolbook_oracle(a, b)
        assert (b * a).coeffs == schoolbook_oracle(a, b)

    @settings(max_examples=200, deadline=None)
    @given(series_pairs())
    def test_product_matches_schoolbook(self, pair):
        a, b = pair
        assert (a * b).coeffs == schoolbook_oracle(a, b)


class TestEtaQuotient:
    def test_constant_term(self):
        assert gf("O_r", 3, bound=10)[0] == 1

    def test_counts_regular_partitions(self):
        assert gf("O_r", 2, bound=5)[5] == 3
        for r in (2, 3, 5):
            series = gf("O_r", r, bound=20)
            for n in range(0, 21):
                assert series[n] == count(n, Family.O_R, r)

    @pytest.mark.parametrize("r", range(2, 8))
    def test_matches_product_oracle(self, r):
        for bound in (0, 1, 2, 5, 7, 12, 51, 400):
            assert gf("O_r", r, bound=bound).coeffs == eta_quotient_oracle(r, bound)


class TestLambert:
    def test_even_multiples_against_divisor_oracle(self):
        series = lambert_sum("multiples", 2, bound=6)
        assert series.coeffs == divisor_multiples_oracle(6, 2, 6)
        assert series.coeffs == (0, 0, 1, 0, 2, 0, 2)

    def test_zero_below_least_exponent(self):
        assert lambert_sum("progression", 5, 3, 2) == TruncatedSeries(2)

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

    @pytest.mark.parametrize("family, t", [("multiples", None), ("progression", 1),
                                           ("mixed", 2), ("repeat-excess", 1)])
    @pytest.mark.parametrize("bound", [2.5, "7", -1, True, None, DEGREE_LIMIT + 1])
    def test_rejects_bad_bound(self, family, t, bound):
        with pytest.raises(ValueError):
            lambert_sum(family, 3, t, bound)


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

    @pytest.mark.parametrize("name", ["O_r", "O_1r"])
    def test_refuses_t_without_meaning(self, name):
        with pytest.raises(ValueError, match="does not take a residue t"):
            gf(name, 3, 1, 5)

    @pytest.mark.parametrize("r", range(2, 7))
    def test_every_name_matches_oracle_assembly(self, r):
        for name in GF_NAMES:
            for t in (range(1, r) if name in ("parts_t_in_Or", "repeats_t_in_Dr") else (None,)):
                assert gf(name, r, t, 400).coeffs == gf_oracle(name, r, t, 400), (name, t)

    @pytest.mark.parametrize("r", range(2, 8))
    def test_every_name_matches_the_kronecker_product_at_1500(self, r):
        eta = gf("O_r", r, bound=1500)
        for name in GF_NAMES:
            family = GF_LAMBERT[name]
            for t in (range(1, r) if name in ("parts_t_in_Or", "repeats_t_in_Dr") else (None,)):
                expected = eta if family is None else eta * lambert_sum(
                    family, r, None if family == "multiples" else t, 1500)
                assert gf(name, r, t, 1500) == expected, (name, t)

    def test_difference_assembles_excess_series_at_4096(self):
        ert = gf("E_rt", 7, bound=4096)
        for t in range(1, 7):
            assert gf("parts_t_in_Or", 7, t, 4096) - gf("repeats_t_in_Dr", 7, t, 4096) == ert, t

    def test_named_series_take_no_dense_product(self, monkeypatch):
        def refused(self, other):
            raise AssertionError("gf took a dense product")

        monkeypatch.setattr(TruncatedSeries, "__mul__", refused)
        for name in GF_NAMES:
            for t in (range(1, 4) if name in ("parts_t_in_Or", "repeats_t_in_Dr") else (None,)):
                assert gf(name, 4, t, 60).coeffs == gf_oracle(name, 4, t, 60), (name, t)


class TestDegrees:
    @pytest.mark.parametrize("degree", [True, False, 1.0, "1", None, -1, 4])
    def test_coefficient_rejects_bad_degree(self, degree):
        series = gf("O_r", 2, bound=3)
        with pytest.raises(ValueError):
            series.coefficient(degree)
        with pytest.raises(ValueError):
            series[degree]

    def test_valid_degrees(self):
        assert TruncatedSeries(3, (0, 5)).coeffs == (0, 5, 0, 0)
        assert gf("O_r", 2, bound=3)[3] == 2


class TestDump:
    def test_tab_separated_lines(self):
        dump = gf("O_r", 2, bound=3).dump()
        assert dump == "0\t1\n1\t1\n2\t1\n3\t2"
