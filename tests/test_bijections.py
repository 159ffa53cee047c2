"""The constructive maps: worked fixtures, traces, inverses, round trips.

The heavy exhaustive suites run at full scale in test_acceptance; here the
same properties run on smaller grids, plus the checks that only make sense
at module level (trace invariants, the tabulated-inverse cross-check,
removal-order independence).
"""

import os
import random
import subprocess
import sys
import textwrap
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import beckpart
from beckpart import (
    DecoratedPartition,
    Family,
    PairSet,
    Partition,
    RectanglePair,
    enumerate_family,
    enumerate_pairs,
    parse_partition,
    phi_forward,
    phi_inverse,
    psi1_forward,
    psi1_inverse,
    psi2_forward,
    psi2_inverse,
    psi_d_forward,
    psi_d_inverse,
    psi_o_forward,
    psi_o_inverse,
    psi_t_forward,
    psi_t_inverse,
    xi_forward,
    xi_inverse,
    zeta_forward,
    zeta_inverse,
)
from beckpart.bijections import (
    BijectionError,
    ConstructionError,
    _as_partition,
    _is_flat_list,
    _locked_split,
)
from beckpart.partitions import MARK, OVERLINE, _check_modulus


@lru_cache(maxsize=None)
def _forward_table(r, n):
    return {
        tuple(xi_forward(lam, r).output): tuple(lam)
        for lam in enumerate_family(n, Family.F_R, r)
    }


def xi_inverse_table(kappa, r):
    """Reference inverse via exhaustive forward tabulation (small sizes only)."""
    kappa = _as_partition(kappa)
    _check_modulus(r)
    if not kappa.is_regular(r):
        raise BijectionError(f"xi_inverse needs an {r}-regular partition, got ({kappa})")
    try:
        return Partition._make(_forward_table(r, kappa.size)[tuple(kappa)])
    except KeyError:
        raise ConstructionError(f"no preimage of ({kappa}) under xi at r = {r}") from None


class TestXiFixtures:
    def test_worked_instance(self):
        trace = xi_forward(Partition((22, 19, 15, 15, 13, 10, 6, 5, 2)), 5)
        assert trace.output == Partition((32, 24, 23, 16, 12))
        assert trace.nu == Partition((15, 5))
        assert trace.mu == Partition((22, 19, 15, 13, 10, 6, 2))
        assert trace.alpha_star == Partition((12, 9, 8, 6, 2))
        assert trace.beta_star == Partition((25, 25))
        assert trace.sigma == Partition((5, 5, 3, 1))

    def test_regular_flat_fixed_point(self):
        trace = xi_forward(Partition((2, 1)), 3)
        assert trace.output == Partition((2, 1))
        assert trace.nu == Partition() and trace.beta == Partition()

    def test_hand_executed_instance(self):
        trace = xi_forward(Partition((5, 3, 1)), 3)
        assert trace.nu == Partition()
        assert trace.alpha == Partition((5, 1)) and trace.beta == Partition((3,))
        assert tuple(trace.u) == (1,) and tuple(trace.v) == (1,)
        assert trace.alpha_star == Partition((2, 1)) and trace.beta_star == Partition((6,))
        assert trace.sigma == Partition((2,))
        assert trace.output == Partition((5, 4))
        assert trace.output.residue_profile(3)[1:] == Partition((5, 3, 1)).residue_profile(3)[1:]

    def test_inverse_fixtures(self):
        assert xi_inverse(Partition((32, 24, 23, 16, 12)), 5) == \
            Partition((22, 19, 15, 15, 13, 10, 6, 5, 2))
        assert xi_inverse(Partition(), 4) == Partition()
        assert xi_inverse(Partition((3, 1)), 2) == Partition((2, 1, 1))

    def test_domain_errors(self):
        with pytest.raises(BijectionError):
            xi_forward(Partition((7, 1)), 3)  # not flat
        with pytest.raises(BijectionError):
            xi_inverse(Partition((6, 1)), 3)  # not regular

    def test_empty(self):
        assert xi_forward(Partition(), 5).output == Partition()


class TestXiSuiteSmall:
    def test_bijection_and_trace_invariants(self):
        for r in range(2, 6):
            for n in range(0, 19):
                regs = set(enumerate_family(n, Family.O_R, r))
                images = set()
                for lam in enumerate_family(n, Family.F_R, r):
                    tr = xi_forward(lam, r)
                    # reassemble every claimed decomposition
                    assert tr.mu.union(tr.nu) == lam
                    assert tr.alpha.union(tr.beta) == tr.mu
                    assert all(p % r == 0 for p in tr.nu)
                    assert all(p % r == 0 for p in tr.beta_star)
                    assert tr.alpha - tr.u.scale(r) == tr.alpha_star
                    assert sorted(b + r * v for b, v in zip(tr.beta, tr.v)) == \
                        sorted(tr.beta_star)
                    assert tr.nu.union(tr.beta_star) == tr.sigma.scale(r)
                    assert tr.alpha_star + tr.sigma.conjugate().scale(r) == tr.output
                    if tr.sigma:
                        assert tr.sigma[0] <= len(tr.alpha_star)
                    # step-1 post-property: every divisible part of mu is locked
                    mu = list(tr.mu)
                    for idx, p in enumerate(mu):
                        if p % r == 0:
                            assert not _is_flat_list(mu[:idx] + mu[idx + 1:], r)
                    # residue preservation for every t
                    assert tr.output.residue_profile(r)[1:] == lam.residue_profile(r)[1:]
                    assert tr.output in regs and tr.output not in images
                    images.add(tr.output)
                assert images == regs

    def test_direct_inverse_matches_table(self):
        for r in (2, 3, 4):
            for n in range(0, 17):
                for kappa in enumerate_family(n, Family.O_R, r):
                    assert xi_inverse(kappa, r) == xi_inverse_table(kappa, r)

    def test_round_trip(self):
        for r in range(2, 6):
            for n in range(0, 17):
                for lam in enumerate_family(n, Family.F_R, r):
                    assert xi_inverse(xi_forward(lam, r).output, r) == lam


def random_flat(rng, r, length):
    """A random r-flat partition: final part in [1, r-1], other gaps in [0, r-1]."""
    if not length:
        return Partition()
    parts = [rng.randint(1, r - 1)]
    for _ in range(length - 1):
        parts.append(parts[-1] + rng.randint(0, r - 1))
    return Partition(parts[::-1])


@st.composite
def flat_inputs(draw, max_length=2000):
    r = draw(st.integers(2, 7))
    length = draw(st.integers(0, max_length))
    return random_flat(draw(st.randoms(use_true_random=False)), r, length), r


class TestXiAtScale:
    """ξ and ξ⁻¹ far beyond the exhaustive grids."""

    @pytest.mark.parametrize("r", [2, 5])
    def test_inverse_needs_no_recursion(self, r):
        # one open position per locked-part candidate: thousands at this length
        rng = random.Random(3000 + r)
        for _ in range(3):
            lam = random_flat(rng, r, 3000)
            assert xi_inverse(xi_forward(lam, r).output, r) == lam

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(flat_inputs())
    def test_round_trip_and_trace_invariants(self, case):
        lam, r = case
        tr = xi_forward(lam, r)
        assert tr.mu.union(tr.nu) == lam
        assert tr.alpha.union(tr.beta) == tr.mu
        assert all(p % r == 0 for p in tr.nu)
        assert all(p % r == 0 for p in tr.beta_star)
        assert tr.alpha - tr.u.scale(r) == tr.alpha_star
        assert sorted(b + r * v for b, v in zip(tr.beta, tr.v)) == sorted(tr.beta_star)
        assert tr.nu.union(tr.beta_star) == tr.sigma.scale(r)
        assert tr.alpha_star + tr.sigma.conjugate().scale(r) == tr.output
        if tr.sigma:
            assert tr.sigma[0] <= len(tr.alpha_star)
        # every divisible part of mu is locked: removing mu_i from the flat mu
        # would merge its two gaps into mu_{i-1} - mu_{i+1}, which must be >= r
        mu = tr.mu
        assert _is_flat_list(mu, r)
        for idx, p in enumerate(mu):
            if p % r == 0:
                below = mu[idx + 1] if idx + 1 < len(mu) else 0
                assert idx > 0 and mu[idx - 1] - below >= r
        assert tr.output.is_regular(r) and tr.output.size == lam.size
        assert tr.output.residue_profile(r)[1:] == lam.residue_profile(r)[1:]
        assert xi_inverse(tr.output, r) == lam


_BROKEN_HELPERS = """
    from types import SimpleNamespace
    from beckpart import Partition, bijections

    print("debug", __debug__)
    # a split that moves a part not divisible by r loses size in sigma
    split = bijections._locked_split
    bijections._locked_split = lambda lam, r: (list(lam)[1:], list(lam)[:1])
    try:
        bijections.xi_forward(Partition((2, 1)), 3)
    except bijections.ConstructionError as exc:
        print("xi_forward:", exc)
    bijections._locked_split = split
    # an identity in place of xi leaves two divisible values in phi's image
    bijections.xi_forward = lambda lam, r: SimpleNamespace(output=lam)
    try:
        bijections.phi_forward(Partition((9, 5, 3, 1)), 3)
    except bijections.ConstructionError as exc:
        print("phi_forward:", exc)
"""


class TestPostconditions:
    def test_checked_under_python_O(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(beckpart.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-O", "-c", textwrap.dedent(_BROKEN_HELPERS)],
            env=env, capture_output=True, text=True, check=True).stdout.splitlines()
        assert out[0] == "debug False"
        assert out[1].startswith("xi_forward: image (1) has size 1, not 3")
        assert out[2].startswith("phi_forward: phi image is not in O_1r")
        assert len(out) == 3


def _all_split_fixpoints(lam, r):
    """Every (mu, nu) reachable by removing removable divisible parts in any order."""
    results = set()
    seen = set()

    def rec(mu):
        if mu in seen:
            return
        seen.add(mu)
        moved = False
        for idx, p in enumerate(mu):
            if p % r == 0:
                cand = mu[:idx] + mu[idx + 1:]
                if _is_flat_list(cand, r):
                    moved = True
                    rec(cand)
        if not moved:
            results.add(mu)

    rec(tuple(lam))
    return results


class TestSplitOrderIndependence:
    def test_every_removal_order_reaches_one_fixpoint(self):
        for r in range(2, 6):
            for n in range(0, 21):
                for lam in enumerate_family(n, Family.F_R, r):
                    fixpoints = _all_split_fixpoints(lam, r)
                    assert len(fixpoints) == 1, (lam, r, fixpoints)
                    mu, _nu = _locked_split(lam, r)
                    assert tuple(mu) == next(iter(fixpoints))


class TestPhi:
    def test_worked_instance(self):
        lam = Partition((27, 24, 20, 15, 13, 10, 6, 5, 2))
        assert phi_forward(lam, 5) == Partition((32, 24, 23, 16, 12, 5, 5, 5))
        assert phi_inverse(Partition((32, 24, 23, 16, 12, 5, 5, 5)), 5) == lam

    def test_minimal_instance(self):
        assert phi_forward(Partition((3,)), 3) == Partition((3,))

    def test_round_trip_small(self):
        for r in range(2, 6):
            for n in range(0, 17):
                for lam in enumerate_family(n, Family.F_1R, r):
                    assert phi_inverse(phi_forward(lam, r), r) == lam
                for mu in enumerate_family(n, Family.O_1R, r):
                    assert phi_forward(phi_inverse(mu, r), r) == mu

    def test_domain_errors(self):
        with pytest.raises(BijectionError):
            phi_forward(Partition((2, 1)), 3)  # flat, no steep gap
        with pytest.raises(BijectionError):
            phi_inverse(Partition((5, 1)), 3)  # no divisible value


class TestPsi1:
    def test_case1_fixture(self):
        nu = DecoratedPartition(Partition((4, 3, 1)), OVERLINE, 2)
        pair = psi1_forward(nu, 3, 2)
        assert pair == RectanglePair(Partition((2, 1, 1)), 2, 2)
        assert psi1_inverse(pair, 3, 2) == nu

    def test_case2_fixture(self):
        pair = psi1_forward(Partition((5, 2, 1)), 3, 2)
        assert pair == RectanglePair(Partition((3, 2, 1)), 2, 1)
        assert psi1_inverse(pair, 3, 2) == Partition((5, 2, 1))

    def test_images_partition_pair_set(self):
        for r in (2, 3, 4):
            for t in range(1, r):
                for n in range(0, 15):
                    case1 = [psi1_forward(x, r, t)
                             for x in enumerate_family(n, Family.F_BAR, r, t)]
                    case2 = [psi1_forward(x, r, t)
                             for x in enumerate_family(n, Family.F_1R, r)]
                    assert not set(case1) & set(case2)
                    combined = case1 + case2
                    assert len(set(combined)) == len(combined)
                    assert set(combined) == set(enumerate_pairs(n, PairSet.P_RT, r, t))


class TestPsi2:
    def test_worked_instance(self):
        lam = DecoratedPartition(Partition((32, 24, 23, 16, 12, 7, 7)), MARK, 7)
        pair = psi2_forward(lam, 5, 2)
        assert pair == RectanglePair(Partition((22, 19, 15, 15, 13, 10, 6, 5, 2)), 7, 2)
        assert psi2_inverse(pair, 5, 2) == lam

    def test_smallest_instance(self):
        lam = DecoratedPartition(Partition((2,)), MARK, 1)
        assert psi2_forward(lam, 5, 2) == RectanglePair(Partition(), 2, 1)

    def test_round_trip_small(self):
        for r in (2, 3, 4):
            for t in range(1, r):
                for n in range(0, 15):
                    for lam in enumerate_family(n, Family.O_STAR, r, t):
                        assert psi2_inverse(psi2_forward(lam, r, t), r, t) == lam
                    for pair in enumerate_pairs(n, PairSet.P_RT, r, t):
                        assert psi2_forward(psi2_inverse(pair, r, t), r, t) == pair

    def test_mark_must_match_residue(self):
        with pytest.raises(BijectionError):
            psi2_forward(DecoratedPartition(Partition((3,)), MARK, 1), 5, 2)


class TestUnitRectangleMaps:
    def test_psi_o_fixture(self):
        lam = DecoratedPartition(Partition((32, 24, 23, 16, 16, 12)), OVERLINE, 5)
        pair = psi_o_forward(lam, 5)
        assert pair == RectanglePair(Partition((22, 19, 15, 15, 13, 10, 6, 5, 2)), 1, 16)
        assert psi_o_inverse(pair, 5) == lam

    def test_psi_o_minimal(self):
        lam = DecoratedPartition(Partition((1,)), OVERLINE, 1)
        assert psi_o_forward(lam, 3) == RectanglePair(Partition(), 1, 1)

    def test_psi_d_fixture(self):
        lam = DecoratedPartition(Partition((20, 20, 20, 17, 13, 10, 10, 10, 3)), OVERLINE, 3)
        pair = psi_d_forward(lam, 5)
        assert pair == RectanglePair(parse_partition("8^3,7^7,4^3,3^4,2^3"), 1, 20)
        assert psi_d_inverse(pair, 5) == lam

    def test_psi_t_fixture(self):
        lam = parse_partition("20,17,13,10^7,3")
        pair = psi_t_forward(lam, 5)
        assert pair == RectanglePair(parse_partition("6^3,5^7,3^3,2^4,1^3"), 1, 50)
        assert psi_t_inverse(pair, 5) == lam

    def test_psi_t_minimal(self):
        for r in (2, 3, 5):
            lam = Partition((1,) * (r + 1))
            assert psi_t_forward(lam, r) == RectanglePair(Partition((1,)), 1, r)

    def test_round_trips_small(self):
        for r in (2, 3, 5):
            for n in range(0, 15):
                for lam in enumerate_family(n, Family.O_BAR, r):
                    assert psi_o_inverse(psi_o_forward(lam, r), r) == lam
                for pair in enumerate_pairs(n, PairSet.A_O, r):
                    assert psi_o_forward(psi_o_inverse(pair, r), r) == pair
                for lam in enumerate_family(n, Family.D_BAR, r):
                    assert psi_d_inverse(psi_d_forward(lam, r), r) == lam
                for pair in enumerate_pairs(n, PairSet.A_D, r):
                    assert psi_d_forward(psi_d_inverse(pair, r), r) == pair
                for lam in enumerate_family(n, Family.T_R, r):
                    assert psi_t_inverse(psi_t_forward(lam, r), r) == lam
                for pair in enumerate_pairs(n, PairSet.A_T, r):
                    assert psi_t_forward(psi_t_inverse(pair, r), r) == pair

    def test_psi_d_image_side_condition(self):
        for n in range(0, 21):
            for lam in enumerate_family(n, Family.D_BAR, 3):
                pair = psi_d_forward(lam, 3)
                i = pair.count
                assert pair.flat.part_at(i) - pair.flat.part_at(i + 1) <= 1


class TestZeta:
    def test_trivial_fixture(self):
        pair = zeta_forward(RectanglePair(Partition((2,)), 1, 1), 3)
        assert pair == RectanglePair(Partition(), 1, 3)
        assert zeta_inverse(pair, 3) == RectanglePair(Partition((2,)), 1, 1)

    def test_derived_fixture(self):
        pair = zeta_forward(RectanglePair(Partition((2, 1)), 1, 1), 2)
        assert pair == RectanglePair(Partition((1, 1)), 1, 2)

    def test_round_trip_small(self):
        for r in range(2, 6):
            for n in range(0, 17):
                a = list(enumerate_pairs(n, PairSet.A, r))
                b = list(enumerate_pairs(n, PairSet.B, r))
                images = [zeta_forward(p, r) for p in a]
                assert len(set(images)) == len(images)
                assert set(images) == set(b)
                for p in a:
                    assert zeta_inverse(zeta_forward(p, r), r) == p
                for p in b:
                    assert zeta_forward(zeta_inverse(p, r), r) == p

    def test_side_condition_errors(self):
        with pytest.raises(BijectionError):
            zeta_forward(RectanglePair(Partition((1,)), 1, 1), 3)  # gap != r-1
        with pytest.raises(BijectionError):
            zeta_inverse(RectanglePair(Partition((1,)), 1, 2), 3)  # height not divisible
