"""The constructive maps: worked fixtures, traces, inverses, round trips.

The heavy exhaustive suites run at full scale in test_acceptance; here the
same properties run on smaller grids, plus the checks that only make sense
at module level (trace invariants, the tabulated-inverse cross-check,
removal-order independence).
"""

import hashlib
import os
import random
import subprocess
import sys
import textwrap
import time
from collections import Counter
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
from beckpart import bijections
from beckpart.bijections import (
    _TRACE_FIELDS,
    BijectionError,
    ConstructionError,
    _as_partition,
    _is_flat_list,
    _locked_split,
)
from beckpart.partitions import MARK, OVERLINE, _check_modulus, rectangle


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
    if not all(p % r for p in kappa):
        raise BijectionError(f"xi_inverse needs an r-regular partition at r = {r}, got ({kappa})")
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
        assert (Counter(p % 3 for p in trace.output if p % 3)
                == Counter(p % 3 for p in (5, 3, 1) if p % 3))

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


class TestXiTracePinned:
    # sha256 of repr(as_dict()) of every trace below, taken in enumeration
    # order from the eagerly built trace that the lazy one replaced
    DIGEST = "0392f4e516f7e44a3b2ae5ab3e712fcff1868d98c04d199220b32f2009e9b1c0"

    @staticmethod
    def grid():
        for r in range(2, 6):
            for n in range(0, 19):
                for lam in enumerate_family(n, Family.F_R, r):
                    yield lam, r

    def test_trace_digest(self):
        h = hashlib.sha256()
        for lam, r in self.grid():
            h.update(repr(xi_forward(lam, r).as_dict()).encode())
        assert h.hexdigest() == self.DIGEST

    def test_fields_do_not_depend_on_read_order(self):
        rng = random.Random(18)
        names = list(_TRACE_FIELDS)
        for lam, r in self.grid():
            rng.shuffle(names)
            tr = xi_forward(lam, r)
            first = {name: getattr(tr, name) for name in names}
            assert all(getattr(tr, name) is first[name] for name in names)
            assert {name: list(v) for name, v in first.items()} == xi_forward(lam, r).as_dict()

    def test_fields_are_read_only(self):
        tr = xi_forward(Partition((5, 3, 1)), 3)
        for name in _TRACE_FIELDS:
            with pytest.raises(AttributeError):
                setattr(tr, name, Partition())
        assert tr.output == Partition((5, 4))


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
                    assert tr.alpha - Partition([r * p for p in tr.u]) == tr.alpha_star
                    assert sorted(b + r * v for b, v in zip(tr.beta, tr.v)) == \
                        sorted(tr.beta_star)
                    assert tr.nu.union(tr.beta_star) == Partition([r * p for p in tr.sigma])
                    assert (tr.alpha_star + Partition([r * p for p in tr.sigma.conjugate()])
                            == tr.output)
                    if tr.sigma:
                        assert tr.sigma[0] <= len(tr.alpha_star)
                    # step-1 post-property: every divisible part of mu is locked
                    mu = list(tr.mu)
                    for idx, p in enumerate(mu):
                        if p % r == 0:
                            assert not _is_flat_list(mu[:idx] + mu[idx + 1:], r)
                    # residue preservation for every t
                    assert (Counter(p % r for p in tr.output if p % r)
                            == Counter(p % r for p in lam if p % r))
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

    def test_a_huge_modulus_costs_no_more_than_a_small_one(self):
        # the image's residues are checked against the input's by sorting
        # them, not by counting each of the r - 1 residues
        start = time.perf_counter()
        assert xi_forward(Partition((1,)), 10 ** 7).output == (1,)
        assert xi_inverse(Partition((1,)), 10 ** 7) == (1,)
        assert time.perf_counter() - start < 0.25

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
        assert tr.alpha - Partition([r * p for p in tr.u]) == tr.alpha_star
        assert sorted(b + r * v for b, v in zip(tr.beta, tr.v)) == sorted(tr.beta_star)
        assert tr.nu.union(tr.beta_star) == Partition([r * p for p in tr.sigma])
        assert tr.alpha_star + Partition([r * p for p in tr.sigma.conjugate()]) == tr.output
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
        assert all(p % r for p in tr.output) and tr.output.size == lam.size
        assert Counter(p % r for p in tr.output if p % r) == Counter(p % r for p in lam if p % r)
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
        assert out[2].startswith("phi_forward: phi_forward image is not in O1r")
        assert len(out) == 3


_FAULTY_BODIES = """
    import sys
    from beckpart import (DecoratedPartition, Family, PairSet, Partition, RectanglePair,
                          bijections, enumerate_family)
    from beckpart.partitions import MARK, OVERLINE

    print("debug", __debug__)
    r, t = 3, 1

    def listed(n, s):
        if isinstance(s, PairSet):
            return list(enumerate_family(n, s, r, t if s is PairSet.P_RT else None))
        return list(enumerate_family(n, s, r, t if s in (Family.O_STAR, Family.F_BAR) else None))

    def first(sets, sizes):
        # the first member of the sets at the least size that has one
        return next(x for n in sizes for s in sets for x in listed(n, s))

    def same_kind(y):
        # every object of the kind and size of y
        n = y.size
        plain = list(enumerate_family(n, Family.ALL))
        if isinstance(y, Partition):
            return plain
        if isinstance(y, DecoratedPartition):
            return [DecoratedPartition(lam, d, i) for lam in plain for i in range(1, len(lam) + 1)
                    for d in (y.decoration, MARK if y.decoration == OVERLINE else OVERLINE)
                    if d == MARK or i == len(lam) or lam[i] != lam[i - 1]]
        return [RectanglePair(f, s, i) for s in range(1, n + 1) for i in range(1, n // s + 1)
                for f in enumerate_family(n - s * i, Family.ALL)]

    for name in sys.argv[1:]:
        f = getattr(bijections, name)
        args = (r, t) if f.takes_t else (r,)
        x = first(f.domain, range(4, 30))
        y = f(x, *args)
        inside = {z for s in f.codomain for z in listed(y.size, s)}
        # an image of the right size outside the codomain, and a member of
        # the codomain of another size
        faults = {"outside": next(z for z in same_kind(y) if z not in inside),
                  "size": first(f.codomain, range(y.size + 1, 60))}
        for fault, image in faults.items():
            body = lambda x, r, t, image=image: image
            body.__name__ = name
            faulty = bijections._map(f.domain, f.codomain)(body)
            try:
                faulty(x, *args)
                print(name, fault, "returned")
            except bijections.ConstructionError as exc:
                print(name, fault, "ConstructionError:", exc)
"""


class TestImageChecks:
    def test_every_direction_refuses_a_faulty_image_under_python_O(self):
        # the real checker around a body that returns a wrong image: one of
        # the right size outside the codomain, and one in it of another size
        src = os.path.dirname(os.path.dirname(os.path.abspath(beckpart.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        names = [f.__name__ for f, _, _ in DIRECTIONS]
        out = subprocess.run(
            [sys.executable, "-O", "-c", textwrap.dedent(_FAULTY_BODIES), *names],
            env=env, capture_output=True, text=True, check=True).stdout.splitlines()
        assert out[0] == "debug False"
        expected = [(name, fault, " or ".join(s.value for s in codomain))
                    for name, (_, _, codomain) in zip(names, DIRECTIONS)
                    for fault in ("outside", "size")]
        assert len(out) == 1 + len(expected) == 29
        for line, (name, fault, sets) in zip(out[1:], expected):
            assert line.startswith(
                f"{name} {fault} ConstructionError: {name} image is not in {sets} with size"), line
            assert "(((" not in line, line  # a pair image's text brings its own parentheses


_DIVERGENT_KERNEL = """
    from beckpart import Partition, bijections

    print("debug", __debug__)
    # a kernel that maps every input as if it were all ones: each run passes
    # its own postconditions, but xi no longer inverts xi_inverse
    kernel = bijections._xi_kernel
    bijections._xi_kernel = lambda lam, r: kernel(Partition((1,) * sum(lam)), r)
    try:
        bijections.xi_inverse(Partition((5, 4)), 3)
    except bijections.ConstructionError as exc:
        print("xi_inverse:", exc)
"""


class TestCertification:
    def test_xi_inverse_certifies_under_python_O(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(beckpart.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-O", "-c", textwrap.dedent(_DIVERGENT_KERNEL)],
            env=env, capture_output=True, text=True, check=True).stdout.splitlines()
        assert out == ["debug False", "xi_inverse: no preimage of (5,4) under xi at r = 3"]


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
                    assert set(combined) == set(enumerate_family(n, PairSet.P_RT, r, t))


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
                    for pair in enumerate_family(n, PairSet.P_RT, r, t):
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
                for pair in enumerate_family(n, PairSet.A_O, r):
                    assert psi_o_forward(psi_o_inverse(pair, r), r) == pair
                for lam in enumerate_family(n, Family.D_BAR, r):
                    assert psi_d_inverse(psi_d_forward(lam, r), r) == lam
                for pair in enumerate_family(n, PairSet.A_D, r):
                    assert psi_d_forward(psi_d_inverse(pair, r), r) == pair
                for lam in enumerate_family(n, Family.T_R, r):
                    assert psi_t_inverse(psi_t_forward(lam, r), r) == lam
                for pair in enumerate_family(n, PairSet.A_T, r):
                    assert psi_t_forward(psi_t_inverse(pair, r), r) == pair

    def test_psi_d_image_side_condition(self):
        for n in range(0, 21):
            for lam in enumerate_family(n, Family.D_BAR, 3):
                pair = psi_d_forward(lam, 3)
                i = pair.count
                assert _gap(pair.flat, i) <= 1


# Every companion map direction, the sets its domain is the union of, and
# the sets its codomain is the union of.
DIRECTIONS = [
    (phi_forward, (Family.F_1R,), (Family.O_1R,)),
    (phi_inverse, (Family.O_1R,), (Family.F_1R,)),
    (psi1_forward, (Family.F_BAR, Family.F_1R), (PairSet.P_RT,)),
    (psi1_inverse, (PairSet.P_RT,), (Family.F_BAR, Family.F_1R)),
    (psi2_forward, (Family.O_STAR,), (PairSet.P_RT,)),
    (psi2_inverse, (PairSet.P_RT,), (Family.O_STAR,)),
    (psi_o_forward, (Family.O_BAR,), (PairSet.A_O,)),
    (psi_o_inverse, (PairSet.A_O,), (Family.O_BAR,)),
    (psi_d_forward, (Family.D_BAR,), (PairSet.A_D,)),
    (psi_d_inverse, (PairSet.A_D,), (Family.D_BAR,)),
    (psi_t_forward, (Family.T_R,), (PairSet.A_T,)),
    (psi_t_inverse, (PairSet.A_T,), (Family.T_R,)),
    (zeta_forward, (PairSet.A,), (PairSet.B,)),
    (zeta_inverse, (PairSet.B,), (PairSet.A,)),
]


def test_each_direction_is_declared_with_its_sets_and_residue_rule():
    for f, domain, codomain in DIRECTIONS:
        takes_t = f.__name__.startswith(("psi1", "psi2"))
        assert (f.domain, f.codomain, f.takes_t) == (domain, codomain, takes_t), f.__name__
    # takes_t is read off the domain: of every direction the module declares,
    # exactly the four psi1 and psi2 directions take t
    declared = {f for f in vars(beckpart.bijections).values() if hasattr(f, "takes_t")}
    assert declared == {f for f, _, _ in DIRECTIONS}
    assert {f.__name__ for f in declared if f.takes_t} == {
        "psi1_forward", "psi1_inverse", "psi2_forward", "psi2_inverse"}


def candidates(n):
    """Every partition of n, every mark and legal overline on one, and every
    (partition, (s^i)) of size n, the partition flat or not."""
    out = []
    for lam in enumerate_family(n, Family.ALL):
        out.append(lam)
        for i in range(1, len(lam) + 1):
            out.append(DecoratedPartition(lam, MARK, i))
            if i == len(lam) or lam[i] != lam[i - 1]:
                out.append(DecoratedPartition(lam, OVERLINE, i))
    out += [RectanglePair(f, s, i) for s in range(1, n + 1) for i in range(1, n // s + 1)
            for f in enumerate_family(n - s * i, Family.ALL)]
    return out


def members(n, s, r, t):
    if isinstance(s, PairSet):
        return set(enumerate_family(n, s, r, t))
    return set(enumerate_family(n, s, r, t if s in (Family.O_STAR, Family.F_BAR) else None))


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_maps_take_exactly_their_domain(r):
    for n in range(0, 13):
        every = candidates(n)
        for f, domain, _ in DIRECTIONS:
            takes_t = f.__name__.startswith(("psi1", "psi2"))
            for t in range(1, r) if takes_t else (None,):
                args = (r, t) if takes_t else (r,)
                inside = set().union(*(members(n, s, r, t) for s in domain))
                for x in every:
                    if x in inside:
                        f(x, *args)
                    else:
                        with pytest.raises(BijectionError):
                            f(x, *args)


MAP_NAMES = ("xi", "phi", "psi1", "psi2", "psi_o", "psi_d", "psi_t", "zeta")
MAPS = [getattr(bijections, f"{name}_{direction}")
        for name in MAP_NAMES for direction in ("forward", "inverse")]


@pytest.mark.parametrize("f", MAPS, ids=lambda f: f.__name__)
def test_maps_check_the_residue_rule(f):
    # psi1 and psi2 require t; every other map refuses one.  The rule is
    # checked before the input, so any input will do.
    x = Partition((2, 1))
    if f.__name__.startswith(("psi1", "psi2")):
        with pytest.raises(ValueError, match="requires the residue t"):
            f(x, 3)
        with pytest.raises(ValueError, match="residue t must lie in"):
            f(x, 3, 3)
    else:
        with pytest.raises(ValueError, match="does not take a residue t"):
            f(x, 3, 1)
    with pytest.raises(ValueError, match="modulus r"):
        f(x, 1)


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
                a = list(enumerate_family(n, PairSet.A, r))
                b = list(enumerate_family(n, PairSet.B, r))
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


def _gap(lam, i):
    part = dict(enumerate(lam, 1)).get  # parts past the length read 0
    return part(i, 0) - part(i + 1, 0)


def _overline_random_value(rng, lam):
    # an overline on the last occurrence of a random value of lam
    value = rng.choice(lam)
    return DecoratedPartition(lam, OVERLINE, len(lam) - lam[::-1].index(value))


def forward_input(rng, name, r, t, length):
    """A random member of the forward domain of map ``name``, built on r-flat
    partitions of the given length."""
    while True:
        flat = random_flat(rng, r, length)
        regular = Partition([p + 1 if p % r == 0 else p for p in flat])
        if name == "xi":
            return flat
        if name == "phi" or name == "psi1" and rng.random() < 0.5:
            # lifting the first i parts by a multiple of r makes gap i the only steep one
            return flat + rectangle(r * rng.randint(1, 2), rng.randint(1, length))
        if name == "psi1":
            spots = [i for i in range(1, length + 1) if _gap(flat, i) >= t]
            if spots:
                return DecoratedPartition(flat, OVERLINE, rng.choice(spots))
        elif name == "psi2":
            spots = [i for i, p in enumerate(regular, start=1) if p % r == t]
            if spots:
                return DecoratedPartition(regular, MARK, rng.choice(spots))
        elif name == "psi_o":
            return _overline_random_value(rng, regular)
        elif name == "psi_d":
            return _overline_random_value(rng, flat.conjugate())
        elif name == "psi_t":
            bounded = flat.conjugate()
            return bounded.union(rectangle(rng.choice(bounded), r))
        elif name == "zeta":
            spots = [j for j in range(1, length + 1) if _gap(flat, j) == r - 1]
            if spots:
                return RectanglePair(flat, 1, rng.choice(spots))


def inverse_input(rng, name, r, t, length):
    """A random member of the forward image of map ``name``, built on r-flat
    partitions of the given length."""
    while True:
        flat = random_flat(rng, r, length)
        regular = Partition([p + 1 if p % r == 0 else p for p in flat])
        if name == "xi":
            return regular
        if name == "phi":
            return regular.union(rectangle(r * rng.randint(1, 3), rng.randint(1, 4)))
        if name in ("psi1", "psi2"):
            return RectanglePair(flat, t + r * rng.randint(0, 2), rng.randint(1, 5))
        if name == "psi_o":
            return RectanglePair(flat, 1, rng.choice([i for i in range(1, 3 * r) if i % r]))
        gap_ok = {"psi_d": lambda g: g < r - 1, "psi_t": lambda g: g > 0,
                  "zeta": lambda g: g == 0}[name]
        spots = [j for j in range(1, length + 2) if gap_ok(_gap(flat, j))]
        if spots:
            j = rng.choice(spots)
            return RectanglePair(flat, 1, j if name == "psi_d" else r * j)


def _apply(name, direction, x, r, t):
    f = getattr(bijections, f"{name}_{direction}")
    y = f(x, r, t) if name in ("psi1", "psi2") else f(x, r)
    return y.output if isinstance(y, bijections.XiTrace) else y


class TestMapsAtScale:
    """Every map in both directions at lengths past the exhaustive grids."""

    @pytest.mark.parametrize("name", MAP_NAMES)
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(2, 7), st.integers(100, 400), st.randoms(use_true_random=False))
    def test_forward_then_inverse(self, name, r, length, rng):
        t = rng.randint(1, r - 1)
        x = forward_input(rng, name, r, t, length)
        y = _apply(name, "forward", x, r, t)
        assert y.size == x.size and _apply(name, "inverse", y, r, t) == x

    @pytest.mark.parametrize("name", MAP_NAMES)
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(2, 7), st.integers(100, 400), st.randoms(use_true_random=False))
    def test_inverse_then_forward(self, name, r, length, rng):
        t = rng.randint(1, r - 1)
        y = inverse_input(rng, name, r, t, length)
        x = _apply(name, "inverse", y, r, t)
        assert x.size == y.size and _apply(name, "forward", x, r, t) == y
