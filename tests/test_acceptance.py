"""Acceptance suite: exhaustive desk-scale verification of every identity.

Each criterion runs at its stated grid with exact integer equality (zero
tolerance) and prints a single PASS/FAIL line.  Run with ``pytest -s`` to
see the lines as they complete.
"""

import time
from collections import Counter

from beckpart import (
    DecoratedPartition,
    Family,
    PairSet,
    Partition,
    RectanglePair,
    beck_b,
    beck_b_prime,
    count,
    enumerate_family,
    excess_Ert,
    gf,
    lambert_sum,
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
    stat_report,
    total_repeated_values,
    total_residue_parts,
    xi_forward,
    zeta_forward,
    zeta_inverse,
)
from beckpart.bijections import _is_flat_list
from beckpart.partitions import MARK, OVERLINE


def _report(name, failures, checked, started):
    elapsed = time.time() - started
    status = "PASS" if not failures else "FAIL"
    detail = f"{checked} checks, {elapsed:.1f}s"
    if failures:
        detail += f", first failure: {failures[0]}"
    print(f"{status} {name} ({detail})")
    assert not failures, f"{name}: {len(failures)} failures, first: {failures[0]}"


def test_criterion_1_third_beck_identity():
    started = time.time()
    failures, checked = [], 0
    for r in range(2, 7):
        for n in range(0, 51):
            o1 = count(n, Family.O_1R, r)
            d1 = count(n, Family.D_1R, r)
            if o1 != d1:
                failures.append((n, r, "|O_1r|", o1, "|D_1r|", d1))
            checked += 1
            for t in range(1, r):
                e = excess_Ert(n, r, t)
                if e != o1:
                    failures.append((n, r, t, "E", e, "|O_1r|", o1))
                checked += 1
    _report("criterion 1: excess = |O_1r| = |D_1r| (r in 2..6, t in 1..r-1, n <= 50)",
            failures, checked, started)


def test_criterion_2_glaisher():
    started = time.time()
    failures, checked = [], 0
    for r in range(2, 7):
        for n in range(0, 51):
            o = count(n, Family.O_R, r)
            d = count(n, Family.D_R, r)
            f = count(n, Family.F_R, r)
            if not o == d == f:
                failures.append((n, r, o, d, f))
            checked += 1
    _report("criterion 2: |O_r| = |D_r| = |F_r| (r in 2..6, n <= 50)",
            failures, checked, started)


def test_criterion_3_first_beck_identity():
    started = time.time()
    failures, checked = [], 0
    for r in range(2, 7):
        for n in range(0, 51):
            b = beck_b(n, r)
            if b != (r - 1) * count(n, Family.O_1R, r):
                failures.append((n, r, "b", b, "(r-1)|O_1r|"))
            if b != sum(excess_Ert(n, r, t) for t in range(1, r)):
                failures.append((n, r, "b", b, "sum of excesses"))
            checked += 2
    _report("criterion 3: b_r = (r-1)|O_1r| = sum_t excess (r in 2..6, n <= 50)",
            failures, checked, started)


def test_criterion_4_second_beck_identity():
    started = time.time()
    failures, checked = [], 0
    for r in range(2, 7):
        for n in range(0, 51):
            lhs = beck_b_prime(n, r)
            rhs = count(n, Family.T_R, r)
            if lhs != rhs:
                failures.append((n, r, lhs, rhs))
            checked += 1
    _report("criterion 4: b'_r = |T_r| (r in 2..6, n <= 50)", failures, checked, started)


def test_criterion_5_xi_suite():
    started = time.time()
    failures, checked = [], 0
    for r in range(2, 6):
        for n in range(0, 31):
            regs = set(enumerate_family(n, Family.O_R, r))
            images = set()
            for lam in enumerate_family(n, Family.F_R, r):
                tr = xi_forward(lam, r)
                out = tr.output
                if out not in regs:
                    failures.append((r, n, tuple(lam), "image not regular"))
                if out in images:
                    failures.append((r, n, tuple(lam), "image collision"))
                images.add(out)
                if (Counter(p % r for p in out if p % r)
                        != Counter(p % r for p in lam if p % r)):
                    failures.append((r, n, tuple(lam), "residue profile changed"))
                if tr.sigma and tr.sigma[0] > len(tr.alpha_star):
                    failures.append((r, n, tuple(lam), "sigma_1 bound violated"))
                mu = list(tr.mu)
                for idx, p in enumerate(mu):
                    if p % r == 0 and _is_flat_list(mu[:idx] + mu[idx + 1:], r):
                        failures.append((r, n, tuple(lam), "step-1 property violated"))
                checked += 1
            if len(images) != len(regs):
                failures.append((r, n, "image count", len(images), len(regs)))
    _report("criterion 5: xi injective onto O_r with invariants (r <= 5, n <= 30)",
            failures, checked, started)


def test_criterion_6_round_trip_suite():
    started = time.time()
    failures, checked = [], 0

    def check(ok, *witness):
        nonlocal checked
        checked += 1
        if not ok:
            failures.append(witness)

    for r in range(2, 6):
        for n in range(0, 23):
            for lam in enumerate_family(n, Family.F_1R, r):
                check(phi_inverse(phi_forward(lam, r), r) == lam, "phi", r, n, tuple(lam))
            for mu in enumerate_family(n, Family.O_1R, r):
                check(phi_forward(phi_inverse(mu, r), r) == mu, "phi-inv", r, n, tuple(mu))
            for lam in enumerate_family(n, Family.O_BAR, r):
                check(psi_o_inverse(psi_o_forward(lam, r), r) == lam, "psi_o", r, n, str(lam))
            for pr in enumerate_family(n, PairSet.A_O, r):
                check(psi_o_forward(psi_o_inverse(pr, r), r) == pr, "psi_o-inv", r, n, str(pr))
            for lam in enumerate_family(n, Family.D_BAR, r):
                check(psi_d_inverse(psi_d_forward(lam, r), r) == lam, "psi_d", r, n, str(lam))
            for pr in enumerate_family(n, PairSet.A_D, r):
                check(psi_d_forward(psi_d_inverse(pr, r), r) == pr, "psi_d-inv", r, n, str(pr))
            for lam in enumerate_family(n, Family.T_R, r):
                check(psi_t_inverse(psi_t_forward(lam, r), r) == lam, "psi_t", r, n, tuple(lam))
            for pr in enumerate_family(n, PairSet.A_T, r):
                check(psi_t_forward(psi_t_inverse(pr, r), r) == pr, "psi_t-inv", r, n, str(pr))
            for pr in enumerate_family(n, PairSet.A, r):
                check(zeta_inverse(zeta_forward(pr, r), r) == pr, "zeta", r, n, str(pr))
            for pr in enumerate_family(n, PairSet.B, r):
                check(zeta_forward(zeta_inverse(pr, r), r) == pr, "zeta-inv", r, n, str(pr))
            for t in range(1, r):
                pair_set = set(enumerate_family(n, PairSet.P_RT, r, t))
                case1, case2 = [], []
                for lam in enumerate_family(n, Family.F_BAR, r, t):
                    pr = psi1_forward(lam, r, t)
                    case1.append(pr)
                    check(psi1_inverse(pr, r, t) == lam, "psi1", r, n, t, str(lam))
                for lam in enumerate_family(n, Family.F_1R, r):
                    pr = psi1_forward(lam, r, t)
                    case2.append(pr)
                    check(psi1_inverse(pr, r, t) == lam, "psi1", r, n, t, tuple(lam))
                check(not set(case1) & set(case2), "psi1 case overlap", r, n, t)
                check(len(set(case1 + case2)) == len(case1) + len(case2),
                      "psi1 duplicate images", r, n, t)
                check(set(case1) | set(case2) == pair_set, "psi1 image coverage", r, n, t)
                for lam in enumerate_family(n, Family.O_STAR, r, t):
                    check(psi2_inverse(psi2_forward(lam, r, t), r, t) == lam,
                          "psi2", r, n, t, str(lam))
                for pr in pair_set:
                    check(psi2_forward(psi2_inverse(pr, r, t), r, t) == pr,
                          "psi2-inv", r, n, t, str(pr))
    _report("criterion 6: all round trips + psi1 image partition (r <= 5, n <= 22)",
            failures, checked, started)


def test_criterion_7_series_cross_check():
    started = time.time()
    failures, checked = [], 0
    bound = 50

    def check(ok, *witness):
        nonlocal checked
        checked += 1
        if not ok:
            failures.append(witness)

    for r in range(2, 6):
        eta = gf("O_r", r, bound=bound)
        o1 = gf("O_1r", r, bound=bound)
        ert = gf("E_rt", r, bound=bound)
        for n in range(0, bound + 1):
            check(eta[n] == count(n, Family.O_R, r), "gf(O_r)", r, n)
            check(o1[n] == count(n, Family.O_1R, r), "gf(O_1r)", r, n)
        reference = None
        for t in range(1, r):
            parts = gf("parts_t_in_Or", r, t, bound)
            repeats = gf("repeats_t_in_Dr", r, t, bound)
            ert_t = gf("E_rt", r, t, bound)
            check(lambert_sum("progression", r, t, bound)
                  == lambert_sum("mixed", r, t, bound), "lambert identity", r, t)
            check(parts - repeats == ert, "derivation", r, t)
            if reference is None:
                reference = ert_t
            check(ert_t == reference, "E_rt t-independence", r, t)
            for n in range(0, bound + 1):
                check(parts[n] == total_residue_parts(n, r, t), "gf(parts)", r, t, n)
                check(repeats[n] == total_repeated_values(n, r, t), "gf(repeats)", r, t, n)
                check(ert[n] == excess_Ert(n, r, t), "gf(E_rt)", r, t, n)
    _report("criterion 7: series coefficients = enumeration (r <= 5, N = 50)",
            failures, checked, started)


def test_criterion_8_worked_instances():
    started = time.time()
    failures, checked = [], 0

    def check(ok, label):
        nonlocal checked
        checked += 1
        if not ok:
            failures.append(label)

    check(xi_forward(Partition((22, 19, 15, 15, 13, 10, 6, 5, 2)), 5).output
          == Partition((32, 24, 23, 16, 12)), "xi worked instance")
    check(phi_forward(Partition((27, 24, 20, 15, 13, 10, 6, 5, 2)), 5)
          == Partition((32, 24, 23, 16, 12, 5, 5, 5)), "phi worked instance")
    check(psi1_forward(DecoratedPartition(Partition((4, 3, 1)), OVERLINE, 2), 3, 2)
          == RectanglePair(Partition((2, 1, 1)), 2, 2), "psi1 case 1")
    check(psi1_forward(Partition((5, 2, 1)), 3, 2)
          == RectanglePair(Partition((3, 2, 1)), 2, 1), "psi1 case 2")
    check(psi2_forward(DecoratedPartition(Partition((32, 24, 23, 16, 12, 7, 7)), MARK, 7), 5, 2)
          == RectanglePair(Partition((22, 19, 15, 15, 13, 10, 6, 5, 2)), 7, 2),
          "psi2 worked instance")
    check(psi_o_forward(
        DecoratedPartition(Partition((32, 24, 23, 16, 16, 12)), OVERLINE, 5), 5)
        == RectanglePair(Partition((22, 19, 15, 15, 13, 10, 6, 5, 2)), 1, 16),
        "psi_o size-123 instance")
    check(psi_d_forward(
        DecoratedPartition(Partition((20, 20, 20, 17, 13, 10, 10, 10, 3)), OVERLINE, 3), 5)
        == RectanglePair(parse_partition("8^3,7^7,4^3,3^4,2^3"), 1, 20),
        "psi_d size-123 instance")
    check(psi_t_forward(parse_partition("20,17,13,10^7,3"), 5)
          == RectanglePair(parse_partition("6^3,5^7,3^3,2^4,1^3"), 1, 50),
          "psi_t size-123 instance")
    rep = stat_report(Partition((10, 7, 7, 5, 4, 3)), 4, 2)
    check(rep.ell_t == 1 and rep.d_t == 3, "statistics on (10,7,7,5,4,3)")
    _report("criterion 8: worked instances reproduce bit-exactly", failures, checked, started)
