"""Per-partition statistics and the aggregate excess quantities.

For a modulus r and residue t in [1, r-1]:

* ``ell``       -- number of parts;
* ``ell_t``     -- number of parts congruent to t mod r;
* ``ell_bar``   -- number of distinct part values;
* ``ell_bar_t`` -- number of distinct values repeated at least t times;
* ``d_t``       -- number of gaps (final part included) that are at least t.

The aggregates sum these over whole families of a given size.  Note the
per-partition signed term ell_t - d_t can be negative even though the
aggregate excess never is.
"""

from __future__ import annotations

from dataclasses import dataclass

from .families import Family, _totals
from .partitions import Partition, _check_residue


@dataclass(frozen=True)
class StatReport:
    ell: int
    ell_t: int
    ell_bar_t: int
    d_t: int
    ell_bar: int


def stat_report(lam, r, t):
    """All five statistics of one partition for the given (r, t)."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    _check_residue(r, t)
    mult = lam.multiplicities()
    return StatReport(
        ell=len(lam),
        ell_t=sum(1 for p in lam if p % r == t),
        ell_bar_t=sum(1 for c in mult.values() if c >= t),
        d_t=sum(1 for g in lam.gaps() if g >= t),
        ell_bar=len(mult),
    )


def total_residue_parts(n, r, t):
    """Sum of ell_t over the r-regular partitions of n."""
    _check_residue(r, t)
    return _totals(n, Family.O_R, r).residue[t]


def total_repeated_values(n, r, t):
    """Sum of ell_bar_t over the multiplicity-bounded partitions of n."""
    _check_residue(r, t)
    return _totals(n, Family.D_R, r).repeats[t]


def excess_Ert(n, r, t):
    """Excess of residue-t parts over t-fold repeated values.

    Computed over the r-regular and multiplicity-bounded families of n
    respectively; always equals the one-violation family sizes.
    """
    _check_residue(r, t)
    return _totals(n, Family.O_R, r).residue[t] - _totals(n, Family.D_R, r).repeats[t]


def excess_Ert_flat(n, r, t):
    """The same excess computed over the r-flat family alone (ell_t - d_t)."""
    _check_residue(r, t)
    flat = _totals(n, Family.F_R, r)
    return flat.residue[t] - flat.steep[t]


def beck_b(n, r):
    """Total parts over the r-regular family minus total parts over the bounded one."""
    return _totals(n, Family.O_R, r).parts - _totals(n, Family.D_R, r).parts


def beck_b_prime(n, r):
    """Total distinct values over the bounded family minus over the regular one."""
    return _totals(n, Family.D_R, r).distinct - _totals(n, Family.O_R, r).distinct
