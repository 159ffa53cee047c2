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
from operator import sub

from .families import Family, _stat, _validate
from .partitions import Partition, _check_residue, _check_takes_t


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


# aggregate -> the family statistic it sums, and the one it subtracts or
# None, each (family, statistic); one that reads residue or repeats reads
# them at its residue t and takes t.  The flat excess subtracts the gaps of
# at least t over Fr, which are the values repeated at least t times over
# Dr (see excess_Ert_flat).
_AGGREGATES = {
    "total_residue_parts": ((Family.O_R, "residue"), None),
    "total_repeated_values": ((Family.D_R, "repeats"), None),
    "excess_Ert": ((Family.O_R, "residue"), (Family.D_R, "repeats")),
    "excess_Ert_flat": ((Family.F_R, "residue"), (Family.D_R, "repeats")),
    "beck_b": ((Family.O_R, "parts"), (Family.D_R, "parts")),
    "beck_b_prime": ((Family.D_R, "distinct"), (Family.O_R, "distinct")),
}


def _aggregate(name, lo, hi, r, t):
    # the aggregate at n = lo..hi, each family statistic one slice of its table
    plus, minus = _AGGREGATES[name]
    _check_takes_t(name, r, t, plus[1] in ("residue", "repeats"))
    _validate(hi, plus[0], r, None)
    column = _stat(lo, hi, *plus, r, t)
    if minus is not None:
        column = list(map(sub, column, _stat(lo, hi, *minus, r, t)))
    return column


def column(name, n_max, r, t=None):
    """One aggregate of this module at n = 0..n_max, as a list.

    ``name`` is the name of the function (``excess_Ert``, ``beck_b``, ...),
    and t is given exactly when that function takes it.  Each family
    statistic is read once, as one slice of its count table, not once per n.
    """
    if name not in _AGGREGATES:
        raise ValueError(f"unknown aggregate {name!r}; expected one of {tuple(_AGGREGATES)}")
    return _aggregate(name, 0, n_max, r, t)


def total_residue_parts(n, r, t):
    """Sum of ell_t over the r-regular partitions of n."""
    return _aggregate("total_residue_parts", n, n, r, t)[0]


def total_repeated_values(n, r, t):
    """Sum of ell_bar_t over the multiplicity-bounded partitions of n."""
    return _aggregate("total_repeated_values", n, n, r, t)[0]


def excess_Ert(n, r, t):
    """Excess of residue-t parts over t-fold repeated values.

    Computed over the r-regular and multiplicity-bounded families of n
    respectively; always equals the one-violation family sizes.
    """
    return _aggregate("excess_Ert", n, n, r, t)[0]


def excess_Ert_flat(n, r, t):
    """The same excess computed over the r-flat family alone (ell_t - d_t).

    The gaps are counted through conjugation, which takes the gap at p of
    an r-flat partition to the multiplicity of p: the total of d_t over the
    r-flat partitions is the total of ell_bar_t over the multiplicity-bounded
    ones.  So this differs from ``excess_Ert`` only in reading ell_t over
    the r-flat family rather than the r-regular one.
    """
    return _aggregate("excess_Ert_flat", n, n, r, t)[0]


def beck_b(n, r):
    """Total parts over the r-regular family minus total parts over the bounded one."""
    return _aggregate("beck_b", n, n, r, None)[0]


def beck_b_prime(n, r):
    """Total distinct values over the bounded family minus over the regular one."""
    return _aggregate("beck_b_prime", n, n, r, None)[0]
