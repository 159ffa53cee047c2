"""Oracles shared by the tests that read the library's private tables."""

from collections import namedtuple

from beckpart import families

Totals = namedtuple("Totals", "count parts distinct residue repeats steep")


# a flat family -> its conjugate: conjugation takes the gap at p of an
# r-flat partition to the multiplicity of p
CONJUGATE = {families.Family.F_R: families.Family.D_R, families.Family.F_1R: families.Family.D_1R}


def totals(n, family, r):
    """Statistic totals over a plain family of n, read from its totals table.

    ``count`` is the table's count slot, and every other field is read by
    ``families._stat``.  ``residue[t]`` sums the parts congruent to t mod
    r, ``repeats[t]`` the values repeated at least t times and ``steep[t]``
    the gaps (final part included) at least t, for t in [1, r-1]; entry 0
    is unused.  ``steep`` is read over the flat families only, as the
    repeats of the conjugate family, and is None outside them.
    ``families._stat`` is looked up at each read, so a patched one is seen.
    """
    family = families._validate(n, family, r, None)
    rule, viol = families._SPEC[family]
    columns = families._table(n, rule, viol, r, True)
    cap = families._cap(columns)

    def stat(name, t=None, of=family):
        return families._stat(n, n, of, name, r, t)[0]

    def by_t(name, of=family):  # t past cap reads 0
        return tuple(stat(name, t, of) for t in range(cap)) + (0,) * (r - cap)

    return Totals(columns[0][n], stat("parts"), stat("distinct"), by_t("residue"),
                  by_t("repeats"), by_t("repeats", CONJUGATE[family]) if rule == "gap" else None)
