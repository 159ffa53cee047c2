"""Oracles shared by the tests that read the library's private tables."""

from collections import namedtuple

from beckpart import families

Totals = namedtuple("Totals", "count parts distinct residue repeats steep")


def totals(n, family, r):
    """Statistic totals over a plain family of n, each field read by ``families._stat``.

    ``residue[t]`` sums the parts congruent to t mod r, ``repeats[t]`` the
    values repeated at least t times and ``steep[t]`` the gaps (final part
    included) at least t, for t in [1, r-1]; entry 0 is unused.  ``steep``
    is read over the flat families only and is None outside them.
    ``families._stat`` is looked up at each read, so a patched one is seen.
    """
    family = families._validate(n, family, r, None)
    rule, viol = families._SPEC[family]
    cap = families._cap(families._table(n, rule, viol, r, True))

    def stat(name, t=None):
        return families._stat(n, n, family, r, name, t)[0]

    def by_t(name):  # t past cap reads 0
        return tuple(stat(name, t) for t in range(cap)) + (0,) * (r - cap)

    return Totals(stat("count"), stat("parts"), stat("distinct"), by_t("residue"),
                  by_t("repeats"), by_t("steep") if rule == "gap" else None)
