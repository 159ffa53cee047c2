"""Enumeration and counting of the partition families and pair sets.

Plain families (for a modulus r >= 2):

* ``Or``  -- r-regular: no part divisible by r;
* ``Dr``  -- no part value repeated more than r-1 times;
* ``Fr``  -- r-flat: every gap (final part included) at most r-1;
* ``O1r`` -- exactly one distinct part value divisible by r;
* ``D1r`` -- exactly one value repeated at least r times;
* ``F1r`` -- exactly one gap at least r;
* ``Tr``  -- exactly one value repeated more than r but fewer than 2r times.

Decorated families attach one mark or overline per the rules below, and the
pair sets couple an r-flat partition with a rectangle.

Every plain family is one spec: a walk over the runs (v, c) of a partition,
values descending, in which each run is checked by one rule and the family
allows none or exactly one violation of it.  The same walk is read four
ways: listed, counted, summed into statistic totals and used as a
membership test.  Counts and totals are memoised walks, never listings.

Every enumerator is deterministic: bases stream in descending lexicographic
order, decorations by increasing position, rectangles by increasing part
then count.  The order is part of the contract so fixtures stay stable.
"""

from __future__ import annotations

from collections import namedtuple
from copy import copy
from enum import Enum
from functools import lru_cache
from itertools import tee
from operator import add

from .partitions import (
    DecoratedPartition,
    MARK,
    OVERLINE,
    Partition,
    RectanglePair,
    _check_modulus,
    _check_residue,
    _is_int,
)


class Family(str, Enum):
    ALL = "all"
    O_R = "Or"
    D_R = "Dr"
    F_R = "Fr"
    O_1R = "O1r"
    D_1R = "D1r"
    F_1R = "F1r"
    T_R = "Tr"
    O_STAR = "Ostar"   # r-regular with one part of residue t marked
    F_BAR = "Fbar"     # r-flat with one overline on a gap >= t
    O_BAR = "Obar"     # r-regular with one value overlined (last occurrence)
    D_BAR = "Dbar"     # Dr with one value overlined (last occurrence)


class PairSet(str, Enum):
    P_RT = "Prt"   # (flat, ((a*r+t)^i)) with flat in Fr(n - i*(a*r+t))
    A_O = "Ao"     # (flat, (1^i)), i not divisible by r
    A_D = "Ad"     # (flat, (1^i)), gap_i(flat) < r-1
    A_T = "At"     # (flat, (1^i)), r | i, gap at i/r positive
    A = "A"        # (flat, (1^i)), gap_i(flat) = r-1
    B = "B"        # (flat, (1^i)), r | i, gap at i/r zero


# ---------------------------------------------------------------------------
# The run-walk spec.  A rule maps a run (v, c), entered from the previous
# run value prev (0 before the first run), to 0 when it keeps the rule, 1
# when it is a violation and 2 when no member may contain it.  The walk
# closes with an empty run of value 0, so the final part is the closing gap.
# ---------------------------------------------------------------------------

_RULES = {
    "none": lambda r, prev, v, c: 0,
    "value": lambda r, prev, v, c: v > 0 and v % r == 0,
    "mult": lambda r, prev, v, c: c >= r,
    "between": lambda r, prev, v, c: 0 if c < r else 1 if r < c < 2 * r else 2,
    "gap": lambda r, prev, v, c: prev > 0 and prev - v >= r,
}

# plain family -> (rule, violations allowed)
_SPEC = {
    Family.ALL: ("none", 0),
    Family.O_R: ("value", 0),
    Family.O_1R: ("value", 1),
    Family.D_R: ("mult", 0),
    Family.D_1R: ("mult", 1),
    Family.T_R: ("between", 1),
    Family.F_R: ("gap", 0),
    Family.F_1R: ("gap", 1),
}


def _moves(n, prev, used, rule, viol, r):
    # the runs (v, c) a walk at state (n, prev, used) may take, in descending
    # order, each with the violations used after it
    breaks = _RULES[rule]
    spent = used == viol
    # Never try runs the rule can only refuse: with no violation left a gap
    # rule allows only drops below r and a multiplicity rule only runs below
    # r, and a between rule never allows a run of 2r or more.
    lo = max(1, prev - r + 1) if spent and rule == "gap" else 1
    longest = (r - 1 if spent and rule in ("mult", "between")
               else 2 * r - 1 if rule == "between" else n)
    for v in range(min(n, prev - 1) if prev else n, lo - 1, -1):
        for c in range(min(n // v, longest), 0, -1):
            u = used + breaks(r, prev, v, c)
            if u <= viol:
                yield v, c, u


@lru_cache(maxsize=None)
def _count(n, prev, used, rule, viol, r):
    # number of completions of a walk state
    if n == 0:
        return int(used + _RULES[rule](r, prev, 0, 0) == viol)
    total = 0
    for v, c, u in _moves(n, prev, used, rule, viol, r):
        total += _count(n - v * c, v, u, rule, viol, r)
    return total


@lru_cache(maxsize=None)
def _sums(n, prev, used, rule, viol, r):
    # Count and statistic sums over the completions of a walk state: count,
    # parts, distinct values, then three r-slots: parts by residue, runs by
    # min(c, r-1), and gaps (final part included) by min(gap, r-1).
    out = [0] * (3 + 3 * r)
    steep = 3 + 2 * r
    if n == 0:
        if used + _RULES[rule](r, prev, 0, 0) == viol:
            out[0] = 1
            if prev:
                out[steep + min(prev, r - 1)] = 1
        return tuple(out)
    for v, c, u in _moves(n, prev, used, rule, viol, r):
        sub = _sums(n - v * c, v, u, rule, viol, r)
        k = sub[0]
        if k:
            out = list(map(add, out, sub))
            out[1] += c * k
            out[2] += k
            out[3 + v % r] += c * k
            out[3 + r + min(c, r - 1)] += k
            if prev:
                out[steep + min(prev - v, r - 1)] += k
    return tuple(out)


_Totals = namedtuple("_Totals", "count parts distinct residue repeats steep")


def _totals(n, family, r):
    """Statistic totals over a plain family of n.

    ``residue[t]`` sums the parts congruent to t mod r, ``repeats[t]`` the
    values repeated at least t times and ``steep[t]`` the gaps (final part
    included) at least t, for t in [1, r-1]; entry 0 is unused.
    """
    family = _validate(n, family, r, None)
    s = _sums(n, 0, 0, *_SPEC[family], r)

    def at_least(hist):
        return (0,) + tuple(sum(hist[t:]) for t in range(1, r))

    return _Totals(s[0], s[1], s[2], s[3:3 + r],
                   at_least(s[3 + r:3 + 2 * r]), at_least(s[3 + 2 * r:]))


@lru_cache(maxsize=None)
def _completes(n, prev, used, rule, viol, r):
    # whether a walk state has a completion (a nonzero _count), by a search
    # that stops at the first one, so a large family's first member streams
    # without counting the family
    if n == 0:
        return used + _RULES[rule](r, prev, 0, 0) == viol
    if rule == "gap" and used == viol:
        # the least flat tail below prev: prev - k(r-1) for k = 1..q
        q = (prev - 1) // (r - 1)
        if n < q * prev - (r - 1) * q * (q + 1) // 2:
            return False
    for v, c, u in _moves(n, prev, used, rule, viol, r):
        if _completes(n - v * c, v, u, rule, viol, r):
            return True
    return False


def _search(n, prev, used, rule, viol, r):
    # the moves of a walk state whose target has completions, as
    # (n left after, v, violations used, the run's parts)
    try:
        for v, c, u in _moves(n, prev, used, rule, viol, r):
            if _completes(n - v * c, v, u, rule, viol, r):
                yield n - v * c, v, u, (v,) * c
    except (Exception, KeyboardInterrupt):
        _live.cache_clear()  # a search cut short must not be read as complete
        raise


@lru_cache(maxsize=None)
def _live(n, prev, used, rule, viol, r):
    # The live moves of a walk state, searched only as far as a walk reads
    # them and kept for later walks: the tee never advances, so each copy of
    # it reads the moves from the first.
    return tee(_search(n, prev, used, rule, viol, r), 1)[0]


def _walk(n, rule, viol, r):
    # Members in descending lexicographic order, built in one mutable list.
    # Each stack entry holds the live moves left at one state and the number
    # of parts placed before it, so every branch taken ends in a member.
    if n == 0:
        if _completes(0, 0, 0, rule, viol, r):
            yield Partition()
        return
    parts = []
    stack = [(copy(_live(n, 0, 0, rule, viol, r)), 0)]
    while stack:
        moves, depth = stack[-1]
        for rest, v, u, run in moves:
            del parts[depth:]
            parts += run
            if rest:
                stack.append((copy(_live(rest, v, u, rule, viol, r)), len(parts)))
                break
            yield Partition._make(parts)
        else:
            stack.pop()


def is_member(lam, family, r, t=None):
    """Exact membership test for the plain families (t accepted, unused)."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    family = Family(family)
    if family not in _SPEC:
        raise ValueError(f"no plain membership predicate for decorated family {family.value!r}")
    if family is Family.ALL:
        return True
    _check_modulus(r)
    rule, viol = _SPEC[family]
    breaks = _RULES[rule]
    used = prev = 0
    for v, c in lam.runs():
        used += breaks(r, prev, v, c)
        prev = v
    return used + breaks(r, prev, 0, 0) == viol


# ---------------------------------------------------------------------------
# Decorated families: a plain base family with one decoration per allowed
# position.  Each is counted by one totals entry of its base.
# ---------------------------------------------------------------------------

def _last_occurrences(lam, r, t):
    return [i for i in range(1, len(lam) + 1) if i == len(lam) or lam[i] != lam[i - 1]]


# family -> (base, decoration, allowed positions, size from the base totals)
_DECORATED = {
    Family.O_STAR: (Family.O_R, MARK,
                    lambda lam, r, t: [i for i, p in enumerate(lam, start=1) if p % r == t],
                    lambda totals, t: totals.residue[t]),
    Family.F_BAR: (Family.F_R, OVERLINE,
                   lambda lam, r, t: [i for i, g in enumerate(lam.gaps(), start=1) if g >= t],
                   lambda totals, t: totals.steep[t]),
    Family.O_BAR: (Family.O_R, OVERLINE, _last_occurrences, lambda totals, t: totals.distinct),
    Family.D_BAR: (Family.D_R, OVERLINE, _last_occurrences, lambda totals, t: totals.distinct),
}
_NEEDS_T = (Family.O_STAR, Family.F_BAR)


# ---------------------------------------------------------------------------
# Public enumeration API.
# ---------------------------------------------------------------------------

def _validate(n, family, r, t):
    if not _is_int(n) or n < 0:
        raise ValueError(f"n must be a non-negative integer, got {n!r}")
    family = Family(family)
    if family is not Family.ALL:
        _check_modulus(r)
    if family in _NEEDS_T:
        if t is None:
            raise ValueError(f"family {family.value!r} requires the residue t")
        _check_residue(r, t)
    elif t is not None:
        raise ValueError(f"family {family.value!r} does not take a residue t")
    return family


def enumerate_family(n, family, r=None, t=None):
    """Stream every member of the family exactly once, in canonical order.

    Plain families yield Partition; decorated families yield
    DecoratedPartition with decorations in increasing position order.
    """
    family = _validate(n, family, r, t)
    if family in _SPEC:
        yield from _walk(n, *_SPEC[family], r)
        return
    base, decoration, positions, _ = _DECORATED[family]
    for lam in _walk(n, *_SPEC[base], r):
        for i in positions(lam, r, t):
            yield DecoratedPartition(lam, decoration, i)


@lru_cache(maxsize=None, typed=True)  # typed: count(True, ...) must not hit count(1, ...)
def count(n, family, r=None, t=None):
    """Number of members of the family; matches the enumeration exactly."""
    family = _validate(n, family, r, t)
    if family in _SPEC:
        return _count(n, 0, 0, *_SPEC[family], r)
    base, _, _, size = _DECORATED[family]
    return size(_totals(n, base, r), t)


def enumerate_pairs(n, tag, r, t=None):
    """Stream the (flat partition, rectangle) pairs of the given pair set.

    Rectangles iterate by increasing part then increasing count, the flat
    component in descending lexicographic order within each rectangle.
    """
    if not _is_int(n) or n < 0:
        raise ValueError(f"n must be a non-negative integer, got {n!r}")
    tag = PairSet(tag)
    _check_modulus(r)
    if tag is PairSet.P_RT:
        if t is None:
            raise ValueError("pair set 'Prt' requires the residue t")
        _check_residue(r, t)
    elif t is not None:
        raise ValueError(f"pair set {tag.value!r} does not take a residue t")
    flat_spec = _SPEC[Family.F_R]

    if tag is PairSet.P_RT:
        s = t
        while s <= n:
            for i in range(1, n // s + 1):
                for flat in _walk(n - s * i, *flat_spec, r):
                    yield RectanglePair(flat, s, i)
            s += r
        return

    for i in range(1, n + 1):
        if tag is PairSet.A_O:
            if i % r == 0:
                continue
        elif tag in (PairSet.A_T, PairSet.B):
            if i % r != 0:
                continue
        j = i // r
        for flat in _walk(n - i, *flat_spec, r):
            if tag is PairSet.A_D:
                if flat.part_at(i) - flat.part_at(i + 1) >= r - 1:
                    continue
            elif tag is PairSet.A_T:
                if flat.part_at(j) - flat.part_at(j + 1) <= 0:
                    continue
            elif tag is PairSet.A:
                if flat.part_at(i) - flat.part_at(i + 1) != r - 1:
                    continue
            elif tag is PairSet.B:
                if flat.part_at(j) - flat.part_at(j + 1) != 0:
                    continue
            yield RectanglePair(flat, 1, i)


@lru_cache(maxsize=None)
def count_pairs(n, tag, r, t=None):
    """Number of pairs in the pair set; matches the enumeration exactly."""
    return sum(1 for _ in enumerate_pairs(n, tag, r, t))
