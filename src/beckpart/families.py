"""Enumeration and counting of the partition families and pair sets.

Plain families (for a modulus r >= 2):

* ``Or``  -- r-regular: no part divisible by r;
* ``Dr``  -- no part value repeated more than r-1 times;
* ``Fr``  -- r-flat: every gap (final part included) at most r-1;
* ``O1r`` -- exactly one distinct part value divisible by r;
* ``D1r`` -- exactly one value repeated at least r times;
* ``F1r`` -- exactly one gap at least r;
* ``Tr``  -- exactly one value repeated more than r but fewer than 2r times.

Decorated families attach one mark or overline to a member of a plain base
family, and the pair sets couple an r-flat partition with a rectangle.

Every plain family is one spec: a walk over the runs (v, c) of a partition,
values descending, in which each run is checked by one rule and the family
allows none or exactly one violation of it.  The spec is read four ways.
The lister and the membership test walk it run by run.  Counts and
statistic totals read it through a largest-value recurrence: each value m,
from the largest down, is skipped or taken c times, and one table per size
serves every n up to that size.  Counts are never listings and never come
from ``qseries``.

Every decorated family and every pair set is one table entry as well: a
base family with a rule for the positions that may carry the decoration,
or a kind of rectangle with a filter on its height i and a test of the
flat component's gap at i or i/r.  An entry is read three ways: the lister
streams it, a private membership reader tests one object against it, and
the maps of ``bijections`` check their domains and images through that
reader.

Every enumerator is deterministic: bases stream in descending lexicographic
order, decorations by increasing position, rectangles by increasing part
then count.  The order is part of the contract so fixtures stay stable.
"""

from __future__ import annotations

from collections import namedtuple
from copy import copy
from enum import Enum
from functools import lru_cache
from itertools import repeat, tee
from operator import add, and_, mul

from .partitions import (
    DecoratedPartition,
    MARK,
    OVERLINE,
    Partition,
    RectanglePair,
    _check_modulus,
    _check_residue,
    _is_flat_list,
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


# ---------------------------------------------------------------------------
# Counting and totals: the spec read by a largest-value recurrence.  A state
# (k left, m the largest value still allowed, violations used, g) either
# skips value m or takes c copies of it, and goes on to m - 1.  g is the
# gap a run of value m would make, capped at r, and 0 before the first run;
# a skip widens it by one and a run resets it to 1.  Only the gap rule reads
# the previous value, so every other rule keeps g = 0 and its states
# collapse.  A table holds one array over k = 0..size per (used, g) and is
# built by a loop over m = 1..size in which every run is one shifted add of
# a whole array: O(size^2 log size) additions and no recursion.  Sizes are
# powers of two, so a sweep over n = 0..N builds a few tables, not N.
# ---------------------------------------------------------------------------

def _size(n):
    # the size of the table that holds n: the least power of two >= n, and
    # at least 16, below which a table costs little more than its set-up
    return max(1 << (n - 1).bit_length(), 16)


@lru_cache(maxsize=None)
def _table(size, rule, viol, r, totals):
    # Per (used, g), the completions of the states (k, m = size, used, g)
    # for k = 0..size: their number, or with totals their statistic sums
    # packed in one integer, slot j at bit j * width.  The slots are count,
    # parts, distinct values, then r-slots of parts by residue and of runs
    # by min(c, r-1), and for the gap rule one of gaps (final part
    # included) by min(gap, r-1).
    breaks = _RULES[rule]
    gs = range(r + 1) if rule == "gap" else range(1)  # the values g may take
    states = [(u, g) for u in range(viol + 1) for g in gs]
    skips = [u * len(gs) + (g and min(g + 1, r)) for u, g in states]
    width = _width(size) if totals else 0

    def slot(j):
        return 1 << j * width

    def gap(g):
        return slot(3 + 2 * r + min(g, r - 1))

    def times(entries, weight):
        # each entry's count times the weight
        return map(mul, map(and_, entries, repeat(slot(1) - 1)), repeat(weight))

    def closes(u, g):
        # the walk stops at m = 0, and g is then the final part
        if u + breaks(r, g, 0, 0) != viol:
            return 0
        return 1 + gap(g) if totals and g else 1

    table = [[closes(u, g)] + [0] * size for u, g in states]
    for m in range(1, size + 1):
        # carried gaps that see every run of m alike share one sum of runs
        groups = {}
        for g in gs:
            seen = tuple(breaks(r, g and m + g, m, c) for c in range(1, size // m + 1))
            groups.setdefault(seen, []).append(g)
        new = [table[t] for t in skips]
        for seen, group in groups.items():
            for u in range(viol + 1):
                runs = [0] * (size + 1)
                for c, b in enumerate(seen, 1):
                    if u + b > viol:
                        continue
                    # after the run, the gap to the value below m is 1
                    child = table[(u + b) * len(gs) + (len(gs) > 1)]
                    if totals:  # each completion gains the run's statistics
                        child = map(add, child, times(child, c * slot(1) + slot(2)
                                                      + c * slot(3 + m % r)
                                                      + slot(3 + r + min(c, r - 1))))
                    runs[m * c:] = map(add, runs[m * c:], child)
                for g in group:
                    s = u * len(gs) + g
                    new[s] = list(map(add, new[s], runs))
                    if totals and g:  # and the gap from the value above m
                        new[s] = list(map(add, new[s], times(runs, gap(g))))
        table = new
    return table


def _width(size):
    # Bits per statistic slot.  A state with k left has at most p(k)
    # completions, and each adds at most k + 1 to a slot, so no slot of a
    # table of this size carries into the next.
    return ((size + 1) * _table(size, "none", 0, None, False)[0][size]).bit_length()


_Totals = namedtuple("_Totals", "count parts distinct residue repeats steep")


@lru_cache(maxsize=None, typed=True)  # typed, as count: a bool n must miss and fail
def _totals(n, family, r):
    """Statistic totals over a plain family of n.

    ``residue[t]`` sums the parts congruent to t mod r, ``repeats[t]`` the
    values repeated at least t times and ``steep[t]`` the gaps (final part
    included) at least t, for t in [1, r-1]; entry 0 is unused.  Only the
    gap rule carries gaps, so ``steep`` is None outside the flat families.
    """
    family = _validate(n, family, r, None)
    rule, viol = _SPEC[family]
    size = _size(n)
    width = _width(size)
    packed = _table(size, rule, viol, r, True)[0][n]
    s = [packed >> j * width & (1 << width) - 1 for j in range(3 + 3 * r)]

    def at_least(hist):
        return (0,) + tuple(sum(hist[t:]) for t in range(1, r))

    return _Totals(s[0], s[1], s[2], tuple(s[3:3 + r]), at_least(s[3 + r:3 + 2 * r]),
                   at_least(s[3 + 2 * r:]) if rule == "gap" else None)


# ---------------------------------------------------------------------------
# Listing and membership: the spec read run by run, from the largest value
# down, with state (n left, previous run value, violations used).
# ---------------------------------------------------------------------------

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
def _completes(n, prev, used, rule, viol, r):
    # whether a walk state has a completion (a nonzero count), by a search
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
# Decorated families and pair sets, one table entry each.  The lister, the
# membership readers and the maps' domain and image checks all read them.
# ---------------------------------------------------------------------------

def _gap(lam, i):
    # the gap at 1-based position i, parts past the length reading 0
    return lam.part_at(i) - lam.part_at(i + 1)


def _any(*_):
    return True


def _last_occurrence(lam, r, t, i):
    return i == len(lam) or lam[i] != lam[i - 1]


# family -> (base, decoration, whether position i may carry it, size from
# the base totals).  Each is counted by one totals entry of its base.
_DECORATED = {
    Family.O_STAR: (Family.O_R, MARK, lambda lam, r, t, i: lam[i - 1] % r == t,
                    lambda totals, t: totals.residue[t]),
    Family.F_BAR: (Family.F_R, OVERLINE, lambda lam, r, t, i: _gap(lam, i) >= t,
                   lambda totals, t: totals.steep[t]),
    Family.O_BAR: (Family.O_R, OVERLINE, _last_occurrence, lambda totals, t: totals.distinct),
    Family.D_BAR: (Family.D_R, OVERLINE, _last_occurrence, lambda totals, t: totals.distinct),
}

# pair set -> (whether the rectangle (s^i) has parts s of residue t rather
# than s = 1, whether height i is kept, a gap test on the r-flat component)
_PAIRS = {
    PairSet.P_RT: (True, _any, _any),
    PairSet.A_O: (False, lambda r, i: i % r != 0, _any),
    PairSet.A_D: (False, _any, lambda flat, r, i: _gap(flat, i) < r - 1),
    PairSet.A_T: (False, lambda r, i: i % r == 0, lambda flat, r, i: _gap(flat, i // r) > 0),
    PairSet.A: (False, _any, lambda flat, r, i: _gap(flat, i) == r - 1),
    PairSet.B: (False, lambda r, i: i % r == 0, lambda flat, r, i: _gap(flat, i // r) == 0),
}
_NEEDS_T = (Family.O_STAR, Family.F_BAR, PairSet.P_RT)


def _in_decorated(x, family, r, t=None):
    # whether x lies in the decorated family, r and t taken as valid
    base, decoration, allowed, _ = _DECORATED[family]
    return (isinstance(x, DecoratedPartition) and x.decoration == decoration
            and is_member(x.base, base, r) and allowed(x.base, r, t, x.position))


def _in_pairs(x, tag, r, t=None):
    # whether x lies in the pair set, r and t taken as valid
    residue, height, gap = _PAIRS[tag]
    return (isinstance(x, RectanglePair) and (x.part % r == t if residue else x.part == 1)
            and height(r, x.count) and _is_flat_list(x.flat, r) and gap(x.flat, r, x.count))


def _member(x, tag, r, t=None):
    # whether x lies in the family or pair set, r and t taken as valid
    if tag in _PAIRS:
        return _in_pairs(x, tag, r, t)
    if tag in _DECORATED:
        return _in_decorated(x, tag, r, t)
    return isinstance(x, Partition) and is_member(x, tag, r)


# ---------------------------------------------------------------------------
# Public enumeration API.
# ---------------------------------------------------------------------------

def _validate(n, tag, r, t, kind=Family):
    if not _is_int(n) or n < 0:
        raise ValueError(f"n must be a non-negative integer, got {n!r}")
    tag = kind(tag)
    if tag is not Family.ALL:
        _check_modulus(r)
    if tag in _NEEDS_T:
        if t is None:
            raise ValueError(f"{tag.value!r} requires the residue t")
        _check_residue(r, t)
    elif t is not None:
        raise ValueError(f"{tag.value!r} does not take a residue t")
    return tag


def enumerate_family(n, family, r=None, t=None):
    """Stream every member of the family exactly once, in canonical order.

    Plain families yield Partition; decorated families yield
    DecoratedPartition with decorations in increasing position order.
    """
    family = _validate(n, family, r, t)
    if family in _SPEC:
        yield from _walk(n, *_SPEC[family], r)
        return
    base, decoration, allowed, _ = _DECORATED[family]
    for lam in _walk(n, *_SPEC[base], r):
        for i in range(1, len(lam) + 1):
            if allowed(lam, r, t, i):
                yield DecoratedPartition(lam, decoration, i)


@lru_cache(maxsize=None, typed=True)  # typed: count(True, ...) must not hit count(1, ...)
def count(n, family, r=None, t=None):
    """Number of members of the family; matches the enumeration exactly."""
    family = _validate(n, family, r, t)
    if family in _SPEC:
        return _table(_size(n), *_SPEC[family], r, False)[0][n]
    base, _, _, size = _DECORATED[family]
    return size(_totals(n, base, r), t)


def enumerate_pairs(n, tag, r, t=None):
    """Stream the (flat partition, rectangle) pairs of the given pair set.

    Rectangles iterate by increasing part then increasing count, the flat
    component in descending lexicographic order within each rectangle.
    """
    tag = _validate(n, tag, r, t, PairSet)
    residue, height, gap = _PAIRS[tag]
    for s in range(t, n + 1, r) if residue else (1,):
        for i in range(1, n // s + 1):
            if height(r, i):
                for flat in _walk(n - s * i, *_SPEC[Family.F_R], r):
                    if gap(flat, r, i):
                        yield RectanglePair(flat, s, i)


@lru_cache(maxsize=None, typed=True)
def count_pairs(n, tag, r, t=None):
    """Number of pairs in the pair set; matches the enumeration exactly."""
    return sum(1 for _ in enumerate_pairs(n, tag, r, t))


def clear_caches():
    """Empty every memo table of the module.

    That is the counting tables and totals, the lister's walk states, and
    the results of ``count`` and ``count_pairs``.
    """
    for memo in (_table, _totals, _completes, _live, count, count_pairs):
        memo.cache_clear()
