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

Every family and pair set has one lister, ``enumerate_family``, one counter,
``count`` (``counts`` for n = 0..n_max at once), and one membership test,
``is_member``; each takes a ``Family``
or ``PairSet`` tag and reads that tag's one table entry (``_SPEC``,
``_DECORATED`` or ``_PAIRS``).  Only this module knows which kind of set a
tag names.

Every plain family is one spec: a walk over the runs (v, c) of a partition,
values descending, in which each run is checked by one rule and the family
allows none or exactly one violation of it.  The spec is read four ways.
The lister walks it run by run and keeps one memo per spec: the live moves
of every state it has searched, the runs that lead on to a member.  A later
walk follows the stored moves by reference, and no walk enters a state with
no member below it.  The membership test walks the runs of one partition.
Counts and statistic totals read the spec through a largest-value
recurrence: each value m, from the largest down, is skipped or taken c
times.  Its table keeps one integer per statistic with one block of bits
per size k, so a run of m is one shift of each integer.  One table per
family is kept, the largest built, cut into one column per statistic, and
serves every n up to its size: a read of one n or of a range of n is a
slice.  One gate, the cost model, sizes and refuses every table: a table
past ``TABLE_BITS`` or ``TABLE_WORK`` is refused before anything is built.
At r <= 7 it admits count tables up to sizes 7565 to 12099 and totals
tables up to 2650 to 7006, and it refuses r close to n.

Every decorated family and every pair set is one table entry as well: a
base family with a rule for the positions that may carry the decoration
and the totals statistic that counts them, or a kind of rectangle with a
filter on its height i and a window (p, a, b): the flat component's gap
at p = i or i/r must lie in [a, b).  An entry is read four ways: the lister
streams it, the counter reads it from the tables, the membership test
checks one object against it, and the maps of ``bijections`` check their
domains and images through the predicate that test is built on, made once
per declared set.  Every count, of one n or of a range, is a read of the
count tables: a plain family's count column, a decorated family's totals
column, or for a pair set the flat count column through conjugation (see
``_pair_counts``).  No count lists a set or comes from ``qseries``.

Every enumerator is deterministic: bases stream in descending lexicographic
order, decorations by increasing position, rectangles by increasing part
then count.  The order is part of the contract so fixtures stay stable.
"""

from __future__ import annotations

from bisect import bisect_right
from enum import Enum
from functools import lru_cache
from math import log, log2, pi, sqrt
from operator import add, mul

from .partitions import (
    DecoratedPartition,
    MARK,
    OVERLINE,
    Partition,
    RectanglePair,
    _TEXTS,
    _check_modulus,
    _check_takes_t,
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
# collapse.
#
# A table of a given size keeps, per (used, g), one integer per statistic
# slot (a count table has the one slot of the count).  The value at
# k = 0..size sits in the width-bit block at bit (size - k) * width, so
# taking c copies of m, which moves every value from k to k + m*c, is one
# right shift that drops whatever passes size.  The table is built by a
# loop over m = 1..size that adds each run (m, c), longest first, as one
# shift and one add per slot: about size * ln(size) runs per state and
# slot, each over at most size * width bits, and no recursion.  Once built,
# only the slots of the start state (used = 0, g = 0) are kept, each cut
# into one column of its values at k = 0..size.  One holder per (rule,
# violations, r, totals) keeps the columns of the largest table built, and
# every read, of one n or of a range, is a slice of them.  A table that
# holds n is built at twice the held size, and at least 16, where the cost
# model admits that size, and otherwise at n itself: a sweep that reads
# 0..n_max builds one table per spec at size n_max, and a run of rising n
# rebuilds O(log n) times.
# ---------------------------------------------------------------------------

# The one gate on the tables: a table past TABLE_BITS or TABLE_WORK, as
# _cost works them out, is refused before it is allocated.  A table keeps
# states x slots integers of (size + 1) * width bits, and its build adds each
# into the next m's at every m and shifts each slot (violations + 1) times
# per run, about size ln(size) runs: bits * size * (1 + (violations + 1)
# ln(size) / states) bit operations in all.  On a grid of 116 builds, those
# of a second or more took 0.5 to 2 times the work times 17 ps.  At r <= 7
# the model admits count tables up to sizes 7565 to 12099 and totals tables
# up to 2650 to 7006.  In a fresh process (Python 3.11, 2-core VM) the Or
# count at r = 3 took 4.7 s at n = 8192 and 12 s at n = 12099, the largest
# admitted, and the costliest admitted build, the F1r count at r = 2 and
# n = 8653, took 12 s; none peaked past 28 MiB RSS.  Every table at r <= 7
# and size 2048 is admitted; the costliest, the F1r totals (9.2 MiB, 3.1e11
# bit operations, 8 s), is first refused at r = 10.  r close to n is
# refused: the Fbar count at r = 300 and n = 2000 would hold 23 MiB and take
# 3.4e12 bit operations.
TABLE_BITS = 1 << 27
TABLE_WORK = 6 * 10 ** 11


def _cost(size, rule, viol, r, totals):
    # the bits a table of the spec holds at size, the bit operations its
    # build takes and its block width, with the states and slots _build keeps
    cap = r and min(r, size + 1)
    states = (viol + 1) * (cap + 1 if rule == "gap" else 1)
    width = _width(size, totals)
    bits = states * (2 * cap if totals else 1) * (size + 1) * width
    return bits, bits * size * (1 + (viol + 1) * log(size) / states), width


@lru_cache(maxsize=None)
def _held(rule, viol, r, totals):
    # the largest table built for the spec so far, as [size, columns]
    return [-1, None]


def _table(n, rule, viol, r, totals):
    # the columns of a table that holds n, one per slot of the start state;
    # a larger one replaces the held table only once it is built
    held = _held(rule, viol, r, totals)
    if n > held[0]:
        if n >= TABLE_BITS:  # every block holds a bit: refused uncosted, where floats overflow
            raise ValueError(f"n = {n} is too large at r = {r}: past {TABLE_BITS >> 23} MiB")
        for size in max(n, 16, 2 * held[0]), max(n, 16):  # doubled, else n's own
            bits, work, width = _cost(size, rule, viol, r, totals)
            if bits <= TABLE_BITS and work <= TABLE_WORK:
                break
        else:  # refused before any table is built
            raise ValueError(f"n = {n} is too large at r = {r}: {bits >> 23} MiB and {work:.1e} "
                             f"bit operations, past {TABLE_BITS >> 23} MiB or {TABLE_WORK:.0e}")
        start = _build(size, rule, viol, r, totals, width)[0]
        held[:] = size, [_blocks(x, size, width) for x in start]
    return held[1]


def _blocks(x, size, width):
    # the width-bit blocks of x at k = 0..size, block k at bit (size - k) *
    # width.  A small table is cut by shifts, each O(size * width); a large
    # one through one binary string, so the cut stays linear in its bits.
    if size < 256:
        mask = (1 << width) - 1
        return [x >> (size - k) * width & mask for k in range(size + 1)]
    bits = format(x, f"0{(size + 1) * width}b")
    return [int(bits[i:i + width], 2) for i in range(0, len(bits), width)]


def _read(lo, hi, rule, viol, r):
    # the count of the completions of the states (k = n, m = size, 0, 0) at
    # n = lo..hi, as a list: a slice of the held count table (_stat reads
    # the totals tables)
    return _table(hi, rule, viol, r, False)[0][lo:hi + 1]


def _width(size, totals):
    # Bits per block.  A state with k left has at most p(k) <= p(size)
    # completions, and each adds at most k + 1 to a statistic, so no block
    # carries into the next once p(n), n = size, fits in w(n) = floor(pi
    # sqrt(2n/3) / ln 2 - log2 n) + 1 bits: the leading term e^(pi
    # sqrt(2n/3)) / n of the Hardy-Ramanujan asymptotic of p(n), its factor
    # 1/(4 sqrt 3) left out as slack.  The bound is checked, not proven: it
    # keeps at least 2 bits to spare at every size 1..16384, past the largest
    # table the cost model admits (12099, a plain count table), and the
    # tests check it up to that size.  A totals block adds the bits of size + 1.
    bits = int(pi * sqrt(2 * size / 3) / log(2) - log2(size)) + 1 if size else 1
    return bits + (size + 1).bit_length() if totals else bits


def _build(size, rule, viol, r, totals, width):
    # Per (used, g), the slots of the completions of the states (k, m = size,
    # used, g) for k = 0..size.  A totals table has one layout whatever its
    # rule: the count, then parts by residue j = 0..cap-1, then runs by
    # min(c, cap-1) for c = 1..cap-1, at slot cap + c.  g is read only by the
    # gap rule's violation test, so no slot depends on it.  No value or run of
    # a partition of size passes size, so the g and the slots past
    # cap = min(r, size + 1) would stay empty and are not kept: cost grows
    # with min(r, size), not with r.
    breaks = _RULES[rule]
    cap = r and min(r, size + 1)  # r is None only for the plain count table
    gs = range(cap + 1) if rule == "gap" else range(1)  # the values g may take
    states = [(u, g) for u in range(viol + 1) for g in gs]
    skips = [u * len(gs) + (g and min(g + 1, cap)) for u, g in states]
    slots = 2 * cap if totals else 1

    # the walk stops at m = 0 with k = 0, and g is then the final part
    table = [[(u + breaks(r, g, 0, 0) == viol) << size * width] + [0] * (slots - 1)
             for u, g in states]
    after = len(gs) > 1  # the g after a run: the gap to the value below m is 1
    for m in range(1, size + 1):
        longest = range(size // m, 0, -1)  # the runs of m, longest first
        # carried gaps that see every run of m alike share one sum of runs
        groups = {}
        for g in gs:
            seen = tuple([breaks(r, g and m + g, m, c) for c in longest])
            groups.setdefault(seen, []).append(g)
        new = [table[t] for t in skips]
        for seen, group in groups.items():
            for u in range(viol + 1):
                if not totals:
                    runs = [sum(table[(u + b) * len(gs) + after][0] >> m * c * width
                                for c, b in zip(longest, seen) if u + b <= viol)]
                else:
                    runs = [0] * slots
                    parts = 0  # the sum of c times the runs of c: runs[0] summed after each c
                    for c, b in zip(longest, seen):
                        if u + b <= viol:
                            shift = m * c * width
                            moved = [x >> shift for x in table[(u + b) * len(gs) + after]]
                            runs = list(map(add, runs, moved))
                            if c < cap - 1:
                                runs[cap + c] += moved[0]
                        parts += runs[0]
                        if c == cap - 1:  # every run of cap - 1 or more
                            runs[cap + c] += runs[0]
                    runs[1 + m % r] += parts  # each completion gains the run's parts
                if runs[0]:
                    for g in group:
                        s = u * len(gs) + g
                        new[s] = list(map(add, new[s], runs))
        table = new
    return table


def _cap(columns):
    # the residue slots a totals table keeps: min(r, size + 1)
    return len(columns) // 2


def _stat(lo, hi, family, stat, r, t=None):
    # One totals statistic of the plain family at n = lo..hi, as a list: the
    # parts or distinct values, or at residue t the parts congruent to t or
    # the values repeated at least t times.  Parts sum the residue slots and
    # distinct values the run slots; slots past cap = min(r, size + 1) are
    # not kept and read 0, as does t = 0 for repeats.
    columns = _table(hi, *_SPEC[family], r, True)
    cap = _cap(columns)
    residues, runs = columns[1:cap + 1], columns[cap + 1:]  # runs of c at cap + c
    # every entry is sliced, and t is None for the statistics that take none
    picked = {"parts": residues, "distinct": runs,
              "residue": residues[t:][:1], "repeats": runs[t - 1:] if t else []}[stat]
    return list(map(sum, zip(*(c[lo:hi + 1] for c in picked)))) or [0] * (hi - lo + 1)


# ---------------------------------------------------------------------------
# Listing and membership: the spec read run by run, from the largest value
# down, with state (n left, previous run value, violations used).  The lister
# keeps one memo per spec of each searched state's live moves, the moves that
# lead to a member, so a later walk enters only states with a member below.
# ---------------------------------------------------------------------------

def _moves(n, prev, used, rule, viol, r):
    # the runs (v, c) a walk at state (n, prev, used) may take, in descending
    # order, each with the violations used after it
    breaks = _RULES[rule]
    spent = used == viol
    # Never try runs the rule can only refuse: with no violation left a gap
    # rule allows only drops below r, and a run (v, c) only when the least
    # flat tail below v fits in what is left, a multiplicity rule only runs
    # below r, and a between rule never allows a run of 2r or more.
    tail = spent and rule == "gap"
    lo = max(1, prev - r + 1) if tail else 1
    hi = min(n, prev - 1) if prev else n
    if tail and not prev:
        # v + _least_tail(v) grows with v, so the first parts that fit are 1..hi
        hi = bisect_right(range(1, n + 1), n, key=lambda v: v + _least_tail(v, r))
    longest = (r - 1 if spent and rule in ("mult", "between")
               else 2 * r - 1 if rule == "between" else n)
    for v in range(hi, lo - 1, -1):
        most = (n - _least_tail(v, r)) // v if tail else n // v
        for c in range(min(most, longest), 0, -1):
            u = used + breaks(r, prev, v, c)
            if u <= viol:
                yield v, c, u


def _least_tail(v, r):
    # the least sum of an r-flat tail below a part v: v - k(r-1) over
    # k = 1..q, the parts that stay positive
    q = (v - 1) // (r - 1)
    return q * v - (r - 1) * q * (q + 1) // 2


@lru_cache(maxsize=None)
def _memo(rule, viol, r):
    # the lister's searched states of the spec: (n, prev, used) -> the tuple
    # of its live moves (run, below), below being None where the run closes
    # the walk and otherwise the stored tuple of the state below; an empty
    # tuple marks a state with no member below it
    return {}


def _walk(n, rule, viol, r):
    # Members in descending lexicographic order, built in one mutable list.
    # Each stack entry holds the live moves left at one state and the number
    # of parts placed before it.  A stored state's moves are followed by
    # reference, so a branch taken from one always ends in a member; a state
    # not yet stored is entered through its search, which may find none.
    if not n:
        if _RULES[rule](r, 0, 0, 0) == viol:
            yield Partition()
        return
    memo = _memo(rule, viol, r)

    def search(n, prev, used):
        # The live moves of a state not yet stored, yielded as they are
        # found, with the search of a state below that is not stored either,
        # and stored once exhausted.  A walk resumes a search only after
        # exhausting the search below it, so a walk cut short, by an error or
        # by closing the stream, stores nothing for the states on its stack.
        found = []
        for v, c, u in _moves(n, prev, used, rule, viol, r):
            run, rest = (v,) * c, n - v * c
            if not rest:
                below = None if u + _RULES[rule](r, v, 0, 0) == viol else ()
            elif (below := memo.get((rest, v, u))) is None:
                yield run, search(rest, v, u)
                if below := memo[rest, v, u]:
                    found.append((run, below))
                continue
            if below != ():  # the run leads to a member
                found.append((run, below))
                yield run, below
        memo[n, prev, used] = tuple(found)

    top = memo.get((n, 0, 0))
    make = tuple.__new__  # Partition._make without its frame: parts is canonical
    parts = []
    stack = [(search(n, 0, 0) if top is None else iter(top), 0)]
    while stack:
        moves, depth = stack[-1]
        for run, below in moves:
            del parts[depth:]
            parts += run
            if below is not None:
                stack.append((iter(below), len(parts)))
                break
            yield make(Partition, parts)
        else:
            stack.pop()


def _keeps(lam, breaks, viol, r):
    # Whether the runs of lam break the rule exactly viol times.  The runs
    # are read off the sorted parts in one pass, stopping once the
    # violations pass those allowed (a rule never takes one back).
    used = prev = i = 0
    k = len(lam)
    while i < k:
        v = lam[i]
        j = i + 1
        while j < k and lam[j] == v:
            j += 1
        used += breaks(r, prev, v, j - i)
        if used > viol:
            return False
        prev, i = v, j
    return used + breaks(r, prev, 0, 0) == viol


# ---------------------------------------------------------------------------
# Decorated families and pair sets, one table entry each.  The lister, the
# counter and the membership reader read them, and the maps' domain and
# image checks read the membership reader.
# ---------------------------------------------------------------------------

def _gap(lam, i):
    # the gap at 1-based position i >= 1, parts past the length reading 0
    k = len(lam)
    if i >= k:
        return lam[i - 1] if i == k else 0
    return lam[i - 1] - lam[i]


def _any(*_):
    return True


def _last_occurrence(lam, r, t, i):
    return i == len(lam) or lam[i] != lam[i - 1]


# family -> (base, decoration, whether position i may carry it, the
# (family, totals statistic) that counts the positions, read at t by _stat).
# Fbar's gaps of at least t are read by conjugation, which takes the gap at
# p of an r-flat partition to the multiplicity of p: the gaps of at least t
# over Fr are the values repeated at least t times over Dr.
_DECORATED = {
    Family.O_STAR: (Family.O_R, MARK, lambda lam, r, t, i: lam[i - 1] % r == t,
                    (Family.O_R, "residue")),
    Family.F_BAR: (Family.F_R, OVERLINE, lambda lam, r, t, i: _gap(lam, i) >= t,
                   (Family.D_R, "repeats")),
    Family.O_BAR: (Family.O_R, OVERLINE, _last_occurrence, (Family.O_R, "distinct")),
    Family.D_BAR: (Family.D_R, OVERLINE, _last_occurrence, (Family.D_R, "distinct")),
}

# pair set -> (whether the rectangle (s^i) has parts s of residue t rather
# than s = 1, whether height i is kept, and None or the window of a kept
# height: (r, i) -> (p, a, b), the flat component kept when its gap at p
# lies in [a, b))
_PAIRS = {
    PairSet.P_RT: (True, _any, None),
    PairSet.A_O: (False, lambda r, i: i % r != 0, None),
    PairSet.A_D: (False, _any, lambda r, i: (i, 0, r - 1)),
    PairSet.A_T: (False, lambda r, i: i % r == 0, lambda r, i: (i // r, 1, r)),
    PairSet.A: (False, _any, lambda r, i: (i, r - 1, r)),
    PairSet.B: (False, lambda r, i: i % r == 0, lambda r, i: (i // r, 0, 1)),
}
_NEEDS_T = (Family.O_STAR, Family.F_BAR, PairSet.P_RT)


def _window(gap, r, i):
    # the window of a pair set's height i; with no gap test, every gap of an
    # r-flat partition, 0..r-1
    return gap(r, i) if gap else (1, 0, r)


def _membership(tag):
    # The membership test of a family or pair set, as a predicate of
    # (x, r, t) with r and t taken as valid.  The table entry is read here,
    # once, so a caller that keeps the predicate pays only for the test.
    if tag in _PAIRS:
        residue, height, gap = _PAIRS[tag]

        def kept(flat, r, i):
            p, a, b = _window(gap, r, i)
            return a <= _gap(flat, p) < b

        return lambda x, r, t: (
            isinstance(x, RectanglePair) and (x.part % r == t if residue else x.part == 1)
            and height(r, x.count) and _is_flat_list(x.flat, r) and kept(x.flat, r, x.count))
    if tag in _DECORATED:
        base, decoration, allowed, _ = _DECORATED[tag]
        plain = _membership(base)
        return lambda x, r, t: (
            isinstance(x, DecoratedPartition) and x.decoration == decoration
            and plain(x.base, r, t) and allowed(x.base, r, t, x.position))
    rule, viol = _SPEC[tag]
    breaks = _RULES[rule]
    return lambda x, r, t: isinstance(x, Partition) and _keeps(x, breaks, viol, r)


# ---------------------------------------------------------------------------
# Public enumeration API.
# ---------------------------------------------------------------------------

def _validate(n, tag, r, t):
    # the Family or PairSet that tag names (the two share no value), once n,
    # r and t are checked for it
    if not _is_int(n) or n < 0:
        raise ValueError(f"n must be a non-negative integer, got {n!r}")
    tag = PairSet(tag) if isinstance(tag, str) and tag in _PAIRS else Family(tag)
    if tag is not Family.ALL:
        _check_modulus(r)
    _check_takes_t(repr(tag.value), r, t, tag in _NEEDS_T)
    return tag


def enumerate_family(n, tag, r=None, t=None):
    """Stream every member of the family or pair set exactly once, in canonical order.

    Plain families yield Partition; decorated families yield
    DecoratedPartition with decorations in increasing position order; pair
    sets yield RectanglePair, rectangles by increasing part then count and
    the flat component in descending lexicographic order within each.
    """
    tag = _validate(n, tag, r, t)
    if tag in _SPEC:
        yield from _walk(n, *_SPEC[tag], r)
    elif tag in _PAIRS:
        gap = _PAIRS[tag][2]
        for s, i in _rectangles(n, tag, r, t):
            p, a, b = _window(gap, r, i)
            for flat in _walk(n - s * i, *_SPEC[Family.F_R], r):
                if a <= _gap(flat, p) < b:
                    yield RectanglePair._make(flat, s, i)
    else:
        base, decoration, allowed, _ = _DECORATED[tag]
        for lam in _walk(n, *_SPEC[base], r):
            for i in range(1, len(lam) + 1):
                if allowed(lam, r, t, i):
                    yield DecoratedPartition._make(lam, decoration, i)


def _rectangles(n, tag, r, t):
    # the rectangles (s^i) of the pair set's members of n, in listing order
    residue, height, _ = _PAIRS[tag]
    for s in range(t, n + 1, r) if residue else (1,):
        for i in range(1, n // s + 1):
            if height(r, i):
                yield s, i


def _pair_counts(lo, hi, tag, r, t):
    # The pair set's counts at n = lo..hi, read from the flat count column F
    # through conjugation.  Conjugation takes an r-flat partition to one with
    # no value repeated r or more times, its gap at p to the multiplicity of
    # p there, so the flat partitions whose gap at p lies in [a, b) number
    # F(q) (q^(p a) - q^(p b)) / (1 - q^(r p)).  Each kept rectangle (s^i)
    # adds to the marks M +1 at k = s i + p a + j r p and -1 at s i + p b +
    # j r p for j >= 0, or +1 at s i alone with no gap test, and count(n) is
    # the sum over k of F[n - k] M[k]: n log n steps for M, n for each n.
    # F is read first, so a refused n or table builds no marks.
    flats = _read(0, hi, *_SPEC[Family.F_R], r)
    gap = _PAIRS[tag][2]
    marks = [0] * (hi + 1)
    for s, i in _rectangles(hi, tag, r, t):
        if gap is None:
            marks[s * i] += 1
            continue
        p, a, b = gap(r, i)
        for first, sign in ((a, 1), (b, -1)):
            for k in range(s * i + p * first, hi + 1, r * p):
                marks[k] += sign
    return [sum(map(mul, flats[n::-1], marks)) for n in range(lo, hi + 1)]


def _column(lo, hi, tag, r, t):
    # the set's counts at n = lo..hi, as a list, each a read of the tables:
    # a plain family's count column, a decorated family's totals statistic,
    # or a pair set's marks against the flat count column
    if tag in _SPEC:
        return _read(lo, hi, *_SPEC[tag], r)
    if tag in _DECORATED:
        return _stat(lo, hi, *_DECORATED[tag][3], r, t)
    return _pair_counts(lo, hi, tag, r, t)


@lru_cache(maxsize=None, typed=True)  # typed: count(True, ...) must not hit count(1, ...)
def count(n, tag, r=None, t=None):
    """Number of members of the family or pair set; matches the enumeration exactly."""
    return _column(n, n, _validate(n, tag, r, t), r, t)[0]


def counts(n_max, tag, r=None, t=None):
    """``count(n, tag, r, t)`` for n = 0..n_max, as a list.

    Every set is one read of the count tables, the same read ``count``
    makes at one n, so a size or table refused is refused before anything
    is counted.
    """
    return _column(0, n_max, _validate(n_max, tag, r, t), r, t)


def is_member(x, tag, r, t=None):
    """Exact membership test of x in the family or pair set.

    x is a Partition (a list or tuple of parts is read as one) for a plain
    family, a DecoratedPartition for a decorated family and a RectanglePair
    for a pair set; an object of another kind is not a member.
    """
    tag = _validate(0, tag, r, t)  # x carries its own size
    if tag in _SPEC and type(x) in (list, tuple):
        x = Partition(x)
    return _membership(tag)(x, r, t)


def clear_caches():
    """Empty every memo table of the package.

    That is the count and totals tables, the lister's walk states, the
    results of ``count`` and the texts of part values.
    """
    for memo in (_held, _memo, count, _TEXTS):
        memo.cache_clear()
