"""Integer partitions and the small operation algebra everything else builds on.

Conventions used throughout the package:

* a partition is a non-increasing tuple of positive integers; the empty
  partition is the unique partition of 0;
* parts beyond the length read as 0 (the usual zero-padding convention),
  as in the componentwise sum and difference;
* the "gaps" of a partition are the consecutive differences *including*
  the final part measured against 0, so a nonempty partition has exactly
  as many gaps as parts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import add, lt, sub


def _is_int(x):
    # bool is an int subclass, but True is not a number of anything
    return type(x) is int or (isinstance(x, int) and not isinstance(x, bool))


def _check_modulus(r):
    if not _is_int(r) or r < 2:
        raise ValueError(f"modulus r must be an integer >= 2, got {r!r}")


def _check_residue(r, t):
    _check_modulus(r)
    if not _is_int(t) or not 1 <= t <= r - 1:
        raise ValueError(f"residue t must lie in [1, {r - 1}], got {t!r}")


def _check_takes_t(what, r, t, takes):
    # takes: True if `what` requires the residue t, False if it refuses it,
    # None if it accepts either
    if t is None:
        if takes:
            raise ValueError(f"{what} requires the residue t")
    elif takes is False:
        raise ValueError(f"{what} does not take a residue t")
    else:
        _check_residue(r, t)


def _is_flat_list(parts, r):
    # whether every gap of the non-increasing parts, the final part included, is below r
    return not parts or (parts[-1] < r and max(map(sub, parts, parts[1:]), default=0) < r)


def _conjugate(parts):
    # The conjugate of the non-increasing parts, as a list.  Its entry j is
    # the number of parts >= j: the multiplicities of the values >= j summed.
    if not parts:
        return []
    mult = Counter(parts)
    return list(accumulate(map(mult.get, range(parts[0], 0, -1), repeat(0))))[::-1]


class _Texts(dict):
    # The decimal text of each part value, made by ``str`` on its first use
    # and kept for the process: a listing renders a few dozen distinct
    # values over and over.  Part values are exact ints (``Partition``
    # refuses int subclasses), so no two keys of one hash render apart.
    def __missing__(self, v):
        text = self[v] = str(v)
        return text


_TEXTS = _Texts()
# the memo's own cache_clear, as a functools cache has; on the instance, so
# that a harness calling every cache_clear it finds never meets an unbound one
_TEXTS.cache_clear = _TEXTS.clear
_text = _TEXTS.__getitem__


class Partition(tuple):
    """A partition: non-increasing tuple of positive integers."""

    __slots__ = ()

    def __new__(cls, parts=()):
        t = tuple(parts)
        prev = None
        for p in t:
            if type(p) is not int or p < 1:
                raise ValueError(f"invalid part {p!r}: parts must be positive integers")
            if prev is not None and p > prev:
                raise ValueError(f"parts must be non-increasing, got {prev} before {p}")
            prev = p
        return tuple.__new__(cls, t)

    @classmethod
    def from_multiset(cls, parts):
        """Build a partition from positive integers in any order."""
        t = list(parts)
        for p in t:
            if type(p) is not int or p < 1:
                raise ValueError(f"invalid part {p!r}: parts must be positive integers")
        t.sort(reverse=True)
        return tuple.__new__(cls, t)

    @classmethod
    def _make(cls, canonical):
        # Fast path: caller guarantees non-increasing positive ints.  Callers
        # pass lists, not generators: CPython 3.11 builds a tuple from a
        # generator by resizing a 10-slot one, and the per-size tuple free
        # lists then fill with the resized blocks (about 1.4 MiB over a
        # 28 s maps benchmark run).
        return tuple.__new__(cls, canonical)

    # -- basic statistics -------------------------------------------------

    @property
    def size(self):
        """The number being partitioned (sum of parts)."""
        return sum(self)

    def multiplicities(self):
        """Counter mapping each part value to its multiplicity."""
        return Counter(self)

    def gaps(self):
        """Consecutive differences, with the final part counted against 0."""
        if not self:
            return ()
        return tuple([self[i] - self[i + 1] for i in range(len(self) - 1)] + [self[-1]])

    # -- the three operations + conjugation -------------------------------

    def union(self, other):
        """Multiset union: all parts of both, re-sorted."""
        other = other if isinstance(other, Partition) else Partition(other)
        return Partition._make(sorted([*self, *other], reverse=True))

    def __add__(self, other):
        """Componentwise sum, the shorter operand zero-padded."""
        other = other if isinstance(other, Partition) else Partition(other)
        k = min(len(self), len(other))
        return Partition._make([*map(add, self, other), *self[k:], *other[k:]])

    def __sub__(self, other):
        """Componentwise difference; defined only when the result is a partition."""
        other = other if isinstance(other, Partition) else Partition(other)
        if len(other) > len(self):
            raise ValueError(f"cannot subtract: {other} is longer than {self}")
        diffs = [*map(sub, self, other), *self[len(other):]]
        if min(diffs, default=0) < 0:
            i = next(i for i, d in enumerate(diffs) if d < 0)
            raise ValueError(f"cannot subtract: part {other[i]} exceeds {self[i]}")
        if any(map(lt, diffs, diffs[1:])):
            raise ValueError(f"difference {tuple(diffs)} is not a partition")
        # non-negative and non-increasing, so the zeros are a suffix
        return Partition._make(diffs[:len(diffs) - diffs.count(0)])

    def conjugate(self):
        """Transpose of the Ferrers diagram: entry j counts parts >= j."""
        return Partition._make(_conjugate(self))

    # -- rendering ----------------------------------------------------------

    def to_plain(self):
        return ",".join(map(_text, self))

    def to_exponential(self):
        return ",".join(
            # a Counter keeps first-occurrence order, which is decreasing here
            f"{v}^{c}" if c > 1 else str(v) for v, c in self.multiplicities().items()
        )

    __str__ = to_plain

    def __repr__(self):
        return f"Partition({tuple(self)!r})"


def rectangle(part, count):
    """The partition (part^count): count equal parts."""
    if not _is_int(part) or part < 1:
        raise ValueError(f"rectangle part must be a positive integer, got {part!r}")
    if not _is_int(count) or count < 0:
        raise ValueError(f"rectangle count must be a non-negative integer, got {count!r}")
    return Partition._make((part,) * count)


# The largest size (sum of parts) of a partition read from text.  The
# costliest command per unit of size, `bijection --map xi --trace` on 1^n at
# r = 2, took 0.40 s and 62 MiB at n = 10^5 and 3.2 s and 492 MiB at
# n = 10^6; `diagram --r 2` on 1^n took 0.16 s and 1.8 s at the same sizes,
# and every map took less (Python 3.11, 2-core VM).  Each grows linearly in n, so text of
# a larger size is refused, token by token, before its parts are expanded.
SIZE_LIMIT = 100000


def _check_size(size, what="partition"):
    if size > SIZE_LIMIT:
        raise ValueError(f"{what} size must be at most {SIZE_LIMIT}, got {size}")


def _parse_int(text, token):
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"non-numeric token {token!r} in partition text") from None


def parse_partition(text):
    """Parse "10,7,7,5,4,3" or "5^2,4,3^3,1^2" (or a mix) into a Partition.

    Parts may appear in any order; the result is canonical.  A size past
    ``SIZE_LIMIT`` is refused before any exponent is expanded.
    """
    s = text.strip()
    if not s:
        return Partition()
    parts = []
    size = 0
    for raw in s.split(","):
        tok = raw.strip()
        if not tok:
            raise ValueError(f"empty token in partition text {text!r}")
        if "^" in tok:
            base_s, _, exp_s = tok.partition("^")
            base = _parse_int(base_s, tok)
            exp = _parse_int(exp_s, tok)
            if exp < 1:
                raise ValueError(f"zero or negative exponent in token {tok!r}")
        else:
            base = _parse_int(tok, tok)
            exp = 1
        if base < 1:
            raise ValueError(f"zero or negative part in token {tok!r}")
        size += base * exp
        _check_size(size)
        parts.extend([base] * exp)
    return Partition.from_multiset(parts)


class Composition(tuple):
    """A finite sequence of non-negative integers, order significant.

    Unlike a partition the entries need not be monotone, and zero entries
    are allowed (they occur naturally as placement counts).
    """

    __slots__ = ()

    def __new__(cls, entries=()):
        t = tuple(entries)
        for e in t:
            if not _is_int(e) or e < 0:
                raise ValueError(f"invalid entry {e!r}: entries must be integers >= 0")
        return tuple.__new__(cls, t)

    def __repr__(self):
        return f"Composition({tuple(self)!r})"


MARK = "mark"
OVERLINE = "overline"


@dataclass(frozen=True)
class DecoratedPartition:
    """A partition with one distinguished part occurrence.

    ``position`` is the 1-based index of the decorated occurrence in the
    non-increasing part list.  An overline may only sit on the last
    occurrence of its value; marks may sit on any occurrence.
    """

    base: Partition
    decoration: str
    position: int

    def __post_init__(self):
        if not isinstance(self.base, Partition):
            object.__setattr__(self, "base", Partition(self.base))
        if self.decoration not in (MARK, OVERLINE):
            raise ValueError(f"unknown decoration {self.decoration!r}")
        if not _is_int(self.position) or not 1 <= self.position <= len(self.base):
            raise ValueError(
                f"decoration position {self.position} outside partition of length {len(self.base)}"
            )
        if self.decoration == OVERLINE:
            if self.position < len(self.base) and self.base[self.position] == self.value:
                raise ValueError(
                    f"overline must sit on the last occurrence of {self.value}"
                )

    @property
    def value(self):
        return self.base[self.position - 1]

    @property
    def size(self):
        return self.base.size

    @classmethod
    def _make(cls, base, decoration, position):
        # Fast path: the caller guarantees a Partition base, a known
        # decoration and a position it may carry.
        x = object.__new__(cls)
        x.__dict__.update(base=base, decoration=decoration, position=position)
        return x

    def text(self):
        bits = list(map(_text, self.base))
        bits[self.position - 1] += "*" if self.decoration == MARK else "~"
        return ",".join(bits)

    __str__ = text


@dataclass(frozen=True)
class RectanglePair:
    """A pair (flat partition, rectangle): the rectangle is count copies of part."""

    flat: Partition
    part: int
    count: int

    def __post_init__(self):
        if not isinstance(self.flat, Partition):
            object.__setattr__(self, "flat", Partition(self.flat))
        if not _is_int(self.part) or self.part < 1:
            raise ValueError(f"rectangle part must be a positive integer, got {self.part!r}")
        if not _is_int(self.count) or self.count < 1:
            raise ValueError(f"rectangle count must be a positive integer, got {self.count!r}")

    @classmethod
    def _make(cls, flat, part, count):
        # Fast path: the caller guarantees a Partition flat component and
        # positive integers part and count.
        x = object.__new__(cls)
        x.__dict__.update(flat=flat, part=part, count=count)
        return x

    @property
    def size(self):
        return self.flat.size + self.part * self.count

    def rectangle(self):
        return rectangle(self.part, self.count)

    def text(self):
        return f"(({self.flat.to_plain()}), ({self.part}^{self.count}))"

    __str__ = text


def modular_diagram_rows(lam, r):
    """Rows of the r-modular Ferrers diagram as lists of cell values.

    Row i holds q cells filled with r and a final cell s, where
    lam_i = q*r + s and 1 <= s <= r (s = r exactly when r divides lam_i).
    """
    _check_modulus(r)
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    rows = []
    for p in lam:
        q, s = divmod(p, r)
        if s == 0:
            q, s = q - 1, r
        rows.append([r] * q + [s])
    return rows


def modular_diagram(lam, r):
    """The r-modular Ferrers diagram rendered as a text grid."""
    rows = modular_diagram_rows(lam, r)
    return "\n".join(" ".join(str(c) for c in row) for row in rows)
