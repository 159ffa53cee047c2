"""Integer partitions and the small operation algebra everything else builds on.

Conventions used throughout the package:

* a partition is a non-increasing tuple of positive integers; the empty
  partition is the unique partition of 0;
* the mathematical API is 1-based (``part_at``), and parts beyond the
  length read as 0 (the usual zero-padding convention);
* the "gaps" of a partition are the consecutive differences *including*
  the final part measured against 0, so a nonempty partition has exactly
  as many gaps as parts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import sub


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


def _is_flat_list(parts, r):
    # whether every gap of the non-increasing parts, the final part included, is below r
    return not parts or (parts[-1] < r and max(map(sub, parts, parts[1:]), default=0) < r)


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

    def part_at(self, i):
        """The i-th part, 1-based; 0 beyond the length."""
        if i < 1:
            raise IndexError(f"part index is 1-based, got {i}")
        return self[i - 1] if i <= len(self) else 0

    def multiplicities(self):
        """Counter mapping each part value to its multiplicity."""
        return Counter(self)

    def runs(self):
        """The parts as (value, multiplicity) pairs in decreasing value order."""
        # a Counter keeps first-occurrence order, which is decreasing here
        return list(Counter(self).items())

    def gaps(self):
        """Consecutive differences, with the final part counted against 0."""
        if not self:
            return ()
        return tuple([self[i] - self[i + 1] for i in range(len(self) - 1)] + [self[-1]])

    def residue_profile(self, r):
        """How many parts fall in each residue class mod r (index = residue)."""
        _check_modulus(r)
        prof = [0] * r
        for p in self:
            prof[p % r] += 1
        return tuple(prof)

    # -- the three operations + conjugation -------------------------------

    def union(self, other):
        """Multiset union: all parts of both, re-sorted."""
        other = other if isinstance(other, Partition) else Partition(other)
        return Partition.from_multiset(list(self) + list(other))

    def __add__(self, other):
        """Componentwise sum, the shorter operand zero-padded."""
        other = other if isinstance(other, Partition) else Partition(other)
        k = max(len(self), len(other))
        return Partition._make(
            [self.part_at(i) + other.part_at(i) for i in range(1, k + 1)]
        )

    def __sub__(self, other):
        """Componentwise difference; defined only when the result is a partition."""
        other = other if isinstance(other, Partition) else Partition(other)
        if len(other) > len(self):
            raise ValueError(f"cannot subtract: {other} is longer than {self}")
        diffs = []
        for i in range(1, len(self) + 1):
            d = self.part_at(i) - other.part_at(i)
            if d < 0:
                raise ValueError(
                    f"cannot subtract: part {other.part_at(i)} exceeds {self.part_at(i)}"
                )
            diffs.append(d)
        for i in range(len(diffs) - 1):
            if diffs[i] < diffs[i + 1]:
                raise ValueError(f"difference {tuple(diffs)} is not a partition")
        while diffs and diffs[-1] == 0:
            diffs.pop()
        return Partition._make(diffs)

    def scale(self, k):
        """Multiply every part by a positive integer k."""
        if not _is_int(k) or k < 1:
            raise ValueError(f"scale factor must be a positive integer, got {k!r}")
        return Partition._make([p * k for p in self])

    def conjugate(self):
        """Transpose of the Ferrers diagram: entry j counts parts >= j."""
        # Columns in (lam_{k+1}, lam_k] hold exactly k parts.
        cols = []
        below = 0
        for k in range(len(self), 0, -1):
            cols += [k] * (self[k - 1] - below)
            below = self[k - 1]
        return Partition._make(cols)

    # -- membership predicates used by the family machinery ----------------

    def is_regular(self, r):
        """True when no part is divisible by r."""
        _check_modulus(r)
        return all(p % r for p in self)

    def is_flat(self, r):
        """True when every gap (final part included) is at most r - 1."""
        _check_modulus(r)
        return _is_flat_list(self, r)

    def max_multiplicity(self):
        return max(self.multiplicities().values(), default=0)

    # -- rendering ----------------------------------------------------------

    def to_plain(self):
        return ",".join(str(p) for p in self)

    def to_exponential(self):
        return ",".join(
            f"{v}^{c}" if c > 1 else str(v) for v, c in self.runs()
        )

    def __str__(self):
        return self.to_plain()

    def __repr__(self):
        return f"Partition({tuple(self)!r})"


def rectangle(part, count):
    """The partition (part^count): count equal parts."""
    if not _is_int(part) or part < 1:
        raise ValueError(f"rectangle part must be a positive integer, got {part!r}")
    if not _is_int(count) or count < 0:
        raise ValueError(f"rectangle count must be a non-negative integer, got {count!r}")
    return Partition._make((part,) * count)


def _parse_int(text, token):
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"non-numeric token {token!r} in partition text") from None


def parse_partition(text, notation="auto"):
    """Parse "10,7,7,5,4,3" or "5^2,4,3^3,1^2" (or a mix) into a Partition.

    Parts may appear in any order; the result is canonical.  ``notation``
    may be "plain" (no exponents allowed), "exponential", or "auto".
    """
    if notation not in ("auto", "plain", "exponential"):
        raise ValueError(f"unknown notation {notation!r}")
    s = text.strip()
    if not s:
        return Partition()
    parts = []
    for raw in s.split(","):
        tok = raw.strip()
        if not tok:
            raise ValueError(f"empty token in partition text {text!r}")
        if "^" in tok:
            if notation == "plain":
                raise ValueError(f"exponent not allowed in plain notation: {tok!r}")
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

    def undecorated(self):
        return self.base

    def text(self):
        suffix = "*" if self.decoration == MARK else "~"
        bits = []
        for i, p in enumerate(self.base, start=1):
            bits.append(f"{p}{suffix}" if i == self.position else str(p))
        return ",".join(bits)

    def __str__(self):
        return self.text()


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

    @property
    def size(self):
        return self.flat.size + self.part * self.count

    def rectangle(self):
        return rectangle(self.part, self.count)

    def text(self):
        return f"(({self.flat.to_plain()}), ({self.part}^{self.count}))"

    def __str__(self):
        return self.text()


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
