"""Exact truncated power series in q with integer coefficients.

Everything here is exact: coefficients are Python ints, infinite products
and sums are cut at the analytically sufficient finite index for the chosen
truncation degree, and no floating point appears anywhere.

The named generating functions (``gf``) tie the series world to the
enumeration world: each coefficient equals a family count or a family-level
statistic total, and the test suite checks the two sides against each other.
"""

from __future__ import annotations

from operator import add, sub

from .partitions import _check_modulus, _check_takes_t, _is_int


# The largest truncation degree.  Every named series of degree 16384 took at
# most 0.4 s and 21 MiB RSS as a fresh `beckpart series` process at r = 2
# and 7, against 0.25 s at degree 8192 (Python 3.11, 2-core VM).  The solve
# is O(bound^1.5) operations on integers that grow with sqrt(bound), so a
# larger bound is still refused before any coefficient is stored.
DEGREE_LIMIT = 16384


def _check_bound(bound):
    if not _is_int(bound) or bound < 0:
        raise ValueError(f"degree bound must be a non-negative integer, got {bound!r}")
    if bound > DEGREE_LIMIT:
        raise ValueError(f"degree bound must be at most {DEGREE_LIMIT}, got {bound}")


def _check_degree(degree, bound):
    if not _is_int(degree) or not 0 <= degree <= bound:
        raise ValueError(f"degree must be an integer in [0, {bound}], got {degree!r}")


class TruncatedSeries:
    """Formal power series in q truncated at a fixed degree bound."""

    __slots__ = ("bound", "coeffs")

    def __init__(self, bound, coeffs=()):
        _check_bound(bound)
        c = list(coeffs)
        if len(c) > bound + 1:
            raise ValueError(f"{len(c)} coefficients exceed degree bound {bound}")
        for x in c:
            if type(x) is not int and not _is_int(x):  # plain ints skip the call
                raise ValueError(f"coefficients must be integers, got {x!r}")
        c.extend([0] * (bound + 1 - len(c)))
        self.bound = bound
        self.coeffs = tuple(c)

    def coefficient(self, n):
        _check_degree(n, self.bound)
        return self.coeffs[n]

    __getitem__ = coefficient

    def _match(self, other):
        if not isinstance(other, TruncatedSeries):
            raise TypeError(f"expected a TruncatedSeries, got {other!r}")
        if other.bound != self.bound:
            raise ValueError(f"degree bound mismatch: {self.bound} vs {other.bound}")
        return other

    def __add__(self, other):
        other = self._match(other)
        return TruncatedSeries(self.bound, (a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        other = self._match(other)
        return TruncatedSeries(self.bound, (a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return TruncatedSeries(self.bound, (-a for a in self.coeffs))

    def __mul__(self, other):
        """Truncated product by Kronecker substitution.

        Coefficient ``i`` of each operand goes into byte slot ``i`` of one
        integer, so one big-integer product (Karatsuba in CPython) multiplies
        the two polynomials.  Slot ``k`` of the product sums at most
        ``bound + 1`` terms, so no coefficient of the operands or of the
        product exceeds ``top = max|a|*max|b|*(bound+1)`` in magnitude.
        Slots of ``w`` bytes with ``half = 2**(8w-1) > top`` store each
        signed coefficient ``c`` as the digit ``c + half``, which never
        carries or borrows into its neighbours: the packed operand is the
        digit string minus ``bias`` (``half`` in every slot), and the
        product's low ``bound + 1`` digits are read back from product + bias.
        """
        other = self._match(other)
        n = self.bound
        top = max(map(abs, self.coeffs)) * max(map(abs, other.coeffs)) * (n + 1)
        if not top:
            return TruncatedSeries(n)
        w = top.bit_length() // 8 + 1
        half = 1 << (8 * w - 1)
        bias = int.from_bytes(half.to_bytes(w, "little") * (n + 1), "little")
        product = (_digits(self.coeffs, w, half) - bias) * (_digits(other.coeffs, w, half) - bias)
        size = w * (n + 1)
        raw = ((product + bias) & ((1 << 8 * size) - 1)).to_bytes(size, "little")
        return TruncatedSeries(n, [int.from_bytes(raw[i:i + w], "little") - half
                                   for i in range(0, size, w)])

    def __eq__(self, other):
        return (isinstance(other, TruncatedSeries)
                and self.bound == other.bound and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.bound, self.coeffs))

    def dump(self):
        """One line per degree: ``n<TAB>coefficient`` in exact decimals."""
        return "\n".join(f"{n}\t{c}" for n, c in enumerate(self.coeffs))

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.bound >= 8 else ""
        return f"TruncatedSeries(N={self.bound}, [{head}{tail}])"


def _digits(coeffs, w, half):
    """The integer whose ``w``-byte slot ``i`` holds ``coeffs[i] + half``."""
    return int.from_bytes(b"".join([(x + half).to_bytes(w, "little") for x in coeffs]), "little")


def _pentagonal(bound):
    """Exponents g in [1, bound] of Euler's product, split by sign.

    By the pentagonal number theorem (q;q)_inf is the sum over all integers k
    of (-1)^k q^(k(3k-1)/2); the exponents g >= 1 come in pairs k(3k-1)/2,
    k(3k+1)/2 for k >= 1.  Returns (exponents with sign -1 (k odd), exponents
    with sign +1 (k even)), each ascending.
    """
    odd, even = [], []
    k = 1
    while k * (3 * k - 1) // 2 <= bound:
        side = odd if k % 2 else even
        side += [g for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2) if g <= bound]
        k += 1
    return odd, even


def _rk(k, r, t):
    return r * k


def _tk(k, r, t):
    return t * k


def _residue_k(k, r, t):  # the k-th positive integer congruent to t mod r
    return r * (k - 1) + t


# family -> (takes t, summands).  A summand (sign, first, step) adds
# sign * q^first(k) / (1 - q^step(k)) for every k >= 1; first grows with k.
_LAMBERT = {
    "multiples": (False, ((1, _rk, _rk),)),
    "progression": (True, ((1, _residue_k, _residue_k),)),
    "mixed": (True, ((1, _tk, _rk),)),
    "repeat-excess": (True, ((1, _tk, _rk), (-1, _rk, _rk))),
}
LAMBERT_FAMILIES = tuple(_LAMBERT)


def lambert_sum(family, r, t=None, bound=0):
    """Truncation of one of the four Lambert-type sums used by ``gf``.

    * ``multiples``     : sum over m >= 1 of q^(m*r) / (1 - q^(m*r))
    * ``progression``   : sum over n >= 0 of q^(r*n+t) / (1 - q^(r*n+t))
    * ``mixed``         : sum over m >= 1 of q^(m*t) / (1 - q^(m*r))
    * ``repeat-excess`` : sum over n >= 1 of (q^(t*n) - q^(r*n)) / (1 - q^(r*n))

    Only finitely many summands reach degrees <= bound, so the truncation
    is exact.  ``progression`` and ``mixed`` agree as truncated series.
    """
    _check_bound(bound)
    _check_modulus(r)
    if family not in _LAMBERT:
        raise ValueError(f"unknown Lambert family {family!r}; expected one of {LAMBERT_FAMILIES}")
    takes_t, summands = _LAMBERT[family]
    _check_takes_t(f"Lambert family {family!r}", r, t, takes_t)
    c = [0] * (bound + 1)
    for sign, first, step in summands:
        k = 1
        while first(k, r, t) <= bound:
            for e in range(first(k, r, t), bound + 1, step(k, r, t)):
                c[e] += sign
            k += 1
    return TruncatedSeries(bound, c)


# name -> (its Lambert factor, or None for the eta quotient alone; whether it
# requires t (True), refuses it (False) or accepts either (None))
_GF = {
    "O_r": (None, False),
    "O_1r": ("multiples", False),
    "parts_t_in_Or": ("progression", True),
    "repeats_t_in_Dr": ("repeat-excess", True),
    "E_rt": ("multiples", None),  # the closed form is the same for every t
}
GF_NAMES = tuple(_GF)


def gf(name, r, t=None, bound=0):
    """Named generating functions: the eta quotient, times a Lambert sum but for ``O_r``.

    * ``O_r``             : counts of r-regular partitions, the eta quotient
                            (q^r;q^r)_inf / (q;q)_inf itself;
    * ``O_1r``            : counts of one-divisible-value partitions
                            (equal to the one-repeated-value counts);
    * ``parts_t_in_Or``   : total residue-t parts over the r-regular family;
    * ``repeats_t_in_Dr`` : total t-fold repeated values over the bounded family;
    * ``E_rt``            : their difference in closed form
                            (eta quotient times the 'multiples' Lambert sum);
                            the same series for every t, so t is optional.

    ``O_r`` and ``O_1r`` refuse t; the other two require it.

    Every name is one solve: the series c with c * (q;q)_inf equal to
    (q^r;q^r)_inf * L, where L is the name's Lambert sum (L = 1 for ``O_r``).
    By the pentagonal number theorem (q^r;q^r)_inf has O(sqrt(bound/r))
    terms up to the bound, so the right side is that many shifted adds and
    subtracts of L.  Then c is found one degree at a time: c[n] is the right
    side's coefficient minus the pentagonal terms of degree n on the left,
    O(bound^1.5) operations on coefficients of O(sqrt(bound)) bits in all.
    No dense product is taken: ``TruncatedSeries.__mul__`` is the public ring product, and
    ``gf`` does not call it.
    """
    if name not in _GF:
        raise ValueError(f"unknown generating function {name!r}; expected one of {GF_NAMES}")
    _check_modulus(r)
    factor, takes_t = _GF[name]
    _check_takes_t(f"generating function {name!r}", r, t, takes_t)
    _check_bound(bound)
    lam = (1,) if factor is None else lambert_sum(
        factor, r, t if _LAMBERT[factor][0] else None, bound).coeffs
    c = [0] * (bound + 1)  # first the right side, then solved in place
    minus, plus = _pentagonal(bound // r)  # the g >= 1 of (q^r;q^r)_inf's q^(r*g) in range
    for op, gs in ((add, [0] + plus), (sub, minus)):
        for s in (r * g for g in gs):
            part = lam[:bound + 1 - s]
            c[s:s + len(part)] = map(op, c[s:s + len(part)], part)
    odd, even = _pentagonal(bound)
    for n in range(1, bound + 1):
        acc = c[n]
        for g in odd:
            if g > n:
                break
            acc += c[n - g]
        for g in even:
            if g > n:
                break
            acc -= c[n - g]
        c[n] = acc
    return TruncatedSeries(bound, c)
