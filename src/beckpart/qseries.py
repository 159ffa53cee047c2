"""Exact truncated power series in q with integer coefficients.

Everything here is exact: coefficients are Python ints, infinite products
and sums are cut at the analytically sufficient finite index for the chosen
truncation degree, and no floating point appears anywhere.

The named generating functions (``gf``) tie the series world to the
enumeration world: each coefficient equals a family count or a family-level
statistic total, and the test suite checks the two sides against each other.
"""

from __future__ import annotations

from .partitions import _check_modulus, _check_residue, _is_int


def _check_bound(bound):
    if not _is_int(bound) or bound < 0:
        raise ValueError(f"degree bound must be a non-negative integer, got {bound!r}")


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

    @classmethod
    def zero(cls, bound):
        return cls(bound)

    @classmethod
    def one(cls, bound):
        return cls(bound, (1,))

    @classmethod
    def monomial(cls, bound, degree, coefficient=1):
        if not 0 <= degree <= bound:
            raise ValueError(f"degree {degree} outside [0, {bound}]")
        c = [0] * (degree + 1)
        c[degree] = coefficient
        return cls(bound, c)

    def coefficient(self, n):
        if not 0 <= n <= self.bound:
            raise ValueError(f"degree {n} outside [0, {self.bound}]")
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
        other = self._match(other)
        n = self.bound
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs[: n + 1 - i]):
                if b:
                    out[i + j] += a * b
        return TruncatedSeries(n, out)

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


def geometric(k, bound):
    """1/(1 - q^k) = sum of q^(m*k) for m >= 0, truncated."""
    if not _is_int(k) or k < 1:
        raise ValueError(f"geometric step must be a positive integer, got {k!r}")
    c = [0] * (bound + 1)
    for e in range(0, bound + 1, k):
        c[e] = 1
    return TruncatedSeries(bound, c)


def eta_quotient(r, bound):
    """The product over n >= 1 of (1 - q^(r*n)) / (1 - q^n), truncated.

    Its coefficients count the r-regular (equivalently multiplicity-bounded,
    equivalently r-flat) partitions of each size.
    """
    _check_modulus(r)
    _check_bound(bound)
    c = [0] * (bound + 1)
    c[0] = 1
    for n in range(1, bound + 1):
        k = r * n
        if k <= bound:
            for i in range(bound, k - 1, -1):  # multiply by (1 - q^k)
                c[i] -= c[i - k]
        for i in range(n, bound + 1):          # divide by (1 - q^n)
            c[i] += c[i - n]
    return TruncatedSeries(bound, c)


LAMBERT_FAMILIES = ("multiples", "progression", "mixed", "repeat-excess")


def lambert_sum(family, r, t=None, bound=0):
    """Truncation of one of the four Lambert-type sums used by ``gf``.

    * ``multiples``     : sum over m >= 1 of q^(m*r) / (1 - q^(m*r))
    * ``progression``   : sum over n >= 0 of q^(r*n+t) / (1 - q^(r*n+t))
    * ``mixed``         : sum over m >= 1 of q^(m*t) / (1 - q^(m*r))
    * ``repeat-excess`` : sum over n >= 1 of (q^(t*n) - q^(r*n)) / (1 - q^(r*n))

    Only finitely many summands reach degrees <= bound, so the truncation
    is exact.  ``progression`` and ``mixed`` agree as truncated series.
    """
    _check_modulus(r)
    if family not in LAMBERT_FAMILIES:
        raise ValueError(f"unknown Lambert family {family!r}; expected one of {LAMBERT_FAMILIES}")
    if family == "multiples":
        if t is not None:
            raise ValueError("'multiples' does not take a residue t")
    else:
        if t is None:
            raise ValueError(f"Lambert family {family!r} requires the residue t")
        _check_residue(r, t)

    c = [0] * (bound + 1)
    if family == "multiples":
        for base in range(r, bound + 1, r):
            for e in range(base, bound + 1, base):
                c[e] += 1
    elif family == "progression":
        base = t
        while base <= bound:
            for e in range(base, bound + 1, base):
                c[e] += 1
            base += r
    elif family == "mixed":
        m = 1
        while m * t <= bound:
            for e in range(m * t, bound + 1, m * r):
                c[e] += 1
            m += 1
    else:  # repeat-excess
        n = 1
        while min(t, r) * n <= bound:
            if t * n <= bound:
                for e in range(t * n, bound + 1, r * n):
                    c[e] += 1
            if r * n <= bound:
                for e in range(r * n, bound + 1, r * n):
                    c[e] -= 1
            n += 1
    return TruncatedSeries(bound, c)


GF_NAMES = ("O_r", "O_1r", "parts_t_in_Or", "repeats_t_in_Dr", "E_rt")


def gf(name, r, t=None, bound=0):
    """Named generating functions, assembled from the eta quotient and Lambert sums.

    * ``O_r``             : counts of r-regular partitions;
    * ``O_1r``            : counts of one-divisible-value partitions
                            (equal to the one-repeated-value counts);
    * ``parts_t_in_Or``   : total residue-t parts over the r-regular family;
    * ``repeats_t_in_Dr`` : total t-fold repeated values over the bounded family;
    * ``E_rt``            : their difference in closed form
                            (eta quotient times the 'multiples' Lambert sum);
                            the same series for every t.
    """
    if name not in GF_NAMES:
        raise ValueError(f"unknown generating function {name!r}; expected one of {GF_NAMES}")
    _check_modulus(r)
    needs_t = name in ("parts_t_in_Or", "repeats_t_in_Dr")
    if needs_t and t is None:
        raise ValueError(f"generating function {name!r} requires the residue t")
    if t is not None:
        _check_residue(r, t)

    if name == "O_r":
        return eta_quotient(r, bound)
    if name == "O_1r":
        return eta_quotient(r, bound) * lambert_sum("multiples", r, bound=bound)
    if name == "parts_t_in_Or":
        return eta_quotient(r, bound) * lambert_sum("progression", r, t, bound)
    if name == "repeats_t_in_Dr":
        return eta_quotient(r, bound) * lambert_sum("repeat-excess", r, t, bound)
    # E_rt: the closed form is independent of t
    return eta_quotient(r, bound) * lambert_sum("multiples", r, bound=bound)
