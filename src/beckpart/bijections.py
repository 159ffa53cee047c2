"""The constructive maps between the partition families.

The central map, ``xi_forward``, is the Xiong-Keith bijection from r-flat to
r-regular partitions of the same size.  It preserves, for every residue t in
[1, r-1], the number of parts congruent to t mod r.  Everything else in this
module is assembled from it, from conjugation, and from small block moves on
rectangles:

* ``phi``    : one-steep-gap partitions  <->  one-divisible-value partitions
* ``psi1``   : overlined-flat + one-steep  ->  (flat, rectangle) pairs
* ``psi2``   : marked r-regular           ->  (flat, rectangle) pairs
* ``psi_o``  : overlined r-regular        ->  (flat, (1^i)) pairs
* ``psi_d``  : overlined bounded          ->  (flat, (1^i)) pairs
* ``psi_t``  : one value repeated in (r, 2r)  ->  (flat, (1^i)) pairs
* ``zeta``   : trades a gap of r-1 at position j against an r-fold taller rectangle

Every map takes ``(x, r, t=None)``.  Each direction of a companion map is
declared once, by ``@_map(domain, codomain)``: the families and pair sets
its inputs and its images lie in.  Whether it requires the residue t or
refuses one is read off its domain by the families' own rule: a direction
takes t when a domain set is indexed by t (``Ostar``, ``Fbar`` and
``Prt``, so psi1 and psi2), and refuses it otherwise.  One checker reads
the declaration.  It checks r and t on entry, raises ``BijectionError``
unless the input lies in a domain set, and raises ``ConstructionError``
unless the image lies in a codomain set and has the input's size.  Both
sides are tested through the membership reader of ``families``, against
the table entries of the whole sets, not against hand-written conditions,
so a map body only builds its image.  xi and its inverse check their own
arguments, and their kernel checks its own postconditions.  Every check is
an explicit raise, not an ``assert``, so it still runs under ``python -O``.
"""

from __future__ import annotations

from collections import Counter
from functools import wraps
from operator import lt, sub

from .families import Family, PairSet, _NEEDS_T, _gap, _membership
from .partitions import (
    Composition,
    DecoratedPartition,
    MARK,
    OVERLINE,
    Partition,
    RectanglePair,
    _check_modulus,
    _check_takes_t,
    _conjugate,
    _is_flat_list,
    rectangle,
)


class BijectionError(ValueError):
    """Input outside the map's domain."""


class ConstructionError(RuntimeError):
    """An internal invariant failed while building an image."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


_TRACE_FIELDS = ("input", "nu", "mu", "alpha", "beta", "u", "v",
                 "alpha_star", "beta_star", "sigma", "output")


class _Field:
    """A read-only XiTrace field, built from the kernel's raw list on first read."""

    def __init__(self, build):
        self.build = build

    def __set_name__(self, owner, name):
        self.name = name
        self.index = _TRACE_FIELDS.index(name)

    def __get__(self, trace, owner=None):
        if trace is None:
            return self
        value = trace._values[self.index]
        if type(value) is list:
            value = trace._values[self.index] = self.build(value)
        return value

    def __set__(self, trace, value):
        raise AttributeError(f"cannot assign to field {self.name!r}")


def _drop_zeros(u):
    # u is non-increasing and non-negative, so its zeros are a suffix
    return Partition._make(u[:len(u) - u.count(0)])


class XiTrace:
    """Full intermediate record of one forward application of xi.

    Invariants: input = mu U nu; mu = alpha U beta; alpha_star = alpha - r*u;
    beta_star = beta + r*v (stored re-sorted); nu U beta_star = r*sigma;
    output = alpha_star + r*conjugate(sigma).

    The kernel hands over plain lists; each field becomes a ``Partition``
    (``v`` a ``Composition``) the first time it is read, so a caller that
    reads only ``output`` builds only ``output``.
    """

    __slots__ = ("_values",)

    input = _Field(Partition)
    nu = _Field(Partition.from_multiset)
    mu = _Field(Partition.from_multiset)
    alpha = _Field(Partition._make)
    beta = _Field(Partition._make)
    u = _Field(_drop_zeros)
    v = _Field(Composition)
    alpha_star = _Field(Partition._make)
    beta_star = _Field(Partition.from_multiset)
    sigma = _Field(Partition._make)
    output = _Field(Partition._make)

    def __init__(self, values):
        self._values = values

    def _fields(self):
        return tuple(getattr(self, name) for name in _TRACE_FIELDS)

    def __eq__(self, other):
        return self._fields() == other._fields() if isinstance(other, XiTrace) else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "XiTrace(" + ", ".join(
            f"{name}={value!r}" for name, value in zip(_TRACE_FIELDS, self._fields())) + ")"

    def as_dict(self):
        return {name: list(getattr(self, name)) for name in _TRACE_FIELDS}


def _as_partition(lam):
    if isinstance(lam, (DecoratedPartition, RectanglePair)):
        raise BijectionError(f"expected a plain partition, got ({lam})")
    return lam if isinstance(lam, Partition) else Partition(lam)


def _ensure(ok, claim, value):
    """A postcondition: raise ConstructionError naming ``value`` unless ``ok``."""
    if not ok:
        raise ConstructionError(f"{claim}: ({value})")


def _locked_split(lam, r):
    """Peel off removable divisible parts to the fixpoint in one pass.

    Returns (mu, nu): nu collects parts divisible by r whose one-at-a-time
    removal kept the remainder r-flat; in mu every divisible part is locked
    (removing any single occurrence would break flatness).

    Removing a part merges the two gaps beside it, so a divisible part is
    removable exactly when its neighbours differ by at most r - 1 (the first
    part always is; past the last part reads 0).  Removals only widen gaps,
    so a locked part stays locked, and the fixpoint does not depend on the
    removal order (the tests try every order on small sizes).  So one pass
    reaches it: push each part, then pop the top while it is removable, its
    right neighbour being the next input part.
    """
    mu = []
    nu = []
    for p, nxt in zip(lam, (*lam[1:], 0)):
        mu.append(p)
        while mu and mu[-1] % r == 0 and (len(mu) == 1 or mu[-2] - nxt < r):
            nu.append(mu.pop())
    return mu, nu


def _xi_kernel(lam, r):
    """One run of xi on the r-flat partition lam, as the list of XiTrace field values.

    Every field but ``input`` is a plain list.  A failed postcondition raises
    ConstructionError carrying the lists computed so far.
    """
    mu, nu = _locked_split(lam, r)
    # One pass splits mu into alpha and beta.  Both descend and never share a
    # value, so u_i = |beta| - (beta parts before alpha_i) counts the beta
    # parts below alpha_i, and v_j = (alpha parts before beta_j) counts the
    # alpha parts above beta_j.
    alpha = []
    beta = []
    before = []
    v = []
    for p in mu:
        if p % r:
            alpha.append(p)
            before.append(len(beta))
        else:
            beta.append(p)
            v.append(len(alpha))
    nb = len(beta)
    u = [nb - k for k in before]
    alpha_star = [a - r * k for a, k in zip(alpha, u)]
    beta_star = [b + r * k for b, k in zip(beta, v)]
    values = [lam, nu, mu, alpha, beta, u, v, alpha_star, beta_star]

    if any(map(lt, u, u[1:])):
        raise ConstructionError(f"u is not non-increasing: {u}", _unfinished(values))
    if alpha_star and (alpha_star[-1] < 1 or any(map(lt, alpha_star, alpha_star[1:]))):
        raise ConstructionError(
            f"alpha - r*u is not a partition: {alpha_star}", _unfinished(values))

    sigma = sorted([x // r for x in nu + beta_star], reverse=True)
    if sigma and sigma[0] > len(alpha_star):
        raise ConstructionError(
            f"sigma_1 = {sigma[0]} exceeds the {len(alpha_star)} parts available",
            _unfinished(values))

    heights = _conjugate(sigma)
    output = [a + r * h for a, h in zip(alpha_star, heights)] + alpha_star[len(heights):]

    residues = [p % r for p in output]
    if sum(output) != sum(lam):
        raise ConstructionError(
            f"image ({Partition._make(output)}) has size {sum(output)}, not {sum(lam)}",
            _unfinished(values))
    if 0 in residues:
        raise ConstructionError(
            f"image ({Partition._make(output)}) is not {r}-regular", _unfinished(values))
    if sorted(residues) != sorted([p % r for p in lam if p % r]):
        raise ConstructionError(
            f"image ({Partition._make(output)}) changes the residue profile mod {r}",
            _unfinished(values))
    return values + [sigma, output]


def _unfinished(values):
    # the trace of a failed xi run, as the lists computed before the failure
    return {name: list(value) for name, value in zip(_TRACE_FIELDS, values)}


def xi_forward(lam, r, t=None):
    """Map an r-flat partition to an r-regular one of the same size.

    Returns the full trace; the image itself is ``trace.output``.
    """
    lam = _as_partition(lam)
    _check_modulus(r)
    _check_takes_t("xi_forward", r, t, False)
    if not _is_flat_list(lam, r):
        raise BijectionError(f"xi_forward needs an r-flat partition at r = {r}, got ({lam})")
    return XiTrace(_xi_kernel(lam, r))


def _descend_profile(kappa, s, r):
    """The forced flat-regular component of an r-regular partition.

    Writing kappa_i = q_i*r + s_i with s_i in [1, r-1], the component is
    a_i = s_i + r*m_i where m_i counts the residue ascents weakly below i.
    This is the unique r-flat r-regular partition a with kappa - a = r*c
    for a non-increasing non-negative c of the same padded length.
    Returns (m, c).
    """
    L = len(kappa)
    m = [0] * L
    for i in range(L - 2, -1, -1):
        m[i] = m[i + 1] + (s[i] < s[i + 1])
    return m, [p // r - mi for p, mi in zip(kappa, m)]


def xi_inverse(kappa, r, t=None):
    """The unique r-flat preimage of an r-regular partition under xi_forward.

    Splits kappa into its forced flat-regular component plus r-divisible
    columns, then decides which columns re-enter as locked divisible parts.
    A part can lock below position p only when the residue there exceeds the
    flat drop, that is when the residues do not ascend from p to p + 1, and
    its value is then forced.  Walking from the last position to the first,
    each position takes its forced part whenever the column pool still
    holds it; there is no search and no recursion.

    This forced choice is the first branch of the backtracking search it
    replaced, and that search never left it: on all 7,520 r-regular
    partitions of n <= 22 at r = 2..5 and on 240 random ones up to length
    400 at r <= 7, no part was taken and then given back, and no rebuild
    failed.  The result is verified by one run of the forward map's kernel,
    not of ``xi_forward``, whose checks of r, t and flatness are made here
    already, so a successful return is a certified preimage.
    """
    kappa = _as_partition(kappa)
    _check_modulus(r)
    _check_takes_t("xi_inverse", r, t, False)
    s = [p % r for p in kappa]
    if 0 in s:
        raise BijectionError(f"xi_inverse needs an r-regular partition at r = {r}, got ({kappa})")
    if not kappa:
        return Partition()

    L = len(kappa)
    m, c = _descend_profile(kappa, s, r)
    if min(c) < 0 or any(map(lt, c, c[1:])):
        raise ConstructionError(f"no column profile for ({kappa}): c = {c}")
    # the columns of r*c: c_k - c_{k+1} of them hold k cells each
    pool = Counter({r * k: d for k, d in enumerate(map(sub, c, [*c[1:], 0]), start=1) if d})

    # alpha_p lifts a_p = s_p + r*m_p by r for every part locked at a position
    # >= p, so one running count from the last position gives alpha and the
    # forced values r*(m_p + p + 1 + taken) at once.
    alpha = [0] * L
    alpha[-1] = s[-1]
    betas = []
    taken = 0
    for i in range(L - 2, -1, -1):
        if s[i] >= s[i + 1]:
            k = m[i] + i + 2 + taken
            if pool.get(r * k):
                pool[r * k] -= 1
                taken += 1
                betas.append(r * (k - i - 1))
        alpha[i] = s[i] + r * (m[i] + taken)

    lam_parts = sorted(alpha + betas + list(pool.elements()), reverse=True)
    if _is_flat_list(lam_parts, r) and _xi_kernel(lam_parts, r)[-1] == list(kappa):
        return Partition._make(lam_parts)
    raise ConstructionError(f"no preimage of ({kappa}) under xi at r = {r}")


# ---------------------------------------------------------------------------
# The companion maps: one declaration per direction, read by one checker.
# ---------------------------------------------------------------------------

def _names(sets):
    return " or ".join(s.value for s in sets)


def _shown(x):
    # x for an error message: a pair's text brings its own parentheses
    return str(x) if isinstance(x, RectanglePair) else f"({x})"


def _map(domain, codomain):
    """Declare a companion direction from r, t and x in ``domain`` to ``codomain``.

    The declared function checks r, and t against ``takes_t``, true when a
    domain set is indexed by t; turns a plain sequence into a
    ``Partition``; raises ``BijectionError`` unless x lies in one of the
    domain sets; runs the body; and raises ``ConstructionError`` unless the
    image lies in one of the codomain sets and has the size of x.  The
    declaration stays readable as the attributes ``domain``, ``codomain``
    and ``takes_t``.
    """
    takes_t = any(s in _NEEDS_T for s in domain)
    inside = tuple(map(_membership, domain))
    onto = tuple(map(_membership, codomain))

    def declare(body):
        name = body.__name__

        @wraps(body)
        def checked(x, r, t=None):
            _check_modulus(r)
            _check_takes_t(name, r, t, takes_t)
            if not isinstance(x, (Partition, DecoratedPartition, RectanglePair)):
                x = Partition(x)
            if not any(test(x, r, t) for test in inside):
                raise BijectionError(f"{_shown(x)} is not in {_names(domain)} at r = {r}"
                                     + (f", t = {t}" if t else ""))
            image = body(x, r, t)
            if not (any(test(image, r, t) for test in onto) and image.size == x.size):
                raise ConstructionError(f"{name} image is not in {_names(codomain)} "
                                        f"with size {x.size}: {_shown(image)}")
            return image

        checked.domain, checked.codomain, checked.takes_t = domain, codomain, takes_t
        return checked

    return declare


# ---------------------------------------------------------------------------
# phi: one steep gap  <->  one divisible value.
# ---------------------------------------------------------------------------

def _steep_position(lam, r):
    # the position of the first gap >= r
    return next(i for i, g in enumerate(lam.gaps(), start=1) if g >= r)


@_map((Family.F_1R,), (Family.O_1R,))
def phi_forward(lam, r, t=None):
    """Flatten the unique steep gap into a rectangle, map through xi, re-insert."""
    i = _steep_position(lam, r)
    steep = rectangle(_gap(lam, i) // r * r, i)
    return xi_forward(lam - steep, r).output.union(steep)


@_map((Family.O_1R,), (Family.F_1R,))
def phi_inverse(mu, r, t=None):
    """Remove the unique divisible value, invert xi, restore the steep gap."""
    rk = next(p for p in mu if p % r == 0)
    remainder = Partition._make([p for p in mu if p != rk])
    return xi_inverse(remainder, r) + rectangle(rk, mu.count(rk))


# ---------------------------------------------------------------------------
# psi1: overlined-flat and one-steep partitions  <->  (flat, rectangle) pairs.
# ---------------------------------------------------------------------------

@_map((Family.F_BAR, Family.F_1R), (PairSet.P_RT,))
def psi1_forward(nu, r, t=None):
    """Strip a rectangle of residue-t parts off the decorated/steep position.

    Overlined inputs lose t from each of the first i parts (case 1); plain
    inputs with one steep gap lose a*r + t (case 2).  The two case images
    are disjoint: with a = 0 the gap at i is < r - t in case 1 and >= r - t
    in case 2.
    """
    if isinstance(nu, DecoratedPartition):
        i = nu.position
        flat = nu.base - rectangle(t, i)
        _ensure(_gap(flat, i) < r - t, f"psi1 case-1 gap at {i} is not below {r - t}", flat)
        return RectanglePair(flat, t, i)
    i = _steep_position(nu, r)
    a = (_gap(nu, i) - t) // r
    flat = nu - rectangle(a * r + t, i)
    _ensure(a > 0 or _gap(flat, i) >= r - t, f"psi1 case-2 gap at {i} is below {r - t}", flat)
    return RectanglePair(flat, a * r + t, i)


@_map((PairSet.P_RT,), (Family.F_BAR, Family.F_1R))
def psi1_inverse(pair, r, t=None):
    """Re-attach the rectangle; overline the landing position when no steep gap appears."""
    i = pair.count
    nu = pair.flat + rectangle(pair.part, i)
    if pair.part > t or _gap(nu, i) >= r:
        return nu
    return DecoratedPartition(nu, OVERLINE, i)


# ---------------------------------------------------------------------------
# psi2: marked r-regular partitions  <->  (flat, rectangle) pairs.
# ---------------------------------------------------------------------------

@_map((Family.O_STAR,), (PairSet.P_RT,))
def psi2_forward(lam, r, t=None):
    """Remove the marked value down to the mark's rank, then invert xi."""
    base, value, position = lam.base, lam.value, lam.position
    first = base.index(value)  # base[first:position]: the copies of value up to the mark
    remainder = Partition._make([*base[:first], *base[position:]])
    return RectanglePair(xi_inverse(remainder, r), value, position - first)


@_map((PairSet.P_RT,), (Family.O_STAR,))
def psi2_inverse(pair, r, t=None):
    """Push the flat component through xi, merge the rectangle, mark its last copy."""
    nu = xi_forward(pair.flat, r).output.union(pair.rectangle())
    return DecoratedPartition(nu, MARK, nu.index(pair.part) + pair.count)  # the count-th copy


# ---------------------------------------------------------------------------
# psi_o / psi_d / psi_t: the unit-rectangle maps.
# ---------------------------------------------------------------------------

def _remove_one(base, position):
    return Partition._make([*base[:position - 1], *base[position:]])


def _overline_last(nu, i):
    # nu with an overline on the last occurrence of the value i
    return DecoratedPartition(nu, OVERLINE, len(nu) - nu[::-1].index(i))


@_map((Family.O_BAR,), (PairSet.A_O,))
def psi_o_forward(lam, r, t=None):
    """Drop the overlined part of an r-regular partition; invert xi on the rest."""
    return RectanglePair(xi_inverse(_remove_one(lam.base, lam.position), r), 1, lam.value)


@_map((PairSet.A_O,), (Family.O_BAR,))
def psi_o_inverse(pair, r, t=None):
    return _overline_last(xi_forward(pair.flat, r).output.union((pair.count,)), pair.count)


@_map((Family.D_BAR,), (PairSet.A_D,))
def psi_d_forward(lam, r, t=None):
    """Drop the overlined part of a multiplicity-bounded partition; conjugate."""
    return RectanglePair(_remove_one(lam.base, lam.position).conjugate(), 1, lam.value)


@_map((PairSet.A_D,), (Family.D_BAR,))
def psi_d_inverse(pair, r, t=None):
    return _overline_last(pair.flat.conjugate().union((pair.count,)), pair.count)


@_map((Family.T_R,), (PairSet.A_T,))
def psi_t_forward(lam, r, t=None):
    """Remove r copies of the overloaded value, conjugate, record i = r*value."""
    j = next(v for v, c in lam.multiplicities().items() if c >= r)
    i = lam.index(j)
    return RectanglePair(Partition._make([*lam[:i], *lam[i + r:]]).conjugate(), 1, r * j)


@_map((PairSet.A_T,), (Family.T_R,))
def psi_t_inverse(pair, r, t=None):
    return pair.flat.conjugate().union(rectangle(pair.count // r, r))


# ---------------------------------------------------------------------------
# zeta: trades a gap of r-1 at position j against an r-fold taller rectangle.
# ---------------------------------------------------------------------------

@_map((PairSet.A,), (PairSet.B,))
def zeta_forward(pair, r, t=None):
    j = pair.count
    return RectanglePair(pair.flat - rectangle(r - 1, j), 1, r * j)


@_map((PairSet.B,), (PairSet.A,))
def zeta_inverse(pair, r, t=None):
    j = pair.count // r
    return RectanglePair(pair.flat + rectangle(r - 1, j), 1, j)
