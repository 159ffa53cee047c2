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

Every map takes ``(x, r, t=None)`` and checks r and t once, on entry: psi1
and psi2 require the residue t and every other map refuses one, by the
same rule as the families.  Domain preconditions raise ``BijectionError``
eagerly.  Codomain postconditions raise ``ConstructionError``; they are
explicit checks, not ``assert`` statements, so they still run under
``python -O``.  A map that takes or returns a pair or a decorated
partition checks both sides against the table entries of ``families``
through one membership reader: its input with ``_require`` and its image
with ``_ensure``, each against the whole set, not against hand-written
conditions.
"""

from __future__ import annotations

from collections import Counter
from operator import lt, sub

from .families import Family, PairSet, _gap, _member, is_member
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


def _check_args(what, r, t, takes_t=False):
    """Check the modulus r, and the residue t against whether map ``what`` takes one."""
    _check_modulus(r)
    _check_takes_t(what, r, t, takes_t)


def _ensure(ok, claim, value):
    """A postcondition: raise ConstructionError naming ``value`` unless ``ok``."""
    if not ok:
        raise ConstructionError(f"{claim}: ({value})")


def _require(x, s, r, t=None):
    """A precondition: raise BijectionError unless x lies in s (r and t already checked)."""
    if not _member(x, s, r, t):
        raise BijectionError(
            f"({x}) is not in {s.value} at r = {r}" + (f", t = {t}" if t else ""))


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
    given = [p % r for p in lam]
    if any(residues.count(t) != given.count(t) for t in range(1, r)):
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
    _check_args("xi_forward", r, t)
    if not _is_flat_list(lam, r):
        raise BijectionError(f"xi_forward needs an {r}-flat partition, got ({lam})")
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
    failed.  The result is verified by re-running the forward map, so a
    successful return is a certified preimage.
    """
    kappa = _as_partition(kappa)
    _check_args("xi_inverse", r, t)
    s = [p % r for p in kappa]
    if 0 in s:
        raise BijectionError(f"xi_inverse needs an {r}-regular partition, got ({kappa})")
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
    if _is_flat_list(lam_parts, r):
        lam = Partition._make(lam_parts)
        if xi_forward(lam, r).output == kappa:
            return lam
    raise ConstructionError(f"no preimage of ({kappa}) under xi at r = {r}")


# ---------------------------------------------------------------------------
# phi: one steep gap  <->  one divisible value.
# ---------------------------------------------------------------------------

def _steep_positions(lam, r):
    return [i for i, g in enumerate(lam.gaps(), start=1) if g >= r]


def phi_forward(lam, r, t=None):
    """Flatten the unique steep gap into a rectangle, map through xi, re-insert."""
    lam = _as_partition(lam)
    _check_args("phi_forward", r, t)
    steep = _steep_positions(lam, r)
    if len(steep) != 1:
        raise BijectionError(f"phi_forward needs exactly one gap >= {r}, got ({lam})")
    i = steep[0]
    gap = lam.part_at(i) - lam.part_at(i + 1)
    k = gap // r
    _ensure(k >= 1, f"steep gap at {i} is below {r}", lam)
    flattened = lam - rectangle(r * k, i)
    image = xi_forward(flattened, r).output.union(rectangle(r * k, i))
    _ensure(is_member(image, Family.O_1R, r), "phi image is not in O_1r", image)
    return image


def phi_inverse(mu, r, t=None):
    """Remove the unique divisible value, invert xi, restore the steep gap."""
    mu = _as_partition(mu)
    _check_args("phi_inverse", r, t)
    divisible = sorted({p for p in mu if p % r == 0})
    if len(divisible) != 1:
        raise BijectionError(
            f"phi_inverse needs exactly one distinct value divisible by {r}, got ({mu})")
    rk = divisible[0]
    j = mu.count(rk)
    remainder = Partition._make([p for p in mu if p != rk])
    lam = xi_inverse(remainder, r) + rectangle(rk, j)
    _ensure(is_member(lam, Family.F_1R, r), "phi preimage is not in F_1r", lam)
    return lam


# ---------------------------------------------------------------------------
# psi1: overlined-flat and one-steep partitions  <->  (flat, rectangle) pairs.
# ---------------------------------------------------------------------------

def psi1_forward(nu, r, t=None):
    """Strip a rectangle of residue-t parts off the decorated/steep position.

    Overlined inputs lose t from each of the first i parts (case 1); plain
    inputs with one steep gap lose a*r + t (case 2).  The two case images
    are disjoint: with a = 0 the gap at i is < r - t in case 1 and >= r - t
    in case 2.
    """
    _check_args("psi1_forward", r, t, True)
    if isinstance(nu, DecoratedPartition):
        _require(nu, Family.F_BAR, r, t)
        i = nu.position
        flat = nu.base - rectangle(t, i)
        pair = RectanglePair(flat, t, i)
        _ensure(_gap(flat, i) < r - t, f"psi1 case-1 gap at {i} is not below {r - t}", flat)
    else:
        nu = _as_partition(nu)
        _require(nu, Family.F_1R, r, t)
        i = _steep_positions(nu, r)[0]
        a = (_gap(nu, i) - t) // r
        flat = nu - rectangle(a * r + t, i)
        pair = RectanglePair(flat, a * r + t, i)
        _ensure(a > 0 or _gap(flat, i) >= r - t, f"psi1 case-2 gap at {i} is below {r - t}", flat)
    _ensure(_member(pair, PairSet.P_RT, r, t) and pair.size == nu.size,
            f"psi1 image is not a pair of size {nu.size} in Prt", pair)
    return pair


def psi1_inverse(pair, r, t=None):
    """Re-attach the rectangle; overline the landing position when no steep gap appears."""
    _check_args("psi1_inverse", r, t, True)
    _require(pair, PairSet.P_RT, r, t)
    i = pair.count
    nu = pair.flat + rectangle(pair.part, i)
    family = Family.F_1R if pair.part > t or _gap(nu, i) >= r else Family.F_BAR
    if family is Family.F_BAR:
        nu = DecoratedPartition(nu, OVERLINE, i)
    _ensure(_member(nu, family, r, t), f"psi1 preimage is not in {family.value}", nu)
    return nu


# ---------------------------------------------------------------------------
# psi2: marked r-regular partitions  <->  (flat, rectangle) pairs.
# ---------------------------------------------------------------------------

def psi2_forward(lam, r, t=None):
    """Remove the marked value down to the mark's rank, then invert xi."""
    _check_args("psi2_forward", r, t, True)
    _require(lam, Family.O_STAR, r, t)
    base, value = lam.base, lam.value
    first = base.index(value)
    i = lam.position - first  # rank of the mark among equal parts
    remainder = Partition._make(
        [p for idx, p in enumerate(base) if not (p == value and idx < first + i)]
    )
    pair = RectanglePair(xi_inverse(remainder, r), value, i)
    _ensure(_member(pair, PairSet.P_RT, r, t) and pair.size == base.size,
            f"psi2 image is not a pair of size {base.size} in Prt", pair)
    return pair


def psi2_inverse(pair, r, t=None):
    """Push the flat component through xi, merge the rectangle, mark its last copy."""
    _check_args("psi2_inverse", r, t, True)
    _require(pair, PairSet.P_RT, r, t)
    nu = xi_forward(pair.flat, r).output.union(pair.rectangle())
    position = nu.index(pair.part) + pair.count  # the count-th copy, 1-based
    lam = DecoratedPartition(nu, MARK, position)
    _ensure(_member(lam, Family.O_STAR, r, t), "psi2 preimage is not in Ostar", lam)
    return lam


# ---------------------------------------------------------------------------
# psi_o / psi_d / psi_t: the unit-rectangle maps.
# ---------------------------------------------------------------------------

def _remove_one(base, position):
    return Partition._make([p for idx, p in enumerate(base, start=1) if idx != position])


def _overline_last(nu, i):
    # nu with an overline on the last occurrence of the value i
    return DecoratedPartition(nu, OVERLINE, len(nu) - nu[::-1].index(i))


def psi_o_forward(lam, r, t=None):
    """Drop the overlined part of an r-regular partition; invert xi on the rest."""
    _check_args("psi_o_forward", r, t)
    _require(lam, Family.O_BAR, r)
    pair = RectanglePair(xi_inverse(_remove_one(lam.base, lam.position), r), 1, lam.value)
    _ensure(_member(pair, PairSet.A_O, r), "psi_o image is not in Ao", pair)
    return pair


def psi_o_inverse(pair, r, t=None):
    _check_args("psi_o_inverse", r, t)
    _require(pair, PairSet.A_O, r)
    lam = _overline_last(xi_forward(pair.flat, r).output.union((pair.count,)), pair.count)
    _ensure(_member(lam, Family.O_BAR, r), "psi_o preimage is not in Obar", lam)
    return lam


def psi_d_forward(lam, r, t=None):
    """Drop the overlined part of a multiplicity-bounded partition; conjugate."""
    _check_args("psi_d_forward", r, t)
    _require(lam, Family.D_BAR, r)
    pair = RectanglePair(_remove_one(lam.base, lam.position).conjugate(), 1, lam.value)
    _ensure(_member(pair, PairSet.A_D, r), "psi_d image is not in Ad", pair)
    return pair


def psi_d_inverse(pair, r, t=None):
    _check_args("psi_d_inverse", r, t)
    _require(pair, PairSet.A_D, r)
    lam = _overline_last(pair.flat.conjugate().union((pair.count,)), pair.count)
    _ensure(_member(lam, Family.D_BAR, r), "psi_d preimage is not in Dbar", lam)
    return lam


def psi_t_forward(lam, r, t=None):
    """Remove r copies of the overloaded value, conjugate, record i = r*value."""
    lam = _as_partition(lam)
    _check_args("psi_t_forward", r, t)
    _require(lam, Family.T_R, r)
    j = next(v for v, c in lam.multiplicities().items() if c >= r)
    survivors = []
    dropped = 0
    for p in lam:
        if p == j and dropped < r:
            dropped += 1
        else:
            survivors.append(p)
    pair = RectanglePair(Partition._make(survivors).conjugate(), 1, r * j)
    _ensure(_member(pair, PairSet.A_T, r), "psi_t image is not in At", pair)
    return pair


def psi_t_inverse(pair, r, t=None):
    _check_args("psi_t_inverse", r, t)
    _require(pair, PairSet.A_T, r)
    lam = pair.flat.conjugate().union(rectangle(pair.count // r, r))
    _ensure(_member(lam, Family.T_R, r), "psi_t preimage is not in Tr", lam)
    return lam


# ---------------------------------------------------------------------------
# zeta: trades a gap of r-1 at position j against an r-fold taller rectangle.
# ---------------------------------------------------------------------------

def zeta_forward(pair, r, t=None):
    _check_args("zeta_forward", r, t)
    _require(pair, PairSet.A, r)
    j = pair.count
    image = RectanglePair(pair.flat - rectangle(r - 1, j), 1, r * j)
    _ensure(_member(image, PairSet.B, r) and image.size == pair.size,
            f"zeta image is not a pair of size {pair.size} in B", image)
    return image


def zeta_inverse(pair, r, t=None):
    _check_args("zeta_inverse", r, t)
    _require(pair, PairSet.B, r)
    j = pair.count // r
    image = RectanglePair(pair.flat + rectangle(r - 1, j), 1, j)
    _ensure(_member(image, PairSet.A, r) and image.size == pair.size,
            f"zeta preimage is not a pair of size {pair.size} in A", image)
    return image
