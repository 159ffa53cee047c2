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

Domain preconditions raise ``BijectionError`` eagerly.  Codomain
postconditions raise ``ConstructionError``; they are explicit checks, not
``assert`` statements, so they still run under ``python -O``.  A map that
takes or returns a pair or a decorated partition checks both sides against
the table entries of ``families`` through one membership reader: its input
with ``_require`` and its image with ``_ensure``, each against the whole
set, not against hand-written conditions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .families import _NEEDS_T, Family, PairSet, _gap, _member, is_member
from .partitions import (
    Composition,
    DecoratedPartition,
    MARK,
    OVERLINE,
    Partition,
    RectanglePair,
    _check_modulus,
    _check_residue,
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


@dataclass(frozen=True)
class XiTrace:
    """Full intermediate record of one forward application of xi.

    Invariants: input = mu U nu; mu = alpha U beta; alpha_star = alpha - r*u;
    beta_star = beta + r*v (stored re-sorted); nu U beta_star = r*sigma;
    output = alpha_star + r*conjugate(sigma).
    """

    input: Partition
    nu: Partition
    mu: Partition
    alpha: Partition
    beta: Partition
    u: Partition
    v: Composition
    alpha_star: Partition
    beta_star: Partition
    sigma: Partition
    output: Partition

    def as_dict(self):
        return {
            name: list(getattr(self, name))
            for name in ("input", "nu", "mu", "alpha", "beta", "u", "v",
                         "alpha_star", "beta_star", "sigma", "output")
        }


def _as_partition(lam):
    if isinstance(lam, (DecoratedPartition, RectanglePair)):
        raise BijectionError(f"expected a plain partition, got ({lam})")
    return lam if isinstance(lam, Partition) else Partition(lam)


def _ensure(ok, claim, value):
    """A postcondition: raise ConstructionError naming ``value`` unless ``ok``."""
    if not ok:
        raise ConstructionError(f"{claim}: ({value})")


def _require(x, s, r, t=None):
    """A precondition: check r and t, then raise BijectionError unless x lies in s."""
    if t is None and s not in _NEEDS_T:
        _check_modulus(r)
    else:
        _check_residue(r, t)
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


def xi_forward(lam, r):
    """Map an r-flat partition to an r-regular one of the same size.

    Returns the full trace; the image itself is ``trace.output``.
    """
    lam = _as_partition(lam)
    _check_modulus(r)
    if not lam.is_flat(r):
        raise BijectionError(f"xi_forward needs an {r}-flat partition, got ({lam})")

    mu, nu = _locked_split(lam, r)
    alpha = [p for p in mu if p % r != 0]
    beta = [p for p in mu if p % r == 0]

    # u_i counts beta parts below alpha_i; v_j counts alpha parts above beta_j.
    # Both lists descend and never share a value, so one merge finds them.
    u = []
    v = []
    i = 0
    for j, b in enumerate(beta):
        while i < len(alpha) and alpha[i] > b:
            u.append(len(beta) - j)
            i += 1
        v.append(i)
    u += [0] * (len(alpha) - i)
    alpha_star = [a - r * ui for a, ui in zip(alpha, u)]
    beta_star = [b + r * vj for b, vj in zip(beta, v)]

    trace_dict = {"input": list(lam), "mu": mu, "nu": nu, "alpha": alpha,
                  "beta": beta, "u": u, "v": v, "alpha_star": alpha_star,
                  "beta_star": beta_star}
    if any(u[i] < u[i + 1] for i in range(len(u) - 1)):
        raise ConstructionError(f"u is not non-increasing: {u}", trace_dict)
    if any(a < 1 for a in alpha_star) or any(
            alpha_star[i] < alpha_star[i + 1] for i in range(len(alpha_star) - 1)):
        raise ConstructionError(f"alpha - r*u is not a partition: {alpha_star}", trace_dict)

    sigma = sorted((x // r for x in nu + beta_star), reverse=True)
    if sigma and sigma[0] > len(alpha_star):
        raise ConstructionError(
            f"sigma_1 = {sigma[0]} exceeds the {len(alpha_star)} parts available",
            trace_dict)

    heights = Partition._make(sigma).conjugate()
    output = Partition._make([
        a + r * (heights[i] if i < len(heights) else 0)
        for i, a in enumerate(alpha_star)
    ])

    if output.size != lam.size:
        raise ConstructionError(
            f"image ({output}) has size {output.size}, not {lam.size}", trace_dict)
    if not output.is_regular(r):
        raise ConstructionError(f"image ({output}) is not {r}-regular", trace_dict)
    if output.residue_profile(r)[1:] != lam.residue_profile(r)[1:]:
        raise ConstructionError(
            f"image ({output}) changes the residue profile mod {r}", trace_dict)

    while u and u[-1] == 0:
        u.pop()
    return XiTrace(
        input=lam,
        nu=Partition.from_multiset(nu),
        mu=Partition.from_multiset(mu),
        alpha=Partition._make(alpha),
        beta=Partition._make(beta),
        u=Partition._make(u),
        v=Composition(v),
        alpha_star=Partition._make(alpha_star),
        beta_star=Partition.from_multiset(beta_star),
        sigma=Partition._make(sigma),
        output=output,
    )


def _descend_profile(kappa, r):
    """The forced flat-regular component of an r-regular partition.

    Writing kappa_i = q_i*r + s_i with s_i in [1, r-1], the component is
    a_i = s_i + r*m_i where m_i counts the residue ascents weakly below i.
    This is the unique r-flat r-regular partition a with kappa - a = r*c
    for a non-increasing non-negative c of the same padded length.
    """
    L = len(kappa)
    s = [p % r for p in kappa]
    m = [0] * L
    for i in range(L - 2, -1, -1):
        m[i] = m[i + 1] + (1 if s[i] < s[i + 1] else 0)
    a = [s[i] + r * m[i] for i in range(L)]
    c = [(kappa[i] - a[i]) // r for i in range(L)]
    return s, a, c


def xi_inverse(kappa, r):
    """The unique r-flat preimage of an r-regular partition under xi_forward.

    Splits kappa into its forced flat-regular component plus r-divisible
    columns, then decides which columns re-enter as locked divisible parts.
    A part can lock below position p only when the residue there exceeds the
    flat drop, and its value is then forced.  Walking from the last position
    to the first, each position takes its forced part whenever the column
    pool still holds it; there is no search and no recursion.

    This forced choice is the first branch of the backtracking search it
    replaced, and that search never left it: on all 7,520 r-regular
    partitions of n <= 22 at r = 2..5 and on 240 random ones up to length
    400 at r <= 7, no part was taken and then given back, and no rebuild
    failed.  The result is verified by re-running the forward map, so a
    successful return is a certified preimage.
    """
    kappa = _as_partition(kappa)
    _check_modulus(r)
    if not kappa.is_regular(r):
        raise BijectionError(f"xi_inverse needs an {r}-regular partition, got ({kappa})")
    if not kappa:
        return Partition()

    L = len(kappa)
    s, astar, c = _descend_profile(kappa, r)
    if any(x < 0 for x in c) or any(c[i] < c[i + 1] for i in range(L - 1)):
        raise ConstructionError(f"no column profile for ({kappa}): c = {c}")
    columns = Partition._make([x for x in c if x > 0]).conjugate()
    pool = Counter(x * r for x in columns)

    # alpha_i lifts astar_i by r for every part locked at a position p >= i,
    # so one running count from the last position gives alpha and the forced
    # values at once.
    alpha = [0] * L
    betas = []
    taken = 0
    for p in range(L, 0, -1):
        if p < L and s[p - 1] > astar[p - 1] - astar[p]:
            val = astar[p - 1] - s[p - 1] + r * (p + taken + 1)
            if pool[val] > 0:
                pool[val] -= 1
                taken += 1
                betas.append(val - r * p)
        alpha[p - 1] = astar[p - 1] + r * taken

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


def phi_forward(lam, r):
    """Flatten the unique steep gap into a rectangle, map through xi, re-insert."""
    lam = _as_partition(lam)
    _check_modulus(r)
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


def phi_inverse(mu, r):
    """Remove the unique divisible value, invert xi, restore the steep gap."""
    mu = _as_partition(mu)
    _check_modulus(r)
    divisible = sorted({p for p in mu if p % r == 0})
    if len(divisible) != 1:
        raise BijectionError(
            f"phi_inverse needs exactly one distinct value divisible by {r}, got ({mu})")
    rk = divisible[0]
    j = sum(1 for p in mu if p == rk)
    remainder = Partition._make([p for p in mu if p != rk])
    lam = xi_inverse(remainder, r) + rectangle(rk, j)
    _ensure(is_member(lam, Family.F_1R, r), "phi preimage is not in F_1r", lam)
    return lam


# ---------------------------------------------------------------------------
# psi1: overlined-flat and one-steep partitions  <->  (flat, rectangle) pairs.
# ---------------------------------------------------------------------------

def psi1_forward(nu, r, t):
    """Strip a rectangle of residue-t parts off the decorated/steep position.

    Overlined inputs lose t from each of the first i parts (case 1); plain
    inputs with one steep gap lose a*r + t (case 2).  The two case images
    are disjoint: with a = 0 the gap at i is < r - t in case 1 and >= r - t
    in case 2.
    """
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


def psi1_inverse(pair, r, t):
    """Re-attach the rectangle; overline the landing position when no steep gap appears."""
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

def psi2_forward(lam, r, t):
    """Remove the marked value down to the mark's rank, then invert xi."""
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


def psi2_inverse(pair, r, t):
    """Push the flat component through xi, merge the rectangle, mark its last copy."""
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


def psi_o_forward(lam, r):
    """Drop the overlined part of an r-regular partition; invert xi on the rest."""
    _require(lam, Family.O_BAR, r)
    pair = RectanglePair(xi_inverse(_remove_one(lam.base, lam.position), r), 1, lam.value)
    _ensure(_member(pair, PairSet.A_O, r), "psi_o image is not in Ao", pair)
    return pair


def psi_o_inverse(pair, r):
    _require(pair, PairSet.A_O, r)
    lam = _overline_last(xi_forward(pair.flat, r).output.union((pair.count,)), pair.count)
    _ensure(_member(lam, Family.O_BAR, r), "psi_o preimage is not in Obar", lam)
    return lam


def psi_d_forward(lam, r):
    """Drop the overlined part of a multiplicity-bounded partition; conjugate."""
    _require(lam, Family.D_BAR, r)
    pair = RectanglePair(_remove_one(lam.base, lam.position).conjugate(), 1, lam.value)
    _ensure(_member(pair, PairSet.A_D, r), "psi_d image is not in Ad", pair)
    return pair


def psi_d_inverse(pair, r):
    _require(pair, PairSet.A_D, r)
    lam = _overline_last(pair.flat.conjugate().union((pair.count,)), pair.count)
    _ensure(_member(lam, Family.D_BAR, r), "psi_d preimage is not in Dbar", lam)
    return lam


def psi_t_forward(lam, r):
    """Remove r copies of the overloaded value, conjugate, record i = r*value."""
    lam = _as_partition(lam)
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


def psi_t_inverse(pair, r):
    _require(pair, PairSet.A_T, r)
    lam = pair.flat.conjugate().union(rectangle(pair.count // r, r))
    _ensure(_member(lam, Family.T_R, r), "psi_t preimage is not in Tr", lam)
    return lam


# ---------------------------------------------------------------------------
# zeta: trades a gap of r-1 at position j against an r-fold taller rectangle.
# ---------------------------------------------------------------------------

def zeta_forward(pair, r):
    _require(pair, PairSet.A, r)
    j = pair.count
    image = RectanglePair(pair.flat - rectangle(r - 1, j), 1, r * j)
    _ensure(_member(image, PairSet.B, r) and image.size == pair.size,
            f"zeta image is not a pair of size {pair.size} in B", image)
    return image


def zeta_inverse(pair, r):
    _require(pair, PairSet.B, r)
    j = pair.count // r
    image = RectanglePair(pair.flat + rectangle(r - 1, j), 1, j)
    _ensure(_member(image, PairSet.A, r) and image.size == pair.size,
            f"zeta preimage is not a pair of size {pair.size} in A", image)
    return image
