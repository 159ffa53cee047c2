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
``assert`` statements, so they still run under ``python -O``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .families import Family, is_member
from .partitions import (
    Composition,
    DecoratedPartition,
    MARK,
    OVERLINE,
    Partition,
    RectanglePair,
    _check_modulus,
    _check_residue,
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
    return lam if isinstance(lam, Partition) else Partition(lam)


def _ensure(ok, claim, value):
    """A postcondition: raise ConstructionError naming ``value`` unless ``ok``."""
    if not ok:
        raise ConstructionError(f"{claim}: ({value})")


def _is_flat_list(parts, r):
    # parts non-increasing; gaps (final included) all < r
    if not parts:
        return True
    if parts[-1] > r - 1:
        return False
    return all(parts[i] - parts[i + 1] <= r - 1 for i in range(len(parts) - 1))


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

def _check_pair_rt(pair, r, t):
    if not isinstance(pair, RectanglePair):
        raise BijectionError(f"expected a RectanglePair, got {pair!r}")
    if pair.part % r != t % r:
        raise BijectionError(
            f"rectangle part {pair.part} is not congruent to {t} mod {r}")
    if not pair.flat.is_flat(r):
        raise BijectionError(f"pair component ({pair.flat}) is not {r}-flat")


def psi1_forward(nu, r, t):
    """Strip a rectangle of residue-t parts off the decorated/steep position.

    Overlined inputs lose t from each of the first i parts (case 1); plain
    inputs with one steep gap lose a*r + t (case 2).  The two case images
    are disjoint: with a = 0 the gap at i is < r - t in case 1 and >= r - t
    in case 2.
    """
    _check_residue(r, t)
    if isinstance(nu, DecoratedPartition):
        if nu.decoration != OVERLINE:
            raise BijectionError("psi1_forward takes an overlined partition")
        base = nu.base
        if not base.is_flat(r):
            raise BijectionError(f"overlined base ({base}) is not {r}-flat")
        i = nu.position
        if base.part_at(i) - base.part_at(i + 1) < t:
            raise BijectionError(
                f"overline at position {i} needs a gap of at least {t}")
        flat = base - rectangle(t, i)
        pair = RectanglePair(flat, t, i)
        _ensure(flat.part_at(i) - flat.part_at(i + 1) < r - t,
                f"psi1 case-1 gap at {i} is not below {r - t}", flat)
        size = nu.size
    else:
        base = _as_partition(nu)
        steep = _steep_positions(base, r)
        if len(steep) != 1:
            raise BijectionError(
                f"psi1_forward needs exactly one gap >= {r}, got ({base})")
        i = steep[0]
        gap = base.part_at(i) - base.part_at(i + 1)
        a = (gap - t) // r
        flat = base - rectangle(a * r + t, i)
        pair = RectanglePair(flat, a * r + t, i)
        _ensure(a > 0 or flat.part_at(i) - flat.part_at(i + 1) >= r - t,
                f"psi1 case-2 gap at {i} is below {r - t}", flat)
        size = base.size
    _ensure(pair.flat.is_flat(r) and pair.size == size,
            f"psi1 image is not a {r}-flat pair of size {size}", pair)
    return pair


def psi1_inverse(pair, r, t):
    """Re-attach the rectangle; overline the landing position when no steep gap appears."""
    _check_residue(r, t)
    _check_pair_rt(pair, r, t)
    i = pair.count
    nu = pair.flat + rectangle(pair.part, i)
    if pair.part > t or nu.part_at(i) - nu.part_at(i + 1) >= r:
        _ensure(is_member(nu, Family.F_1R, r), "psi1 preimage is not in F_1r", nu)
        return nu
    _ensure(nu.part_at(i) - nu.part_at(i + 1) >= t,
            f"overlined gap at {i} is below {t}", nu)
    return DecoratedPartition(nu, OVERLINE, i)


# ---------------------------------------------------------------------------
# psi2: marked r-regular partitions  <->  (flat, rectangle) pairs.
# ---------------------------------------------------------------------------

def psi2_forward(lam, r, t):
    """Remove the marked value down to the mark's rank, then invert xi."""
    _check_residue(r, t)
    if not isinstance(lam, DecoratedPartition) or lam.decoration != MARK:
        raise BijectionError("psi2_forward takes a partition with one marked part")
    base = lam.base
    if not base.is_regular(r):
        raise BijectionError(f"marked base ({base}) is not {r}-regular")
    value = lam.value
    if value % r != t:
        raise BijectionError(f"marked part {value} is not congruent to {t} mod {r}")
    first = base.index(value)
    i = lam.position - first  # rank of the mark among equal parts
    remainder = Partition._make(
        [p for idx, p in enumerate(base) if not (p == value and idx < first + i)]
    )
    pair = RectanglePair(xi_inverse(remainder, r), value, i)
    _ensure(pair.size == base.size, f"psi2 image does not have size {base.size}", pair)
    return pair


def psi2_inverse(pair, r, t):
    """Push the flat component through xi, merge the rectangle, mark its last copy."""
    _check_residue(r, t)
    _check_pair_rt(pair, r, t)
    nu = xi_forward(pair.flat, r).output.union(pair.rectangle())
    position = nu.index(pair.part) + pair.count  # the count-th copy, 1-based
    return DecoratedPartition(nu, MARK, position)


# ---------------------------------------------------------------------------
# psi_o / psi_d / psi_t: the unit-rectangle maps.
# ---------------------------------------------------------------------------

def _remove_one(base, position):
    return Partition._make([p for idx, p in enumerate(base, start=1) if idx != position])


def _check_unit_pair(pair, r):
    if not isinstance(pair, RectanglePair) or pair.part != 1:
        raise BijectionError(f"expected a (flat, (1^i)) pair, got {pair!r}")
    if not pair.flat.is_flat(r):
        raise BijectionError(f"pair component ({pair.flat}) is not {r}-flat")


def psi_o_forward(lam, r):
    """Drop the overlined part of an r-regular partition; invert xi on the rest."""
    _check_modulus(r)
    if not isinstance(lam, DecoratedPartition) or lam.decoration != OVERLINE:
        raise BijectionError("psi_o_forward takes an overlined partition")
    if not lam.base.is_regular(r):
        raise BijectionError(f"overlined base ({lam.base}) is not {r}-regular")
    i = lam.value
    pair = RectanglePair(xi_inverse(_remove_one(lam.base, lam.position), r), 1, i)
    _ensure(i % r != 0, f"overlined part {i} is divisible by {r}", lam)
    return pair


def psi_o_inverse(pair, r):
    _check_unit_pair(pair, r)
    i = pair.count
    if i % r == 0:
        raise BijectionError(f"rectangle height {i} must not be divisible by {r}")
    nu = xi_forward(pair.flat, r).output.union(Partition._make((i,)))
    position = len(nu) - list(reversed(nu)).index(i)  # last occurrence of i
    return DecoratedPartition(nu, OVERLINE, position)


def psi_d_forward(lam, r):
    """Drop the overlined part of a multiplicity-bounded partition; conjugate."""
    _check_modulus(r)
    if not isinstance(lam, DecoratedPartition) or lam.decoration != OVERLINE:
        raise BijectionError("psi_d_forward takes an overlined partition")
    if lam.base.max_multiplicity() > r - 1:
        raise BijectionError(f"overlined base ({lam.base}) repeats a part {r}+ times")
    i = lam.value
    flat = _remove_one(lam.base, lam.position).conjugate()
    pair = RectanglePair(flat, 1, i)
    _ensure(flat.part_at(i) - flat.part_at(i + 1) < r - 1,
            f"psi_d gap at {i} is not below {r - 1}", flat)
    _ensure(flat.is_flat(r), f"psi_d image is not {r}-flat", flat)
    return pair


def psi_d_inverse(pair, r):
    _check_unit_pair(pair, r)
    i = pair.count
    if pair.flat.part_at(i) - pair.flat.part_at(i + 1) >= r - 1:
        raise BijectionError(f"gap at position {i} must be below {r - 1}")
    nu = pair.flat.conjugate().union(Partition._make((i,)))
    position = len(nu) - list(reversed(nu)).index(i)
    lam = DecoratedPartition(nu, OVERLINE, position)
    _ensure(nu.max_multiplicity() <= r - 1, f"psi_d preimage repeats a part {r}+ times", nu)
    return lam


def psi_t_forward(lam, r):
    """Remove r copies of the overloaded value, conjugate, record i = r*value."""
    _check_modulus(r)
    lam = _as_partition(lam)
    if not is_member(lam, Family.T_R, r):
        raise BijectionError(
            f"psi_t_forward needs exactly one value repeated strictly between "
            f"{r} and {2 * r} times, got ({lam})")
    j = next(v for v, c in lam.multiplicities().items() if c >= r)
    survivors = []
    dropped = 0
    for p in lam:
        if p == j and dropped < r:
            dropped += 1
        else:
            survivors.append(p)
    flat = Partition._make(survivors).conjugate()
    pair = RectanglePair(flat, 1, r * j)
    _ensure(flat.part_at(j) - flat.part_at(j + 1) > 0, f"psi_t gap at {j} is zero", flat)
    _ensure(flat.is_flat(r), f"psi_t image is not {r}-flat", flat)
    return pair


def psi_t_inverse(pair, r):
    _check_unit_pair(pair, r)
    i = pair.count
    if i % r != 0:
        raise BijectionError(f"rectangle height {i} must be divisible by {r}")
    j = i // r
    if pair.flat.part_at(j) - pair.flat.part_at(j + 1) <= 0:
        raise BijectionError(f"gap at position {j} must be positive")
    lam = pair.flat.conjugate().union(rectangle(j, r))
    _ensure(is_member(lam, Family.T_R, r), "psi_t preimage is not in T_r", lam)
    return lam


# ---------------------------------------------------------------------------
# zeta: trades a gap of r-1 at position j against an r-fold taller rectangle.
# ---------------------------------------------------------------------------

def zeta_forward(pair, r):
    _check_modulus(r)
    _check_unit_pair(pair, r)
    j = pair.count
    if pair.flat.part_at(j) - pair.flat.part_at(j + 1) != r - 1:
        raise BijectionError(
            f"zeta_forward needs a gap of exactly {r - 1} at position {j}")
    shrunk = pair.flat - rectangle(r - 1, j)
    image = RectanglePair(shrunk, 1, r * j)
    _ensure(shrunk.part_at(j) - shrunk.part_at(j + 1) == 0,
            f"zeta gap at {j} is not zero", shrunk)
    _ensure(image.size == pair.size, f"zeta image does not have size {pair.size}", image)
    return image


def zeta_inverse(pair, r):
    _check_modulus(r)
    _check_unit_pair(pair, r)
    i = pair.count
    if i % r != 0:
        raise BijectionError(f"rectangle height {i} must be divisible by {r}")
    j = i // r
    if pair.flat.part_at(j) - pair.flat.part_at(j + 1) != 0:
        raise BijectionError(f"gap at position {j} must be zero")
    grown = pair.flat + rectangle(r - 1, j)
    image = RectanglePair(grown, 1, j)
    _ensure(grown.is_flat(r) and image.size == pair.size,
            f"zeta preimage is not a {r}-flat pair of size {pair.size}", image)
    return image
