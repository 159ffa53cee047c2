#!/usr/bin/env python3
"""Step-by-step tour of the flat-to-regular bijection xi and its inverse."""

from beckpart import Family, Partition, enumerate_family, modular_diagram, xi_forward, xi_inverse

R = 5
lam = Partition((22, 19, 15, 15, 13, 10, 6, 5, 2))

print("=" * 64)
print(f"xi maps {R}-flat partitions to {R}-regular partitions of the same size")
print("=" * 64)
print(f"input  ({lam}), size {lam.size}")
print(modular_diagram(lam, R))
print()

trace = xi_forward(lam, R)
print("Step 1 peels off divisible parts whose removal keeps the rest flat:")
print(f"  nu    = ({trace.nu})        (removable, all divisible by {R})")
print(f"  mu    = ({trace.mu})  (every divisible part locked)")
print()
print("Step 2 splits mu by divisibility and moves blocks of size r between rows:")
print(f"  alpha = ({trace.alpha}),   beta = ({trace.beta})")
print(f"  u = ({trace.u})  blocks leave each alpha row;  v = {tuple(trace.v)}  blocks enter each beta row")
print(f"  alpha* = ({trace.alpha_star}),   beta* = ({trace.beta_star})")
print()
print("Step 3 turns nu U beta* into columns and attaches them to alpha*:")
print(f"  nu U beta* = {R} * ({trace.sigma})")
print(f"  output = alpha* + {R} * conjugate(sigma) = ({trace.output})")
print(modular_diagram(trace.output, R))
print()

# how many parts fall in each residue class t = 1..R-1
profile_in, profile_out = (tuple(sum(p % R == t for p in x) for t in range(1, R))
                           for x in (lam, trace.output))
assert profile_in == profile_out
print(f"Parts in each nonzero residue class mod {R} are preserved:")
print(f"  input  profile {profile_in}")
print(f"  output profile {profile_out}")
print()

print("=" * 64)
print("The inverse reconstructs the preimage directly")
print("=" * 64)
back = xi_inverse(trace.output, R)
print(f"xi_inverse(({trace.output})) = ({back})")
assert back == lam
print()

n, r = 14, 3
flats = list(enumerate_family(n, Family.F_R, r))
images = sorted(xi_forward(f, r).output for f in flats)
regulars = sorted(enumerate_family(n, Family.O_R, r))
assert images == regulars
print(f"At n = {n}, r = {r}: the {len(flats)} flat partitions map one-to-one")
print(f"onto the {len(regulars)} regular ones; every image inverts correctly:")
for f in flats[:6]:
    out = xi_forward(f, r).output
    assert xi_inverse(out, r) == f
    print(f"  ({f})  ->  ({out})")
print("  ...")
