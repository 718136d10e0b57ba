"""Closed sets form the dual algebra: subtraction A←B is the closure of
A minus B, co-negation ∼A is the closure of the complement, and the
boundary ∂A = A ∧ ∼A need not be empty. Excluded middle always holds;
noncontradiction does not. That asymmetry is the whole story."""

from biheyt import (
    check_boundary_laws,
    check_dual_de_morgan,
    check_lem,
    closed_lattice,
    validate_topology,
)
from biheyt.bitsets import pattern

space = validate_topology(3, [0b000, 0b001, 0b011, 0b111])
lat = closed_lattice(space)
subs = lat.subsets
show = lambda el: "{" + ",".join("abc"[i] for i in range(3) if (subs[el] >> i) & 1) + "}"

print("closed sets:", [pattern(c, 3) for c in space.closeds])
bc = subs.index(0b110)
print(f"\nA = {show(bc)}")
print(f"∼A = {show(lat.conot_table[bc])}   (closure of the complement)")
print(f"∂A = A ∧ ∼A = {show(lat.boundary_table[bc])}   — a true contradiction, not ⊥")
print(f"A ∨ ∼A = {show(lat.join[bc][lat.conot_table[bc]])}   — excluded middle still holds")

print("\nlaw suite on this algebra:")
for rep in [*check_dual_de_morgan(lat), check_lem(lat), *check_boundary_laws(lat)]:
    print(" ", rep)
