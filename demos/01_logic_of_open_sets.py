"""Open sets as propositions: meet is intersection, join is union, and
implication is the largest open set whose overlap with the antecedent
stays inside the consequent. Double negation is where the logic stops
being classical."""

from biheyt import eval_algebra, open_lattice, parse_formula, validate_topology
from biheyt.bitsets import pattern

space = validate_topology(3, [0b000, 0b001, 0b011, 0b111])
print("space on {a,b,c} with opens:", [pattern(o, 3) for o in space.opens])

lat = open_lattice(space)
subs = lat.subsets
show = lambda el: "{" + ",".join("abc"[i] for i in range(3) if (subs[el] >> i) & 1) + "}"

a_b = subs.index(0b011)
print(f"\nA = {show(a_b)}")
print(f"¬A  = interior of complement = {show(lat.neg_table[a_b])}")
print(f"¬¬A = {show(lat.neg_table[lat.neg_table[a_b]])}  — strictly bigger than A")

print("\nexcluded middle, evaluated in the algebra:")
for name, el in [("{a}", subs.index(0b001)), ("X", lat.top)]:
    value = eval_algebra(parse_formula("p | !p"), lat, {"p": el}, "intuitionistic")
    verdict = "= X, holds" if value == lat.top else f"= {show(value)}, fails"
    print(f"  v(p) = {name:4}  p ∨ ¬p {verdict}")
