"""Lattice homomorphisms, kernels, congruences, and quotient algebras.

A verified hom preserves bottom, top, meet and join; the 'heyting'
flavor additionally preserves implication and 'coheyting' preserves
subtraction. Homs are enumerated through finite Birkhoff duality, one
candidate per order-preserving map from the target's join-irreducibles
to the source's, and two-valued homs from the principal filters; every
candidate is still verified. Congruences are equivalence relations
compatible with meet and join; quotients rebuild the block lattice from
scratch and cross-check it against the projected tables, which catches
any relation that merely pretends to be a congruence.
Ideals are the filters of the order dual (lattice.dualize).
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from typing import Sequence

from .bitsets import iter_bits, subset_key
from .errors import (
    BoundExceeded,
    NotACongruence,
    NotAHomomorphism,
    WrongKind,
)
from .lattice import FiniteLattice, _lattice_from_rows, chain, dualize


class FilterOrIdeal:
    """A nonempty proper filter (up-closed, meet-closed) or ideal
    (down-closed, join-closed). members is an element bitmask."""

    def __init__(self, lattice: FiniteLattice, members: int, kind: str):
        self.lattice = lattice
        self.members = members
        self.kind = kind

    def __eq__(self, other):
        if not isinstance(other, FilterOrIdeal):
            return NotImplemented
        return (
            self.lattice == other.lattice
            and self.members == other.members
            and self.kind == other.kind
        )

    def __hash__(self):
        return hash((self.lattice, self.members, self.kind))

    def __repr__(self):
        return f"FilterOrIdeal(kind={self.kind!r}, members={sorted(iter_bits(self.members))})"

    def __contains__(self, element: int) -> bool:
        return bool((self.members >> element) & 1)


def _is_filter_mask(lat: FiniteLattice, members: int) -> bool:
    full = (1 << lat.n) - 1
    if members == 0 or members == full:
        return False
    for a in iter_bits(members):
        if lat.up[a] & ~members:
            return False
    for a in iter_bits(members):
        for b in iter_bits(members):
            if not (members >> lat.meet[a][b]) & 1:
                return False
    return True


def _is_ideal_mask(lat: FiniteLattice, members: int) -> bool:
    """The ideals of a lattice are the filters of its order dual."""
    return _is_filter_mask(dualize(lat), members)


def _member_mask(lat: FiniteLattice, members) -> int:
    """The element bitmask of members, given as a bitmask or as element
    indices; an element outside 0..n-1 is refused."""
    if isinstance(members, int):
        if not 0 <= members < 1 << lat.n:
            raise WrongKind(f"mask {members} has elements outside 0..{lat.n - 1}")
        return members
    members = set(members)
    for a in sorted(members):
        if not 0 <= a < lat.n:
            raise WrongKind(f"element {a} out of range 0..{lat.n - 1}")
    return sum(1 << a for a in members)


def make_filter(lat: FiniteLattice, members) -> FilterOrIdeal:
    mask = _member_mask(lat, members)
    if not _is_filter_mask(lat, mask):
        raise WrongKind(f"{sorted(iter_bits(mask))} is not a proper nonempty filter")
    return FilterOrIdeal(lat, mask, "filter")


def make_ideal(lat: FiniteLattice, members) -> FilterOrIdeal:
    mask = _member_mask(lat, members)
    if not _is_ideal_mask(lat, mask):
        raise WrongKind(f"{sorted(iter_bits(mask))} is not a proper nonempty ideal")
    return FilterOrIdeal(lat, mask, "ideal")


def principal_filter(lat: FiniteLattice, a: int) -> FilterOrIdeal:
    return make_filter(lat, lat.up[a])


def principal_ideal(lat: FiniteLattice, a: int) -> FilterOrIdeal:
    return make_ideal(lat, lat.down[a])


def filters(lat: FiniteLattice) -> list[FilterOrIdeal]:
    """All proper nonempty filters, canonically ordered.

    In a finite lattice every filter is principal, F = ↑(⋀F), and it is
    proper exactly when its generator is not ⊥."""
    return [
        FilterOrIdeal(lat, s, "filter")
        for s in sorted(
            (lat.up[a] for a in range(lat.n) if a != lat.bottom), key=subset_key
        )
    ]


def ideals(lat: FiniteLattice) -> list[FilterOrIdeal]:
    """All proper nonempty ideals, canonically ordered: the filters of
    the order dual, the principal ideals ↓a for a ≠ ⊤."""
    return [FilterOrIdeal(lat, f.members, "ideal") for f in filters(dualize(lat))]


class LatticeHom:
    def __init__(self, source, target, map, flavor):
        self.source = source
        self.target = target
        self.map = tuple(map)
        self.flavor = flavor

    def __call__(self, a: int) -> int:
        return self.map[a]

    def __eq__(self, other):
        if not isinstance(other, LatticeHom):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.map == other.map
        )

    def __hash__(self):
        return hash((self.source, self.target, self.map))

    def __repr__(self):
        return f"LatticeHom({self.map}, flavor={self.flavor!r})"

    @cached_property
    def surjective(self) -> bool:
        return len(set(self.map)) == self.target.n


def check_hom(map: Sequence[int], source, target, flavor="lattice") -> LatticeHom:
    """Verify the map preserves ⊥, ⊤, ∧, ∨ (and →/← per flavor);
    return the hom or raise NotAHomomorphism with the first witness."""
    m = tuple(map)
    if len(m) != source.n:
        raise NotAHomomorphism("totality", len(m), source.n)
    if any(not 0 <= v < target.n for v in m):
        raise NotAHomomorphism("range", min(m), max(m))
    if m[source.bottom] != target.bottom:
        raise NotAHomomorphism("bottom", source.bottom, m[source.bottom])
    if m[source.top] != target.top:
        raise NotAHomomorphism("top", source.top, m[source.top])
    pairs = [("meet", source.meet, target.meet), ("join", source.join, target.join)]
    if flavor == "heyting":
        pairs.append(("implies", source.implies_table, target.implies_table))
    elif flavor == "coheyting":
        pairs.append(("minus", source.minus_table, target.minus_table))
    elif flavor != "lattice":
        raise ValueError(f"unknown flavor {flavor!r}")
    for name, src_op, dst_op in pairs:
        for a in range(source.n):
            for b in range(source.n):
                if m[src_op[a][b]] != dst_op[m[a]][m[b]]:
                    raise NotAHomomorphism(name, a, b)
    return LatticeHom(source, target, m, flavor)


def is_hom(map, source, target, flavor="lattice") -> bool:
    try:
        check_hom(map, source, target, flavor)
        return True
    except NotAHomomorphism:
        return False


def _join_irreducibles(lat: FiniteLattice) -> list[int]:
    """Elements other than ⊥ that are not the join of the elements below them."""
    out = []
    for j in range(lat.n):
        acc = lat.bottom
        for x in iter_bits(lat.down[j] & ~(1 << j)):
            acc = lat.join[acc][x]
        if j != lat.bottom and acc != j:
            out.append(j)
    return out


def enumerate_homs(source, target, flavor="lattice", bound: int = 6) -> list[LatticeHom]:
    """All homs source→target, sorted by map, through finite Birkhoff duality.

    A hom φ is fixed by f(j) = ⋀φ⁻¹(↑j), the least a with j ≤ φ(a), over
    the join-irreducibles j of the target: φ(a) = ⋁{j | f(j) ≤ a}, and f
    is order-preserving into the source's elements other than ⊥. When the
    target is distributive each j is join-prime, so f(j) is
    join-irreducible and only those images are tried. Every candidate is
    verified with check_hom; into a non-distributive target several f
    can give the same map, which is kept once."""
    if source.n > bound:
        raise BoundExceeded("lattice size", source.n, bound)
    points = _join_irreducibles(target)
    if target.distributive_failure is None:
        images = _join_irreducibles(source)
    else:
        images = [a for a in range(source.n) if a != source.bottom]
    below = [(p, q) for p, j in enumerate(points) for q, k in enumerate(points)
             if p != q and target.leq(j, k)]
    found = {}
    for f in product(images, repeat=len(points)):
        if not all(source.leq(f[p], f[q]) for p, q in below):
            continue
        m = []
        for a in range(source.n):
            acc = target.bottom
            for j, fj in zip(points, f):
                if source.leq(fj, a):
                    acc = target.join[acc][j]
            m.append(acc)
        m = tuple(m)
        if m not in found and is_hom(m, source, target, flavor):
            found[m] = LatticeHom(source, target, m, flavor)
    return [found[m] for m in sorted(found)]


def compose(g: LatticeHom, f: LatticeHom) -> LatticeHom:
    """g∘f, verified on the way out."""
    if f.target != g.source:
        raise NotAHomomorphism("composition", f.target.n, g.source.n)
    flavor = f.flavor if f.flavor == g.flavor else "lattice"
    return check_hom([g.map[f.map[a]] for a in range(f.source.n)],
                     f.source, g.target, flavor)


def _preimage(phi: LatticeHom, value: int) -> int:
    """The elements φ sends to value, as an element mask."""
    return sum(1 << a for a, v in enumerate(phi.map) if v == value)


def kernel(phi: LatticeHom) -> int:
    """Preimage of the target bottom, as an element mask. For targets
    with more than one element this is always a proper nonempty ideal;
    when the target is the one-element lattice it is the whole carrier."""
    return _preimage(phi, phi.target.bottom)


def preimage_of_top(phi: LatticeHom) -> int:
    return _preimage(phi, phi.target.top)


def two_valued_homs(lat: FiniteLattice) -> list[LatticeHom]:
    """All surjective bounded-lattice homs onto the two-element algebra,
    in subset_key order of φ⁻¹(⊤).

    These are the two-valued truth assignments; φ⁻¹(⊤) ranges exactly
    over the prime filters. In a finite lattice every proper filter is
    some ↑a with a ≠ ⊥, so those n−1 up-sets are the only candidates,
    each verified with is_hom. Some of the homs also preserve
    implication, but requiring that would break the prime-filter
    bijection (on the 3-chain, the assignment sending the middle to 0
    maps m→⊥ to 0 while φ(m)→φ(⊥) = 1)."""
    two = chain(2)
    out = []
    for s in sorted((lat.up[a] for a in range(lat.n) if a != lat.bottom), key=subset_key):
        m = [(s >> a) & 1 for a in range(lat.n)]
        if is_hom(m, lat, two, "lattice"):
            out.append(LatticeHom(lat, two, m, "lattice"))
    return out


class Congruence:
    """A partition of the carrier compatible with meet and join. Blocks
    are bitmasks sorted by least member; block_of maps elements to
    block indices."""

    def __init__(self, lattice: FiniteLattice, blocks: tuple[int, ...]):
        self.lattice = lattice
        self.blocks = blocks
        block_of = [0] * lattice.n
        for k, blk in enumerate(blocks):
            for a in iter_bits(blk):
                block_of[a] = k
        self.block_of = tuple(block_of)

    def __eq__(self, other):
        if not isinstance(other, Congruence):
            return NotImplemented
        return self.lattice == other.lattice and self.blocks == other.blocks

    def __hash__(self):
        return hash((self.lattice, self.blocks))

    def __repr__(self):
        return f"Congruence(blocks={[sorted(iter_bits(b)) for b in self.blocks]})"

    def related(self, a: int, b: int) -> bool:
        return self.block_of[a] == self.block_of[b]


def check_congruence(lat: FiniteLattice, blocks) -> Congruence:
    """Validate a partition as a lattice congruence."""
    masks = []
    seen = 0
    for blk in blocks:
        mask = blk if isinstance(blk, int) else sum(1 << i for i in set(blk))
        if mask & seen:
            raise NotACongruence("partition", sorted(iter_bits(mask & seen)))
        seen |= mask
        masks.append(mask)
    if seen != (1 << lat.n) - 1:
        raise NotACongruence("partition", sorted(iter_bits(~seen & ((1 << lat.n) - 1))))
    masks.sort(key=lambda mask: (mask & -mask).bit_length())
    cong = Congruence(lat, tuple(masks))
    for op_name, op in (("meet", lat.meet), ("join", lat.join)):
        for blk in masks:
            members = list(iter_bits(blk))
            rep = members[0]
            for a in members[1:]:
                for c in range(lat.n):
                    if cong.block_of[op[rep][c]] != cong.block_of[op[a][c]]:
                        raise NotACongruence(op_name, (rep, a, c))
    return cong


def _congruence_closure(lat: FiniteLattice, seed_pairs) -> Congruence:
    """Smallest lattice congruence containing the seed pairs."""
    parent = list(range(lat.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        parent[max(rx, ry)] = min(rx, ry)
        return True

    for a, b in seed_pairs:
        union(a, b)
    changed = True
    while changed:
        changed = False
        for a in range(lat.n):
            for b in range(a + 1, lat.n):
                if find(a) != find(b):
                    continue
                for c in range(lat.n):
                    if union(lat.meet[a][c], lat.meet[b][c]):
                        changed = True
                    if union(lat.join[a][c], lat.join[b][c]):
                        changed = True
    groups: dict[int, int] = {}
    for a in range(lat.n):
        groups.setdefault(find(a), 0)
        groups[find(a)] |= 1 << a
    blocks = sorted(groups.values(), key=lambda mask: (mask & -mask).bit_length())
    return Congruence(lat, tuple(blocks))


def congruence_from_ideal(lat: FiniteLattice, ideal: FilterOrIdeal) -> Congruence:
    """Smallest congruence collapsing the ideal onto bottom."""
    if ideal.kind != "ideal":
        raise WrongKind("expected an ideal")
    return _congruence_closure(
        lat, [(lat.bottom, a) for a in iter_bits(ideal.members)]
    )


def congruence_from_filter(lat: FiniteLattice, filt: FilterOrIdeal) -> Congruence:
    """Smallest congruence collapsing the filter onto top."""
    if filt.kind != "filter":
        raise WrongKind("expected a filter")
    return _congruence_closure(lat, [(lat.top, a) for a in iter_bits(filt.members)])


def ideal_relation(lat: FiniteLattice, ideal: FilterOrIdeal, conjunctive=True):
    """The relation 'x ~ y via implications falling in the ideal', in
    its two readings: conjunctive, (x→y)∧(y→x) ∈ I, or biconditional,
    (x→y ∈ I) ⟺ (y→x ∈ I). Returned as a set of ordered pairs for
    comparison against the closure-generated congruence; the relation
    itself need not be a congruence."""
    imp = lat.implies_table
    members = ideal.members
    pairs = set()
    for x in range(lat.n):
        for y in range(lat.n):
            if conjunctive:
                if (members >> lat.meet[imp[x][y]][imp[y][x]]) & 1:
                    pairs.add((x, y))
            else:
                if bool((members >> imp[x][y]) & 1) == bool((members >> imp[y][x]) & 1):
                    pairs.add((x, y))
    return pairs


def quotient(lat: FiniteLattice, cong: Congruence) -> tuple[FiniteLattice, LatticeHom]:
    """Block lattice plus the (verified, surjective) projection.

    The quotient order is rebuilt from block representatives and its
    tables recomputed, then every projected meet/join is cross-checked
    against the recomputed tables."""
    reps = [(blk & -blk).bit_length() - 1 for blk in cong.blocks]
    k = len(reps)
    up = []
    for i in range(k):
        row = 0
        for j in range(k):
            if cong.block_of[lat.join[reps[i]][reps[j]]] == j:
                row |= 1 << j
        up.append(row)
    q = _lattice_from_rows(up)
    for a in range(lat.n):
        for b in range(lat.n):
            ba, bb = cong.block_of[a], cong.block_of[b]
            if cong.block_of[lat.meet[a][b]] != q.meet[ba][bb]:
                raise NotACongruence("meet", (a, b))
            if cong.block_of[lat.join[a][b]] != q.join[ba][bb]:
                raise NotACongruence("join", (a, b))
    proj = check_hom(cong.block_of, lat, q, "lattice")
    assert proj.surjective
    return q, proj


def projection_implication_mismatches(
    lat: FiniteLattice, cong: Congruence
) -> list[tuple[int, int]]:
    """Pairs (a, b) where π(a→b) differs from π(a)→π(b); empty exactly
    when the projection is a Heyting hom."""
    q, proj = quotient(lat, cong)
    out = []
    for a in range(lat.n):
        for b in range(lat.n):
            if proj.map[lat.implies_table[a][b]] != q.implies_table[proj.map[a]][proj.map[b]]:
                out.append((a, b))
    return out
