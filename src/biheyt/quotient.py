"""Lattice homomorphisms, kernels, congruences, and quotient algebras.

A verified hom preserves bottom, top, meet and join; the 'heyting'
flavor additionally preserves implication and 'coheyting' preserves
subtraction; each operation table is compared in bulk with
bytes.translate. Homs are enumerated through finite Birkhoff duality,
one candidate per order-preserving map from the target's
join-irreducibles into the source, built one join-irreducible at a
time, and two-valued homs from the principal filters; every candidate
is still verified. Congruences are equivalence relations compatible
with meet and join; the one an ideal or filter generates is closed by
union-find, each union queueing the meets and joins of its pair with
every element. A quotient checks its partition as a congruence before
it rebuilds the block lattice, and verifies the projection as a hom. A
filter is checked through its generator, the meet of its members, and
ideals are the filters of the order dual (lattice.dualize).
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Sequence

from .bitsets import bit_list, iter_bits, pullback, subset_key, translate_table
from .errors import (
    BoundExceeded,
    NotACongruence,
    NotAHomomorphism,
    UnknownOption,
    WrongKind,
)
from .lattice import FiniteLattice, _lattice_from_rows, chain, dualize

# largest source enumerate_homs accepts. verify functoriality keeps
# elements and points as bytes below 128 and tags a map from lattice i
# with the byte 128 + i, so both the element count and the number of
# distributive lattices up to this size (21 at 7) must stay below 128
MAX_HOM_SIZE = 7


class FilterOrIdeal(NamedTuple):
    """A nonempty proper filter (up-closed, meet-closed) or ideal
    (down-closed, join-closed). members is an element bitmask."""

    lattice: FiniteLattice
    members: int
    kind: str

    def __repr__(self):
        return f"FilterOrIdeal(kind={self.kind!r}, members={sorted(iter_bits(self.members))})"

    def __contains__(self, element: int) -> bool:
        return bool((self.members >> element) & 1)


def _is_filter_mask(lat: FiniteLattice, members: int) -> bool:
    """Whether members is a proper nonempty filter, read off its
    generator: a finite filter is principal, F = ↑(⋀F), and it is
    proper exactly when ⋀F ≠ ⊥. The empty mask fails, as ↑⊤ ≠ ∅."""
    meet, g = lat.meet, lat.top
    for a in iter_bits(members):
        g = meet[g][a]
    return g != lat.bottom and lat.up[g] == members


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
    """A verified hom, map[a] the image of element a. Not a NamedTuple:
    == and hash ignore the flavor, any map sequence is stored as a
    tuple, and surjective is memoised."""

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


# the tables each hom flavor preserves; a witness names its table
# without the "_table"
_FLAVOR_TABLES = {
    "lattice": ("meet", "join"),
    "heyting": ("meet", "join", "implies_table"),
    "coheyting": ("meet", "join", "minus_table"),
}


def _flavor_tables(flavor) -> tuple[str, ...]:
    tables = _FLAVOR_TABLES.get(flavor)
    if tables is None:
        raise UnknownOption("hom flavor", flavor, tuple(_FLAVOR_TABLES))
    return tables


def _first_row_off(phi: bytes, source, target, table: str):
    """Writing · for the named table and m for the map whose translate
    table is phi: the first row a with m(a·b) ≠ m(a)·m(b) for some b, or
    None. Every m(a·b) is the source's rows, joined, translated by m;
    m(a)·m(b) for every b is the map translated by the target's row
    m(a)."""
    images = phi[:source.n]
    got = source.byte_rows(table)[0].translate(phi)
    want = b"".join(map(images.translate, map(target.byte_rows(table)[1].__getitem__, images)))
    if got == want:
        return None
    return next(i for i, (x, y) in enumerate(zip(got, want)) if x != y) // source.n


def check_hom(map: Sequence[int], source, target, flavor="lattice") -> LatticeHom:
    """Verify the map preserves ⊥, ⊤, ∧, ∨ (and →/← per flavor);
    return the hom or raise NotAHomomorphism with the first witness, in
    the order ∧, ∨, then →/←, each row-major over (a, b).

    Each table is compared in bulk by bytes.translate (_first_row_off),
    and walked pair by pair only from the first row that differs, to
    find the witness; every pair is walked when a lattice has more than
    256 elements. An unknown flavor raises UnknownOption before the map
    is looked at."""
    names = _flavor_tables(flavor)
    m = tuple(map)
    n = source.n
    if len(m) != n:
        raise NotAHomomorphism("totality", len(m), n)
    if min(m) < 0 or max(m) >= target.n:
        raise NotAHomomorphism("range", min(m), max(m))
    if m[source.bottom] != target.bottom:
        raise NotAHomomorphism("bottom", source.bottom, m[source.bottom])
    if m[source.top] != target.top:
        raise NotAHomomorphism("top", source.top, m[source.top])
    tables = [(name, getattr(source, name), getattr(target, name)) for name in names]
    rowwise = n <= 256 and target.n <= 256
    if rowwise:
        phi = translate_table(m)
    for name, src_op, dst_op in tables:
        first = _first_row_off(phi, source, target, name) if rowwise else 0
        if first is None:
            continue
        for a in range(first, n):
            for b in range(n):
                if m[src_op[a][b]] != dst_op[m[a]][m[b]]:
                    raise NotAHomomorphism(name.removesuffix("_table"), a, b)
    return LatticeHom(source, target, m, flavor)


def is_hom(map, source, target, flavor="lattice") -> bool:
    try:
        check_hom(map, source, target, flavor)
        return True
    except NotAHomomorphism:
        return False


def enumerate_homs(source, target, flavor="lattice") -> list[LatticeHom]:
    """All homs source→target, sorted by map, through finite Birkhoff duality.

    A hom φ is fixed by f(j) = ⋀φ⁻¹(↑j), the least a with j ≤ φ(a), over
    the join-irreducibles j of the target: φ(a) = ⋁{j | f(j) ≤ a}, and f
    is order-preserving into the source's elements other than ⊥. When j
    is join-prime (target.join_primes), its filter ↑j is prime, so φ⁻¹(↑j)
    is prime and f(j) is join-prime, hence join-irreducible: only those
    images are tried for j. Any other j tries every element but ⊥; in a
    distributive target there is none. The join-irreducibles are
    assigned one at a time, each image tried in index order and tested
    only against the earlier points it is comparable with, so the
    order-preserving f come in the order of itertools.product over each
    point's images and no other f is built. φ is carried along: giving j
    the image v joins j into φ(a) for every a ≥ v. Every candidate is
    verified with is_hom; several f can give the same map, which is kept
    once. The source has at most MAX_HOM_SIZE elements."""
    _flavor_tables(flavor)
    if source.n > MAX_HOM_SIZE:
        raise BoundExceeded("lattice size", source.n, MAX_HOM_SIZE)
    points = target.join_irreducibles
    join, up, down = target.join, source.up, source.down
    primes = set(target.join_primes)
    prime_images = sum(1 << a for a in source.join_irreducibles)
    any_image = ((1 << source.n) - 1) & ~(1 << source.bottom)
    images = [prime_images if j in primes else any_image for j in points]
    k = len(points)
    # the earlier points each point lies above, and those it lies below
    above = [[p for p in range(q) if target.leq(points[p], points[q])] for q in range(k)]
    beneath = [[p for p in range(q) if target.leq(points[q], points[p])] for q in range(k)]
    # each entry: the images f of the first points, and φ built from them
    stack = [((), [target.bottom] * source.n)]
    found = {}
    while stack:
        f, phi = stack.pop()
        q = len(f)
        if q == k:
            m = tuple(phi)
            if m not in found and is_hom(m, source, target, flavor):
                found[m] = LatticeHom(source, target, m, flavor)
            continue
        allowed = images[q]
        for p in above[q]:
            allowed &= up[f[p]]
        for p in beneath[q]:
            allowed &= down[f[p]]
        row = join[points[q]]
        for v in reversed(bit_list(allowed)):  # popped in index order
            over = up[v]
            stack.append((f + (v,), [row[x] if (over >> a) & 1 else x
                                     for a, x in enumerate(phi)]))
    return [found[m] for m in sorted(found)]


def compose(g: LatticeHom, f: LatticeHom) -> LatticeHom:
    """g∘f, verified on the way out."""
    if f.target != g.source:
        raise NotAHomomorphism("composition", f.target.n, g.source.n)
    flavor = f.flavor if f.flavor == g.flavor else "lattice"
    return check_hom([g.map[f.map[a]] for a in range(f.source.n)],
                     f.source, g.target, flavor)


def kernel(phi: LatticeHom) -> int:
    """Preimage of the target bottom, as an element mask. For targets
    with more than one element this is always a proper nonempty ideal;
    when the target is the one-element lattice it is the whole carrier."""
    return pullback(phi.map, 1 << phi.target.bottom)


def preimage_of_top(phi: LatticeHom) -> int:
    return pullback(phi.map, 1 << phi.target.top)


def two_valued_homs(lat: FiniteLattice) -> list[LatticeHom]:
    """All surjective bounded-lattice homs onto the two-element algebra,
    in subset_key order of φ⁻¹(⊤).

    These are the two-valued truth assignments; φ⁻¹(⊤) ranges exactly
    over the prime filters, so the candidates are the proper filters
    that filters lists, each verified with is_hom. Some of the homs also
    preserve implication, but requiring that would break the
    prime-filter bijection (on the 3-chain, the assignment sending the
    middle to 0 maps m→⊥ to 0 while φ(m)→φ(⊥) = 1)."""
    two = chain(2)
    out = []
    for f in filters(lat):
        m = [(f.members >> a) & 1 for a in range(lat.n)]
        if is_hom(m, lat, two, "lattice"):
            out.append(LatticeHom(lat, two, m, "lattice"))
    return out


class Congruence(NamedTuple):
    """A partition of the carrier compatible with meet and join. Blocks
    are bitmasks sorted by least member."""

    lattice: FiniteLattice
    blocks: tuple[int, ...]

    def __repr__(self):
        return f"Congruence(blocks={[sorted(iter_bits(b)) for b in self.blocks]})"

    @property
    def block_of(self) -> tuple[int, ...]:
        """block_of[a] is the index of the block holding element a."""
        block_of = [0] * self.lattice.n
        for k, blk in enumerate(self.blocks):
            for a in iter_bits(blk):
                block_of[a] = k
        return tuple(block_of)

    def related(self, a: int, b: int) -> bool:
        return any((blk >> a) & (blk >> b) & 1 for blk in self.blocks)


def check_congruence(lat: FiniteLattice, blocks) -> Congruence:
    """Validate a partition as a lattice congruence. Each block is read
    by _member_mask, so an element outside 0..n-1 is refused, and so is
    an empty block."""
    masks = []
    seen = 0
    for k, blk in enumerate(blocks):
        mask = _member_mask(lat, blk)
        if not mask:
            raise WrongKind(f"block {k} of the partition is empty")
        if mask & seen:
            raise NotACongruence("partition", sorted(iter_bits(mask & seen)))
        seen |= mask
        masks.append(mask)
    if seen != (1 << lat.n) - 1:
        raise NotACongruence("partition", sorted(iter_bits(~seen & ((1 << lat.n) - 1))))
    masks.sort(key=lambda mask: (mask & -mask).bit_length())
    cong = Congruence(lat, tuple(masks))
    block_of = cong.block_of
    for op_name, op in (("meet", lat.meet), ("join", lat.join)):
        for blk in masks:
            members = list(iter_bits(blk))
            rep = members[0]
            for a in members[1:]:
                for c in range(lat.n):
                    if block_of[op[rep][c]] != block_of[op[a][c]]:
                        raise NotACongruence(op_name, (rep, a, c))
    return cong


def _congruence_closure(lat: FiniteLattice, seed_pairs) -> Congruence:
    """Smallest lattice congruence containing the seed pairs. Each union
    of the classes of a and b queues the pairs (a∧c, b∧c) and (a∨c, b∨c)
    for every c, so every related pair is linked by unions whose
    translated pairs are related, and the classes form a congruence."""
    parent = list(range(lat.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    work = list(seed_pairs)
    while work:
        a, b = work.pop()
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
            work += zip(lat.meet[a], lat.meet[b])
            work += zip(lat.join[a], lat.join[b])
    blocks = [0] * lat.n  # each class under its root, its least member
    for a in range(lat.n):
        blocks[find(a)] |= 1 << a
    return Congruence(lat, tuple(filter(None, blocks)))


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

    The blocks are checked as a congruence first (check_congruence), so
    anything else raises NotACongruence; the quotient order is then
    rebuilt from block representatives and the projection verified
    with check_hom."""
    cong = check_congruence(lat, cong.blocks)
    block_of = cong.block_of
    reps = [(blk & -blk).bit_length() - 1 for blk in cong.blocks]
    k = len(reps)
    up = []
    for i in range(k):
        row = 0
        for j in range(k):
            if block_of[lat.join[reps[i]][reps[j]]] == j:
                row |= 1 << j
        up.append(row)
    q = _lattice_from_rows(up)
    proj = check_hom(block_of, lat, q, "lattice")
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
