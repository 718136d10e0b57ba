"""Finite bounded lattices and their Heyting / co-Heyting operations.

Elements are dense indices 0..n-1. The order is stored closed (the
full reflexive-transitive relation) as bitmask rows, so order queries
are O(1). Operation tables are memoized lazily via cached_property;
they are pure and idempotent, so concurrent first use is harmless.

A lattice is distributive iff a∧(b∨c) = (a∧b)∨(a∧c) for all triples;
the Heyting implication a→b = ⋁{x | a∧x ≤ b} and the co-Heyting
subtraction a←b = ⋀{x | a ≤ b∨x} are only well behaved (residuation /
co-residuation) on distributive lattices, so both refuse otherwise.
There Birkhoff duality gives them in closed form: for J(x) the
join-irreducibles below x, J(a→b) = J ∖ ↑(J(a) ∖ J(b)), and a←b is
that rule in the order dual, on the meet-irreducibles. So a finite
distributive lattice is a Heyting and a co-Heyting algebra at once:
FiniteLattice itself carries →, ←, ¬, ∼ and ∂ as the tables
implies_table, minus_table, neg_table, conot_table and boundary_table,
and every caller reads them there.

enumerate_distributive_lattices lists the distributive lattices up to
MAX_ENUMERATION_SIZE elements through Birkhoff duality, as down-set
lattices of unlabelled posets of join-irreducibles. The down-sets are
the unions of the principal down-sets (bitsets.unions), the same
construction as the opens of a finite space from its preorder.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence

from .bitsets import closed_relation, iter_bits, subset_key, translate_table, transpose, unions
from .errors import (
    BiheytError,
    BoundExceeded,
    NotALattice,
    NotAPartialOrder,
    NotBounded,
    NotDistributive,
)


class FiniteLattice:
    """A finite bounded lattice on elements 0..n-1.

    Attributes:
        n: element count.
        up: up[i] = bitmask of elements j with i <= j (row of the closed order).
        down: down[i] = bitmask of elements j with j <= i.
        meet, join: n x n operation tables (tuples of tuples).
        bottom, top: the global bounds.
        subsets: optional back-references; when the lattice is a lattice of
            point-subsets (opens, closeds, spectra), subsets[i] is the mask
            of points that element i stands for. Ignored by equality.
    """

    def __init__(self, n, up, down, meet, join, bottom, top, subsets=None):
        self.n = n
        self.up = up
        self.down = down
        self.meet = meet
        self.join = join
        self.bottom = bottom
        self.top = top
        self.subsets = subsets
        self._byte_rows = {}

    def leq(self, a: int, b: int) -> bool:
        return bool((self.up[a] >> b) & 1)

    def __eq__(self, other):
        if not isinstance(other, FiniteLattice):
            return NotImplemented
        return self.n == other.n and self.up == other.up

    def __hash__(self):
        return hash((self.n, self.up))

    def __repr__(self):
        return f"FiniteLattice(n={self.n}, covers={cover_pairs(self)})"

    def _join_of(self, mask: int) -> int:
        """⋁ of the elements in the mask; ⊥ for the empty mask."""
        join, acc = self.join, self.bottom
        for x in iter_bits(mask):
            acc = join[acc][x]
        return acc

    @cached_property
    def join_irreducibles(self) -> tuple[int, ...]:
        """Elements other than ⊥ that are not the join of the elements
        below them, in index order."""
        return tuple(j for j in range(self.n)
                     if j != self.bottom and self._join_of(self.down[j] & ~(1 << j)) != j)

    @cached_property
    def join_primes(self) -> tuple[int, ...]:
        """The join-irreducibles j with j ≰ ⋁{x | j ≰ x}, in index order."""
        full = (1 << self.n) - 1
        return tuple(j for j in self.join_irreducibles
                     if not self.leq(j, self._join_of(full & ~self.up[j])))

    @cached_property
    def hom_shape(self) -> tuple[tuple[tuple[bool, tuple[int, ...], tuple[int, ...]], ...],
                                 Optional[bytes]]:
        """What quotient.enumerate_homs reads of the lattice as the target
        of homs. First, for each join-irreducible point q in index order,
        whether it is join-prime, the earlier points below it and the
        earlier points above it. Then joins, the translate table sending
        each set S of points, as a mask, to ⋁S; it is None above 8 points,
        where the masks are not bytes (with at most 8 join-irreducibles a
        lattice has at most 256 elements)."""
        points = self.join_irreducibles
        primes = set(self.join_primes)
        shape = tuple((j in primes,
                       tuple(p for p in range(q) if self.leq(points[p], j)),
                       tuple(p for p in range(q) if self.leq(j, points[p])))
                      for q, j in enumerate(points))
        if len(points) > 8:
            return shape, None
        joins = bytearray(256)
        joins[0] = self.bottom
        for s in range(1, 1 << len(points)):
            low = s & -s
            joins[s] = self.join[joins[s ^ low]][points[low.bit_length() - 1]]
        return shape, bytes(joins)

    @cached_property
    def hom_images(self) -> tuple[int, int, tuple[int, ...]]:
        """What quotient.enumerate_homs reads of the lattice as the source
        of homs: the mask of its join-irreducibles, the mask of every
        element but ⊥, and each up[v] spread into bytes, byte a of
        spread[v] being 1 when v ≤ a."""
        spread = tuple(int.from_bytes(bytes((row >> a) & 1 for a in range(self.n)), "little")
                       for row in self.up)
        return (sum(1 << j for j in self.join_irreducibles),
                ((1 << self.n) - 1) & ~(1 << self.bottom), spread)

    def byte_rows(self, tables: tuple[str, ...]) -> tuple[bytes, tuple[tuple[bytes, ...], ...]]:
        """The named tables (meet, join, implies_table or minus_table) as
        bytes for bytes.translate, memoized like the tables; needs
        n ≤ 256. First every row of every table concatenated, so byte
        t·n² + a·n + b is tables[t][a][b]; then, per table, each row a as
        a bitsets.translate_table, sending b to table[a][b] and every
        byte from n up to itself."""
        rows = self._byte_rows.get(tables)
        if rows is None:
            plain = [tuple(map(bytes, getattr(self, table))) for table in tables]
            rows = self._byte_rows[tables] = (
                b"".join(b"".join(table) for table in plain),
                tuple(tuple(map(translate_table, table)) for table in plain))
        return rows

    @cached_property
    def distributive_failure(self) -> Optional[tuple[int, int, int]]:
        """First triple violating a∧(b∨c) = (a∧b)∨(a∧c), or None.

        A finite lattice is distributive iff its join-irreducibles are all
        join-prime, so the triples are scanned only to name the witness."""
        if len(self.join_primes) == len(self.join_irreducibles):
            return None
        meet, join = self.meet, self.join
        rng = range(self.n)
        for a in rng:
            ma = meet[a]
            for b in rng:
                ab = ma[b]
                for c in rng:
                    if ma[join[b][c]] != join[ab][ma[c]]:
                        return (a, b, c)
        return None

    def require_distributive(self):
        bad = self.distributive_failure
        if bad is not None:
            raise NotDistributive(*bad)

    @cached_property
    def implies_table(self) -> tuple[tuple[int, ...], ...]:
        """implies[a][b] = ⋁{x | a∧x ≤ b}. Requires distributivity."""
        self.require_distributive()
        return _residuals(self)

    @cached_property
    def minus_table(self) -> tuple[tuple[int, ...], ...]:
        """minus[a][b] = ⋀{x | a ≤ b∨x}: b → a in the order dual, where ∧
        and ∨, ≤ and ≥, ⊥ and ⊤ swap. Requires distributivity."""
        self.require_distributive()
        return tuple(zip(*_residuals(dualize(self))))

    @cached_property
    def neg_table(self) -> tuple[int, ...]:
        imp = self.implies_table
        return tuple(imp[a][self.bottom] for a in range(self.n))

    @cached_property
    def conot_table(self) -> tuple[int, ...]:
        minus = self.minus_table
        return tuple(minus[self.top][a] for a in range(self.n))

    @cached_property
    def boundary_table(self) -> tuple[int, ...]:
        conot = self.conot_table
        return tuple(self.meet[a][conot[a]] for a in range(self.n))


def _residuals(lat: FiniteLattice) -> tuple[tuple[int, ...], ...]:
    """t[a][b] = a→b: the x with J(x) = J ∖ ↑(J(a) ∖ J(b)), found once per
    gap J(a) ∖ J(b)."""
    irr = sum(1 << j for j in lat.join_irreducibles)
    below = [d & irr for d in lat.down]
    element = {s: x for x, s in enumerate(below)}
    memo: dict[int, int] = {}

    def implies(gap: int) -> int:
        if gap not in memo:
            upper, rest = 0, gap
            while rest:  # iter_bits inlined: this loop is most of the cost of a table
                upper |= lat.up[(rest & -rest).bit_length() - 1]
                rest &= rest - 1
            memo[gap] = element[irr & ~upper]
        return memo[gap]

    return tuple(tuple([implies(ja & ~jb) for jb in below]) for ja in below)


def _lattice_from_rows(up: Sequence[int], subsets=None) -> FiniteLattice:
    """Build a lattice from closed order rows; raises if not one."""
    n = len(up)
    if n == 0:
        raise NotBounded("empty carrier has no bottom or top")
    full = (1 << n) - 1
    down = transpose(up, n)
    for i in range(n):
        if not (up[i] >> i) & 1:
            raise NotAPartialOrder(i, i)
        twins = up[i] & down[i] & ~(1 << i)
        if twins:
            raise NotAPartialOrder(i, (twins & -twins).bit_length() - 1)
    up_index = {up[i]: i for i in range(n)}
    down_index = {down[i]: i for i in range(n)}
    join = []
    meet = []
    for a in range(n):
        jrow = []
        mrow = []
        for b in range(n):
            common_up = up[a] & up[b]
            j = up_index.get(common_up)
            if j is None:
                raise NotALattice(a, b, "join")
            jrow.append(j)
            common_down = down[a] & down[b]
            m = down_index.get(common_down)
            if m is None:
                raise NotALattice(a, b, "meet")
            mrow.append(m)
        join.append(tuple(jrow))
        meet.append(tuple(mrow))

    bottom = up_index.get(full)
    top = down_index.get(full)
    if bottom is None or top is None:
        raise NotBounded("no global bottom or top")
    return FiniteLattice(
        n, tuple(up), tuple(down), tuple(meet), tuple(join), bottom, top, subsets
    )


def build_lattice(n: int, leq_pairs) -> FiniteLattice:
    """Construct the lattice whose order is the reflexive-transitive
    closure of the given pairs (i, j) meaning i <= j."""
    return _lattice_from_rows(closed_relation(n, leq_pairs))


def lattice_of_subsets(family: Sequence[int]) -> FiniteLattice:
    """Lattice of an inclusion-ordered family of subset masks.

    The family must already be canonically sorted and closed under the
    meets/joins it is supposed to have (callers: open/closed set
    lattices, spectra)."""
    n = len(family)
    up = []
    for i in range(n):
        row = 0
        for j in range(n):
            if family[i] & ~family[j] == 0:
                row |= 1 << j
        up.append(row)
    return _lattice_from_rows(up, subsets=tuple(family))


def chain(n: int) -> FiniteLattice:
    """The n-element chain 0 < 1 < ... < n-1."""
    return build_lattice(n, [(i, i + 1) for i in range(n - 1)])


def dualize(lat: FiniteLattice) -> FiniteLattice:
    """Same carrier with the opposite order: meets and joins swap,
    bottom and top swap. Involution."""
    return FiniteLattice(
        lat.n, lat.down, lat.up, lat.join, lat.meet, lat.top, lat.bottom
    )


def is_boolean(lat: FiniteLattice) -> bool:
    """True iff every element has a complement. Refuses non-distributive
    input, where complements need not be unique."""
    lat.require_distributive()
    meet, join = lat.meet, lat.join
    return all(any(meet[a][x] == lat.bottom and join[a][x] == lat.top for x in range(lat.n))
               for a in range(lat.n))


def cover_pairs(lat: FiniteLattice) -> list[tuple[int, int]]:
    """Hasse edges (i, j): i < j with nothing strictly between."""
    out = []
    for i in range(lat.n):
        for j in iter_bits(lat.up[i]):
            if j != i and lat.up[i] & lat.down[j] == (1 << i) | (1 << j):
                out.append((i, j))
    return out


# ---------------------------------------------------------------------------
# Distributive lattices via Birkhoff duality: a finite distributive
# lattice is the lattice of down-sets of its poset of join-irreducibles,
# and non-isomorphic posets give non-isomorphic lattices. So the lattices
# are enumerated by growing unlabelled posets, one canonical form each.

# Largest size enumerate_distributive_lattices accepts. spectrum.spectrum
# reads the same cap, so every enumerated lattice has a spectrum.
MAX_ENUMERATION_SIZE = 16


def _downsets(up_rows: Sequence[int]) -> set[int]:
    """All down-closed subsets of the poset with rows up[i] = {j | i <= j}:
    the unions of its principal down-sets."""
    return unions(transpose(up_rows, len(up_rows)))


def _lex_min_form(
    up_rows: Sequence[int], sizes: Sequence[int] = ()
) -> tuple[tuple[int, ...], int]:
    """Canonical form of a poset whose elements may carry sizes (all 1
    when sizes is empty): a labelling gives element x a block of
    sizes[x] consecutive point labels, and each of its points the union
    of the blocks of x's up-set as its row. The form is the least tuple
    of point rows over all labellings, so the least preorder in row
    order with these clusters; also the number of labellings that give
    it, the order of the automorphism group of the poset with its sizes.

    Blocks go out top-down. The block from label p can only go to an
    element whose strict upper bounds all hold blocks: any other one's
    row holds p and every point of a maximal unlabelled element above
    it, which would take the block with a smaller row. Of those that
    can take it the least row wins, and only ties branch, so every
    labelling with the least rows is reached. Tied rows agree from bit p
    on, so tied elements share their size and strict up-set. Two of them
    with the same strict down-set as well are twins: swapping them is an
    automorphism that fixes every labelled element, so a tie branches
    once per twin group, weighted by the group's size (McKay 1981). The
    strict down-sets are worked out at the first tie, so a poset without
    ties never needs them."""
    k = len(up_rows)
    size = sizes or (1,) * k
    above = [up_rows[x] & ~(1 << x) for x in range(k)]
    below: list[int] = []
    block = [0] * k
    rows: list[int] = []
    best: Optional[tuple[int, ...]] = None
    count = 0

    def extend(done: int, weight: int) -> None:
        nonlocal best, count
        p = len(rows)
        if done == (1 << k) - 1:
            form = tuple(rows)
            if best is None or form < best:
                best, count = form, weight
            elif form == best:
                count += weight
            return
        least, ties = None, []
        for x in range(k):
            if (done >> x) & 1 or above[x] & ~done:
                continue
            row = ((1 << size[x]) - 1) << p
            for y in iter_bits(above[x]):
                row |= block[y]
            if least is None or row < least:
                least, ties = row, [x]
            elif row == least:
                ties.append(x)
        rows.extend([least] * size[ties[0]])
        groups = [ties]
        if len(ties) > 1:
            if not below:
                below.extend(transpose(above, k))
            twins: dict[int, list[int]] = {}
            for x in ties:
                twins.setdefault(below[x], []).append(x)
            groups = twins.values()
        for group in groups:
            x = group[0]
            block[x] = least >> p << p
            extend(done | 1 << x, weight * len(group))
        del rows[p:]

    extend(0, 1)
    return best, count


def enumerate_distributive_lattices(max_size: int) -> list[FiniteLattice]:
    """Every bounded distributive lattice with at most max_size elements,
    one representative per isomorphism class.

    Each lattice is built as the down-set lattice of its poset of
    join-irreducibles. The posets with k points are grown from those
    with k-1: a new minimal element goes below any up-set of the parent
    (the complement of a down-set). A child is dropped once it has more
    than max_size down-sets, since adding points never lowers that
    count, and children are deduplicated by their least row tuple over
    all labellings. Lattices come out by k, and within k by that tuple,
    which is the order in which a scan of all labelled posets in
    lexicographic row order first meets each class.

    Raises BiheytError for an empty range (max_size < 1), which would
    hold every claim vacuously, and BoundExceeded above
    MAX_ENUMERATION_SIZE.
    """
    if max_size < 1:
        raise BiheytError(f"lattice size range 1..{max_size} is empty")
    if max_size > MAX_ENUMERATION_SIZE:
        raise BoundExceeded("lattice size", max_size, MAX_ENUMERATION_SIZE)
    out = []
    level: list[tuple[int, ...]] = [()]
    for k in range(max_size):
        grown = set()
        for rows in level:
            downs = _downsets(rows)
            out.append(lattice_of_subsets(sorted(downs, key=subset_key)))
            for kept in downs:
                above = ((1 << k) - 1) & ~kept
                if len(downs) + sum(1 for d in downs if not d & above) <= max_size:
                    grown.add(_lex_min_form(rows + ((1 << k) | above,))[0])
        level = sorted(grown)
    return out
