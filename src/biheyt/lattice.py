"""Finite bounded lattices and their Heyting / co-Heyting operations.

Elements are dense indices 0..n-1. The order relation is stored closed
(full reflexive-transitive relation) as bitmask rows, so order queries
are O(1) and candidate scans for residuals are O(n). Operation tables
are memoized lazily via cached_property; the computations are pure and
idempotent, so concurrent first use is harmless.

A lattice is distributive iff a∧(b∨c) = (a∧b)∨(a∧c) for all triples;
the Heyting implication a→b = ⋁{x | a∧x ≤ b} and the co-Heyting
subtraction a←b = ⋀{x | a ≤ b∨x} are only well behaved (residuation /
co-residuation) on distributive lattices, so both refuse otherwise.
A finite distributive lattice is therefore a Heyting and a co-Heyting
algebra at once: FiniteLattice itself carries →, ←, ¬, ∼ and ∂ as the
tables implies_table, minus_table, neg_table, conot_table and
boundary_table, and every caller reads them there.

enumerate_distributive_lattices lists the distributive lattices up to
MAX_ENUMERATION_SIZE elements through Birkhoff duality, as down-set
lattices of unlabelled posets of join-irreducibles. The down-sets are
the unions of the principal down-sets (bitsets.unions), the same
construction as the opens of a finite space from its preorder.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence

from .bitsets import closed_relation, iter_bits, subset_key, unions
from .errors import (
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

    @cached_property
    def distributive_failure(self) -> Optional[tuple[int, int, int]]:
        """First triple violating a∧(b∨c) = (a∧b)∨(a∧c), or None."""
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
        meet, join, down = self.meet, self.join, self.down
        table = []
        for a in range(self.n):
            ma = meet[a]
            row = []
            for b in range(self.n):
                db = down[b]
                acc = self.bottom
                for x in range(self.n):
                    if (db >> ma[x]) & 1:
                        acc = join[acc][x]
                row.append(acc)
            table.append(tuple(row))
        return tuple(table)

    @cached_property
    def minus_table(self) -> tuple[tuple[int, ...], ...]:
        """minus[a][b] = ⋀{x | a ≤ b∨x}. Requires distributivity."""
        self.require_distributive()
        meet, join = self.meet, self.join
        table = []
        for a in range(self.n):
            ua = self.up[a]
            row = []
            for b in range(self.n):
                jb = join[b]
                acc = self.top
                for x in range(self.n):
                    if (ua >> jb[x]) & 1:  # a <= b∨x
                        acc = meet[acc][x]
                row.append(acc)
            table.append(tuple(row))
        return tuple(table)

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


def _lattice_from_rows(up: Sequence[int], subsets=None) -> FiniteLattice:
    """Build a lattice from closed order rows; raises if not one."""
    n = len(up)
    if n == 0:
        raise NotBounded("empty carrier has no bottom or top")
    full = (1 << n) - 1
    for i in range(n):
        if not (up[i] >> i) & 1:
            raise NotAPartialOrder(i, i)
        for j in iter_bits(up[i]):
            if j != i and (up[j] >> i) & 1:
                raise NotAPartialOrder(i, j)
            if up[j] & ~up[i]:
                raise ValueError("order rows are not transitively closed")
    down = [0] * n
    for i in range(n):
        for j in iter_bits(up[i]):
            down[j] |= 1 << i

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


def check_distributive(lat: FiniteLattice) -> bool:
    return lat.distributive_failure is None


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
    for a in range(lat.n):
        if not any(
            lat.meet[a][x] == lat.bottom and lat.join[a][x] == lat.top
            for x in range(lat.n)
        ):
            return False
    return True


def cover_pairs(lat: FiniteLattice) -> list[tuple[int, int]]:
    """Hasse edges (i, j): i < j with nothing strictly between."""
    out = []
    for i in range(lat.n):
        for j in iter_bits(lat.up[i]):
            if j != i and lat.up[i] & lat.down[j] == (1 << i) | (1 << j):
                out.append((i, j))
    out.sort()
    return out


# ---------------------------------------------------------------------------
# Distributive lattices via Birkhoff duality: a finite distributive
# lattice is the lattice of down-sets of its poset of join-irreducibles,
# and non-isomorphic posets give non-isomorphic lattices. So the lattices
# are enumerated by growing unlabelled posets, one canonical form each.

# Largest size enumerate_distributive_lattices accepts. The default
# spectrum bound is the same value, so every enumerated lattice has a
# spectrum.
MAX_ENUMERATION_SIZE = 12


def _downsets(up_rows: Sequence[int]) -> set[int]:
    """All down-closed subsets of the poset with rows up[i] = {j | i <= j}:
    the unions of its principal down-sets."""
    down = [0] * len(up_rows)
    for i, row in enumerate(up_rows):
        for j in iter_bits(row):
            down[j] |= 1 << i
    return unions(down)


def _lex_min_rows(up_rows: Sequence[int]) -> tuple[int, ...]:
    """Canonical form of a poset: its least row tuple over all labellings."""
    return _lex_min_form(up_rows)[0]


def _lex_min_form(
    up_rows: Sequence[int], sizes: Sequence[int] = ()
) -> tuple[tuple[int, ...], int]:
    """Canonical form of a poset whose elements may carry sizes: the
    least row tuple over all labellings, then, among the labellings that
    reach it, the least tuple of sizes in label order. Also the number
    of labellings that give this form, which is the order of the
    automorphism group (of the poset with its sizes).

    Labels are handed out top-down. Label i can only go to an element
    whose strict upper bounds all hold labels already: any other
    element's row has a bit above i, so it is at least 2^(i+1), while
    the rows of those elements are below that. Among them the least row
    wins, and only ties branch, so every labelling with the least rows
    is reached."""
    k = len(up_rows)
    above = [up_rows[x] & ~(1 << x) for x in range(k)]
    label = [0] * k
    rows: list[int] = []
    order: list[int] = []  # order[i] = the element holding label i
    best: Optional[tuple[int, ...]] = None
    count = 0

    def extend(done: int) -> None:
        nonlocal best, count
        i = len(rows)
        if i == k:
            form = (*rows, *(sizes[x] for x in order)) if sizes else tuple(rows)
            if best is None or form < best:
                best, count = form, 1
            elif form == best:
                count += 1
            return
        least, ties = None, []
        for x in range(k):
            if (done >> x) & 1 or above[x] & ~done:
                continue
            row = 1 << i
            for y in iter_bits(above[x]):
                row |= 1 << label[y]
            if least is None or row < least:
                least, ties = row, [x]
            elif row == least:
                ties.append(x)
        rows.append(least)
        for x in ties:
            label[x] = i
            order.append(x)
            extend(done | 1 << x)
            order.pop()
        rows.pop()

    extend(0)
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
    lexicographic row order first meets each class. On max_size-1 points
    only the chain fits; it is labelled bottom-up, 0 < 1 < ... .

    Raises BoundExceeded above MAX_ENUMERATION_SIZE.
    """
    if max_size < 1:
        return []
    if max_size > MAX_ENUMERATION_SIZE:
        raise BoundExceeded("lattice size", max_size, MAX_ENUMERATION_SIZE)
    out = []
    level: list[tuple[int, ...]] = [()]
    for k in range(max_size):
        if k == max_size - 1 and k >= 1:
            level = [tuple(((1 << k) - 1) & ~((1 << i) - 1) for i in range(k))]
        grown = set()
        for rows in level:
            downs = _downsets(rows)
            out.append(lattice_of_subsets(sorted(downs, key=subset_key)))
            for kept in downs:
                above = ((1 << k) - 1) & ~kept
                if len(downs) + sum(1 for d in downs if not d & above) <= max_size:
                    grown.add(_lex_min_rows(rows + ((1 << k) | above,)))
        level = sorted(grown)
    return out
