"""The lattice checks that join-primality, congruence-first quotients,
Birkhoff residuals and the one-join prime test replaced, kept as
references for the differential tests in test_lattice.py,
test_quotient.py and test_spectrum.py.

reference_lattice_from_rows walks every comparable pair of the order
rows, testing antisymmetry and transitivity, before it builds the
tables. reference_distributive_failure scans every triple.
reference_quotient rebuilds the block lattice with
reference_lattice_from_rows and cross-checks every projected meet and
join against it, pair by pair. reference_residuals folds
⋁{x | a∧x ≤ b} over all x for each pair, and reference_is_prime_filter
tests a∨b ∈ F ⇒ a ∈ F or b ∈ F on every pair.
"""

from biheyt.bitsets import iter_bits, transpose
from biheyt.errors import NotACongruence, NotALattice, NotAPartialOrder, NotBounded
from biheyt.lattice import FiniteLattice
from biheyt.quotient import check_hom


def reference_lattice_from_rows(up, subsets=None) -> FiniteLattice:
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
    down = transpose(up, n)
    up_index = {up[i]: i for i in range(n)}
    down_index = {down[i]: i for i in range(n)}
    join = []
    meet = []
    for a in range(n):
        jrow = []
        mrow = []
        for b in range(n):
            j = up_index.get(up[a] & up[b])
            if j is None:
                raise NotALattice(a, b, "join")
            jrow.append(j)
            m = down_index.get(down[a] & down[b])
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


def reference_distributive_failure(lat: FiniteLattice):
    """First triple violating a∧(b∨c) = (a∧b)∨(a∧c), or None."""
    meet, join = lat.meet, lat.join
    for a in range(lat.n):
        for b in range(lat.n):
            for c in range(lat.n):
                if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]:
                    return (a, b, c)
    return None


def reference_quotient(lat: FiniteLattice, cong):
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
    q = reference_lattice_from_rows(up)
    for a in range(lat.n):
        for b in range(lat.n):
            ba, bb = block_of[a], block_of[b]
            if block_of[lat.meet[a][b]] != q.meet[ba][bb]:
                raise NotACongruence("meet", (a, b))
            if block_of[lat.join[a][b]] != q.join[ba][bb]:
                raise NotACongruence("join", (a, b))
    proj = check_hom(block_of, lat, q, "lattice")
    assert proj.surjective
    return q, proj


def reference_residuals(n, meet, join, down, bottom):
    """t[a][b] = ⋁{x | a∧x ≤ b} from the given tables, order rows and ⊥.
    The arguments of the order dual (join, meet, up, top) give b ← a."""
    table = []
    for a in range(n):
        ma = meet[a]
        row = []
        for b in range(n):
            db = down[b]
            acc = bottom
            for x in range(n):
                if (db >> ma[x]) & 1:
                    acc = join[acc][x]
            row.append(acc)
        table.append(tuple(row))
    return tuple(table)


def reference_is_prime_filter(lat: FiniteLattice, members: int) -> bool:
    """a∨b ∈ F forces a ∈ F or b ∈ F, over every pair."""
    for a in range(lat.n):
        for b in range(lat.n):
            if (members >> lat.join[a][b]) & 1 and not (
                (members >> a) & 1 or (members >> b) & 1
            ):
                return False
    return True
