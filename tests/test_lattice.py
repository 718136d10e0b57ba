import pytest

from biheyt import (
    BiheytError,
    NotALattice,
    NotAPartialOrder,
    NotBounded,
    NotDistributive,
    build_lattice,
    chain,
    cover_pairs,
    dualize,
    is_boolean,
    lattice_of_subsets,
)
from biheyt.bitsets import iter_bits, subset_key
from biheyt.lattice import _lattice_from_rows
from biheyt.topology import enumerate_preorders
from reference_lattice import (
    reference_distributive_failure,
    reference_lattice_from_rows,
    reference_residuals,
)


def leq_set(lat):
    return {(a, b) for a in range(lat.n) for b in range(lat.n) if lat.leq(a, b)}


# -- constructors ------------------------------------------------------------


def test_one_element_lattice():
    one = build_lattice(1, [])
    assert one.bottom == one.top == 0
    assert one.meet[0][0] == one.join[0][0] == 0
    assert one.distributive_failure is None and is_boolean(one)
    assert one.implies_table[0][0] == 0
    assert one.minus_table[0][0] == 0


def test_chain_is_min_max():
    c = chain(3)
    # oracle: on a chain, meet is pairwise min and join pairwise max
    for a in range(3):
        for b in range(3):
            assert c.meet[a][b] == min(a, b)
            assert c.join[a][b] == max(a, b)
    assert c.bottom == 0 and c.top == 2
    assert leq_set(c) == {(a, b) for a in range(3) for b in range(3) if a <= b}


def test_unrelated_pair_is_not_a_lattice():
    # oracle: elements 1 and 2 have no common upper bound among 0..3
    pairs = [(0, 1), (0, 2)]
    above = {x: {x} for x in range(4)}
    for a, b in pairs:
        above[a].add(b)
    common = {x for x in range(4) if x in above[1] and x in above[2]}
    assert common == set()
    with pytest.raises(NotALattice):
        build_lattice(4, pairs)


def test_antisymmetry_violation():
    with pytest.raises(NotAPartialOrder):
        build_lattice(2, [(0, 1), (1, 0)])


def test_empty_carrier_is_not_bounded():
    with pytest.raises(NotBounded):
        build_lattice(0, [])


def test_pairs_out_of_range():
    with pytest.raises(ValueError):
        build_lattice(2, [(0, 5)])


def test_transitive_closure_of_arbitrary_pairs():
    direct = build_lattice(4, [(0, 1), (1, 2), (2, 3)])
    redundant = build_lattice(4, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)])
    assert direct == redundant
    assert cover_pairs(direct) == [(0, 1), (1, 2), (2, 3)]


# -- distributivity ----------------------------------------------------------


def test_chains_are_distributive():
    for n in range(1, 6):
        assert chain(n).distributive_failure is None


def test_m3_is_not_distributive(m3_diamond):
    # oracle: exhaustive triple check on the five elements, sets-of-ints
    below = {0: {0}, 1: {0, 1}, 2: {0, 2}, 3: {0, 3}, 4: {0, 1, 2, 3, 4}}

    def meet(a, b):
        both = below[a] & below[b]
        return max(both, key=lambda x: len(below[x]))

    def join(a, b):
        above = [x for x in range(5) if a in below[x] and b in below[x]]
        return min(above, key=lambda x: len(below[x]))

    found = [
        (a, b, c)
        for a in range(5)
        for b in range(5)
        for c in range(5)
        if meet(a, join(b, c)) != join(meet(a, b), meet(a, c))
    ]
    assert found
    assert m3_diamond.distributive_failure is not None
    assert m3_diamond.distributive_failure in found


def test_open_set_lattices_are_distributive(spaces_3):
    from biheyt import open_lattice

    for sp in spaces_3:
        assert open_lattice(sp).distributive_failure is None


def test_heyting_refused_on_m3(m3_diamond):
    with pytest.raises(NotDistributive):
        m3_diamond.implies_table[1][2]
    with pytest.raises(NotDistributive):
        m3_diamond.minus_table[1][2]
    with pytest.raises(NotDistributive):
        is_boolean(m3_diamond)


# -- residuals ---------------------------------------------------------------


def greatest_x_with_meet_below(lat, a, b):
    """Independent oracle: maximum of {x | a∧x ≤ b} under the order."""
    candidates = [x for x in range(lat.n) if lat.leq(lat.meet[a][x], b)]
    tops = [x for x in candidates if all(lat.leq(y, x) for y in candidates)]
    return tops[0] if tops else None


def least_x_with_join_above(lat, a, b):
    candidates = [x for x in range(lat.n) if lat.leq(a, lat.join[b][x])]
    bottoms = [x for x in candidates if all(lat.leq(x, y) for y in candidates)]
    return bottoms[0] if bottoms else None


def test_implies_against_max_candidate_oracle(lattices_6):
    for lat in lattices_6:
        for a in range(lat.n):
            for b in range(lat.n):
                assert lat.implies_table[a][b] == greatest_x_with_meet_below(lat, a, b)
                assert lat.minus_table[a][b] == least_x_with_join_above(lat, a, b)


def test_implies_top_iff_leq(lattices_6):
    for lat in lattices_6:
        for a in range(lat.n):
            for b in range(lat.n):
                assert (lat.implies_table[a][b] == lat.top) == lat.leq(a, b)


def test_implies_examples(chain3):
    assert chain3.implies_table[1][0] == 0
    for b in range(3):
        assert chain3.implies_table[0][b] == chain3.top
    assert chain3.neg_table[0] == 2
    assert chain3.neg_table[1] == 0
    assert chain3.neg_table[chain3.neg_table[1]] == 2  # ¬¬m = ⊤ ≠ m


def test_boolean_two_chain_double_negation():
    two = chain(2)
    for a in range(2):
        assert two.neg_table[two.neg_table[a]] == a


def test_residuation_invariant(lattices_6):
    for lat in lattices_6:
        for a in range(lat.n):
            for b in range(lat.n):
                for x in range(lat.n):
                    assert lat.leq(lat.meet[a][x], b) == lat.leq(
                        x, lat.implies_table[a][b]
                    )
                    assert lat.leq(lat.minus_table[a][b], x) == lat.leq(
                        a, lat.join[b][x]
                    )


def test_double_negation_bounds(lattices_6):
    for lat in lattices_6:
        for a in range(lat.n):
            assert lat.leq(a, lat.neg_table[lat.neg_table[a]])
            assert lat.leq(lat.conot_table[lat.conot_table[a]], a)


def test_conot_is_least_complementing_join(lattices_6):
    for lat in lattices_6:
        for a in range(lat.n):
            c = lat.conot_table[a]
            assert lat.join[a][c] == lat.top
            for x in range(lat.n):
                if lat.join[a][x] == lat.top:
                    assert lat.leq(c, x)


# -- co-Heyting on closed sets ----------------------------------------------


def test_closed_set_subtraction_example():
    # closeds of the space with opens ∅,{0},{0,1},X
    closeds = sorted([0b000, 0b100, 0b110, 0b111], key=subset_key)
    lat = lattice_of_subsets(closeds)
    idx = {s: i for i, s in enumerate(lat.subsets)}
    bc, c, full = idx[0b110], idx[0b100], idx[0b111]
    # oracle: cl({1}) computed set-wise = smallest closed superset of {0b010}
    supersets = [s for s in closeds if 0b010 & ~s == 0]
    cl_b = min(supersets, key=subset_key)
    assert cl_b == 0b110
    assert lat.subsets[lat.minus_table[bc][c]] == cl_b
    assert lat.conot_table[bc] == full
    assert lat.boundary_table[bc] == bc
    assert lat.conot_table[full] == idx[0]
    assert lat.boundary_table[full] == idx[0]
    # minus(a, bottom) = a and minus(bottom, b) = bottom
    for a in range(lat.n):
        assert lat.minus_table[a][idx[0]] == a
        assert lat.minus_table[idx[0]][a] == idx[0]
        assert lat.minus_table[a][a] == idx[0]


def test_boolean_boundary_trivial(boolean4):
    for a in range(4):
        assert boolean4.boundary_table[a] == boolean4.bottom


# -- dualize -----------------------------------------------------------------


def test_dualize_involution(lattices_6):
    for lat in lattices_6:
        assert dualize(dualize(lat)) == lat


def test_dualize_chain(chain3):
    d = dualize(chain3)
    assert d.bottom == 2 and d.top == 0
    assert leq_set(d) == {(a, b) for a in range(3) for b in range(3) if a >= b}


def test_dual_tables_transpose_residuals(lattices_6):
    # order reversal swaps the residual's argument pair:
    # minus on the dual at (a, b) equals implies on the original at (b, a)
    for lat in lattices_6:
        d = dualize(lat)
        for a in range(lat.n):
            for b in range(lat.n):
                assert d.minus_table[a][b] == lat.implies_table[b][a]
                assert d.implies_table[a][b] == lat.minus_table[b][a]
            assert d.conot_table[a] == lat.neg_table[a]


# -- boolean test ------------------------------------------------------------


def test_is_boolean_examples(chain3, boolean4):
    assert is_boolean(chain(2))
    # oracle: the middle of the 3-chain has no complement
    complements = [
        x for x in range(3) if chain3.meet[1][x] == 0 and chain3.join[1][x] == 2
    ]
    assert complements == []
    assert not is_boolean(chain3)
    assert is_boolean(boolean4)


def test_boolean_criterion_three_ways(lattices_7):
    from biheyt import boolean_iff_trivial_boundary

    for lat in lattices_7:
        crit = boolean_iff_trivial_boundary(lat)
        assert crit.consistent


# -- algebraic laws hold by construction -------------------------------------


def test_meet_join_laws(lattices_6):
    for lat in lattices_6:
        rng = range(lat.n)
        for a in rng:
            assert lat.meet[a][a] == a and lat.join[a][a] == a
            assert lat.leq(lat.bottom, a) and lat.leq(a, lat.top)
            for b in rng:
                assert lat.meet[a][b] == lat.meet[b][a]
                assert lat.join[a][b] == lat.join[b][a]
                assert lat.meet[a][lat.join[a][b]] == a  # absorption
                assert lat.join[a][lat.meet[a][b]] == a
                for c in rng:
                    assert lat.meet[lat.meet[a][b]][c] == lat.meet[a][lat.meet[b][c]]
                    assert lat.join[lat.join[a][b]][c] == lat.join[a][lat.join[b][c]]


# -- enumeration -------------------------------------------------------------


def labelled_posets(m):
    """Every partial order on 0..m-1 as rows up[i] = {j | i <= j}, in
    lexicographic row order. Each row is checked against the rows before
    it for transitivity and antisymmetry as soon as it is placed."""
    rows = []

    def fits(i, ri):
        for j, rj in enumerate(rows):
            if (ri >> j) & 1 and (rj & ~ri or (rj >> i) & 1):
                return False
            if (rj >> i) & 1 and ri & ~rj:
                return False
        return True

    def assign(i):
        if i == m:
            yield tuple(rows)
            return
        for mask in range(1 << m):
            if (mask >> i) & 1 and fits(i, mask):
                rows.append(mask)
                yield from assign(i + 1)
                rows.pop()

    return assign(0)


def test_labelled_posets_counts():
    # labelled posets, OEIS A001035
    assert [sum(1 for _ in labelled_posets(m)) for m in range(6)] == [1, 1, 3, 19, 219, 4231]


def canonical_poset_key(rows):
    """Brute-force canonical form of a labeled poset (min over all
    permutations), independent of the library's certificate."""
    from itertools import permutations

    n = len(rows)
    best = None
    for perm in permutations(range(n)):
        key = tuple(
            sorted(
                (perm[i], perm[j])
                for i in range(n)
                for j in range(n)
                if (rows[i] >> j) & 1
            )
        )
        if best is None or key < best:
            best = key
    return best


def test_enumeration_matches_bruteforce_up_to_size_4():
    """Oracle: scan all labeled posets on 4 points directly, keep the
    bounded distributive lattices, count isomorphism classes."""
    from biheyt import enumerate_distributive_lattices

    by_size = {}
    for n in range(1, 5):
        classes = set()
        for rows in labelled_posets(n):
            try:
                lat = build_lattice(n, [
                    (i, j)
                    for i in range(n)
                    for j in range(n)
                    if i != j and (rows[i] >> j) & 1
                ])
            except (NotALattice, NotBounded):
                continue
            if lat.distributive_failure is not None:
                continue
            classes.add(canonical_poset_key(lat.up))
        by_size[n] = len(classes)
    assert by_size == {1: 1, 2: 1, 3: 1, 4: 2}
    lats = enumerate_distributive_lattices(4)
    got = {}
    for lat in lats:
        got[lat.n] = got.get(lat.n, 0) + 1
    assert got == by_size


def test_enumeration_is_isomorphism_free(lattices_7):
    keys = [canonical_poset_key(lat.up) for lat in lattices_7]
    assert len(keys) == len(set(keys))
    assert all(lat.n <= 7 for lat in lattices_7)


def test_enumeration_bound():
    from biheyt import BoundExceeded, enumerate_distributive_lattices

    with pytest.raises(BoundExceeded):
        enumerate_distributive_lattices(17)
    assert len(enumerate_distributive_lattices(12)) == 342


# -- the labelled enumerator, kept as the reference -----------------------------


def labelled_downsets(up_rows, cap):
    """Down-closed subsets by a scan of all 2^k subsets, or None past cap."""
    k = len(up_rows)
    down = [0] * k
    for i in range(k):
        for j in iter_bits(up_rows[i]):
            down[j] |= 1 << i
    out = []
    for s in range(1 << k):
        if all(not down[j] & ~s for j in iter_bits(s)):
            out.append(s)
            if len(out) > cap:
                return None
    return out


def incomparable_pairs(up_rows):
    k = len(up_rows)
    return sum(
        1
        for i in range(k)
        for j in range(i + 1, k)
        if not ((up_rows[i] >> j) & 1 or (up_rows[j] >> i) & 1)
    )


def lattice_certificate(lat):
    """Isomorphism-invariant canonical form: relabel within classes of
    the (|down|, |up|) profile, minimizing the relabeled order rows."""
    from itertools import permutations, product

    n = lat.n
    profile = [(lat.down[i].bit_count(), lat.up[i].bit_count()) for i in range(n)]
    groups = {}
    for i in sorted(range(n), key=lambda i: profile[i]):
        groups.setdefault(profile[i], []).append(i)
    best = None
    for parts in product(*(permutations(g) for g in groups.values())):
        old_of_new = [old for part in parts for old in part]
        new_of_old = [0] * n
        for new, old in enumerate(old_of_new):
            new_of_old[old] = new
        cand = tuple(
            sum(1 << new_of_old[j] for j in iter_bits(lat.up[old]))
            for old in old_of_new
        )
        if best is None or cand < best:
            best = cand
    return (n, best)


def labelled_enumeration(max_size):
    """Reference enumerator: every labelled poset on k < max_size points
    in lexicographic row order, keeping the first of each lattice
    isomorphism class. On max_size-1 points only the chain fits."""
    seen = set()
    out = []
    for k in range(max_size):
        if k == max_size - 1 and k >= 1:
            rows_iter = [tuple(((1 << k) - 1) & ~((1 << i) - 1) for i in range(k))]
        else:
            rows_iter = labelled_posets(k)
        for rows in rows_iter:
            if k + 1 + incomparable_pairs(rows) > max_size:
                continue
            downs = labelled_downsets(rows, max_size)
            if downs is None:
                continue
            lat = lattice_of_subsets(sorted(downs, key=subset_key))
            cert = lattice_certificate(lat)
            if cert not in seen:
                seen.add(cert)
                out.append(lat)
    return out


@pytest.mark.parametrize("max_size", range(1, 9))
def test_enumeration_matches_labelled_reference(max_size):
    from biheyt import enumerate_distributive_lattices

    got = [lat.up for lat in enumerate_distributive_lattices(max_size)]
    assert got == [lat.up for lat in labelled_enumeration(max_size)]


def test_enumeration_counts_match_a006982():
    from biheyt import enumerate_distributive_lattices

    a006982 = [1, 1, 1, 2, 3, 5, 8, 15, 26, 47, 82, 151, 269, 494, 891, 1639]
    sizes = [lat.n for lat in enumerate_distributive_lattices(16)]
    assert [sizes.count(n) for n in range(1, 17)] == a006982
    assert len(sizes) == sum(a006982) == 3635


@pytest.mark.parametrize("max_size", [0, -3])
def test_enumeration_refuses_an_empty_range(max_size):
    """An empty list would pass every check over it vacuously."""
    from biheyt import enumerate_distributive_lattices

    with pytest.raises(BiheytError, match=rf"^lattice size range 1\.\.{max_size} is empty$"):
        enumerate_distributive_lattices(max_size)


def test_enumeration_contains_chains_and_booleans(lattices_6):
    keys = {canonical_poset_key(lat.up) for lat in lattices_6}
    for reference in [chain(4), chain(6), build_lattice(4, [(0, 1), (0, 2), (1, 3), (2, 3)])]:
        assert canonical_poset_key(reference.up) in keys


# -- each check against the loop it replaced ----------------------------------


def _build_outcome(build, rows):
    """The lattice build gives (its rows and tables), or its error's
    type, message and witness."""
    try:
        lat = build(rows)
    except BiheytError as exc:
        return type(exc), str(exc), vars(exc)
    return lat.up, lat.down, lat.meet, lat.join, lat.bottom, lat.top


def _preorder_lattices():
    lattices = []
    for points in range(1, 6):
        for pre in enumerate_preorders(points):
            try:
                lattices.append(_lattice_from_rows(pre.rel))
            except (NotAPartialOrder, NotALattice, NotBounded):
                pass
    return lattices


def test_lattice_from_rows_matches_the_transitivity_walk_on_every_preorder():
    """Closed rows need only the O(n) reflexivity and antisymmetry test:
    on every preorder of 1..5 points the build equals the loop that also
    walked every comparable pair for transitivity, error for error."""
    count = 0
    for points in range(1, 6):
        for pre in enumerate_preorders(points):
            assert (_build_outcome(_lattice_from_rows, pre.rel)
                    == _build_outcome(reference_lattice_from_rows, pre.rel)), pre
            count += 1
    assert count == 1 + 4 + 29 + 355 + 6942 == 7331


def test_distributivity_and_join_primes_match_their_definitions(m3_diamond):
    n5 = build_lattice(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])
    lattices = _preorder_lattices()
    assert len(lattices) == 425
    for lat in lattices + [m3_diamond, n5]:
        assert lat.distributive_failure == reference_distributive_failure(lat), lat
        primes = tuple(
            j for j in range(lat.n)
            if j != lat.bottom and all(
                lat.leq(j, a) or lat.leq(j, b)
                for a in range(lat.n) for b in range(lat.n)
                if lat.leq(j, lat.join[a][b])
            )
        )
        assert lat.join_primes == primes, lat
    assert (m3_diamond.join_primes, n5.join_primes) == ((), (1, 3))
    assert n5.distributive_failure is not None


def test_residual_tables_match_the_fold(lattices_6, spaces_4):
    """The Birkhoff closed forms of → and ← equal the ⋁{x | a∧x ≤ b} fold
    and its order dual on all 342 lattices up to 12 elements, on the
    distributive lattices of labelled preorders (where any index may be
    ⊥), on the opens and closeds of every space up to 4 points, and on
    every quotient by an ideal of a lattice up to 6 elements."""
    from biheyt import (
        closed_lattice,
        congruence_from_ideal,
        enumerate_distributive_lattices,
        ideals,
        open_lattice,
        quotient,
    )

    enumerated = enumerate_distributive_lattices(12)
    labelled = [lat for lat in _preorder_lattices() if lat.distributive_failure is None]
    spaces = [make(sp) for sp in spaces_4 for make in (open_lattice, closed_lattice)]
    quotients = [quotient(lat, congruence_from_ideal(lat, i))[0]
                 for lat in lattices_6 for i in ideals(lat)]
    assert (len(enumerated), len(spaces)) == (342, 2 * 389)
    assert any(lat.bottom != 0 for lat in labelled)
    for lat in enumerated + labelled + spaces + quotients:
        assert lat.implies_table == reference_residuals(
            lat.n, lat.meet, lat.join, lat.down, lat.bottom), lat
        assert lat.minus_table == tuple(zip(*reference_residuals(
            lat.n, lat.join, lat.meet, lat.up, lat.top))), lat
