from itertools import permutations, product
from math import factorial, prod

import pytest

from biheyt import (
    BoundExceeded,
    MissingEmptyOrFull,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    closed_lattice,
    closure,
    complement,
    enumerate_distributive_lattices,
    enumerate_preorders,
    enumerate_topologies,
    from_preorder,
    generate_from_basis,
    interior,
    is_boolean,
    open_lattice,
    specialization_preorder,
    validate_topology,
)
from biheyt.bitsets import iter_bits, mask_of, subset_key
from biheyt import lattice, topology
from biheyt.lattice import _lex_min_form
from biheyt.topology import space_classes
from reference_labelled import t0_class
from reference_lattice import reference_lex_min_form


# -- validation --------------------------------------------------------------


def test_validate_worked_example(threepoint):
    assert threepoint.opens == (0b000, 0b001, 0b011, 0b111)
    assert threepoint.closeds == (0b000, 0b100, 0b110, 0b111)


def test_validate_missing_full():
    with pytest.raises(MissingEmptyOrFull):
        validate_topology(2, [0b00, 0b01, 0b10])


def test_validate_discrete(discrete2):
    assert len(discrete2.opens) == 4


def test_validate_union_witness():
    with pytest.raises(NotClosedUnderUnion) as exc:
        validate_topology(3, [0b000, 0b001, 0b100, 0b111])
    assert exc.value.witness == (0b001, 0b100)


def test_validate_intersection_witness():
    with pytest.raises(NotClosedUnderIntersection) as exc:
        validate_topology(3, [0b000, 0b011, 0b101, 0b111])
    assert exc.value.witness == (0b011, 0b101)


def test_validate_dedupes_and_canonicalizes():
    sp = validate_topology(2, [0b11, 0b00, 0b01, 0b01])
    assert sp.opens == (0b00, 0b01, 0b11)


# -- interior / closure / complement ------------------------------------------


def test_interior_closure_examples(threepoint):
    # oracle: direct scans over the four opens / four closeds
    opens = [0b000, 0b001, 0b011, 0b111]
    closeds = [0b111 & ~o for o in opens]
    s = 0b100  # {c}
    scan_int = 0
    for o in opens:
        if o & ~s == 0:
            scan_int |= o
    scan_cl = 0b111
    for c in closeds:
        if s & ~c == 0:
            scan_cl &= c
    assert scan_int == 0 and scan_cl == 0b100
    assert interior(threepoint, s) == scan_int
    assert closure(threepoint, s) == scan_cl
    # cl({a}) = X: smallest closed superset among {∅,{c},{b,c},X}
    assert closure(threepoint, 0b001) == 0b111
    assert interior(threepoint, threepoint.full) == threepoint.full
    assert closure(threepoint, 0) == 0


def test_operator_laws(spaces_3):
    for sp in spaces_3:
        for s in range(1 << sp.points):
            i = interior(sp, s)
            assert i & ~s == 0                       # deflationary
            assert interior(sp, i) == i              # idempotent
            c = closure(sp, s)
            assert s & ~c == 0                       # inflationary
            assert closure(sp, c) == c
            assert c == complement(sp, interior(sp, complement(sp, s)))
            for t in range(1 << sp.points):
                if t & ~s == 0:
                    assert interior(sp, t) & ~i == 0  # monotone
                    assert closure(sp, t) & ~c == 0


# -- open / closed lattices ----------------------------------------------------


def test_open_lattice_double_negation(threepoint):
    alg = open_lattice(threepoint)
    i_ab = alg.subsets.index(0b011)
    assert alg.subsets[alg.neg_table[i_ab]] == 0
    assert alg.subsets[alg.neg_table[alg.neg_table[i_ab]]] == 0b111


def test_closed_lattice_paraconsistency(threepoint):
    alg = closed_lattice(threepoint)
    i_bc = alg.subsets.index(0b110)
    assert alg.subsets[alg.boundary_table[i_bc]] == 0b110


def test_discrete_open_equals_closed(discrete2):
    ol, cl_ = open_lattice(discrete2), closed_lattice(discrete2)
    assert ol == cl_
    assert ol.n == 4 and is_boolean(ol)


def test_lattice_meets_joins_are_set_operations(spaces_3):
    for sp in spaces_3:
        alg = open_lattice(sp)
        subs = alg.subsets
        for a in range(alg.n):
            for b in range(alg.n):
                assert subs[alg.meet[a][b]] == subs[a] & subs[b]
                assert subs[alg.join[a][b]] == subs[a] | subs[b]


def test_open_implication_is_interior_formula(spaces_3):
    # dual route: candidate-scan implication vs int(Aᶜ ∪ B)
    for sp in spaces_3:
        alg = open_lattice(sp)
        subs = alg.subsets
        for a in range(alg.n):
            for b in range(alg.n):
                want = interior(sp, complement(sp, subs[a]) | subs[b])
                assert subs[alg.implies_table[a][b]] == want


def test_closed_subtraction_is_closure_formula(spaces_3):
    # dual route: candidate-scan subtraction vs cl(A ∩ Bᶜ)
    for sp in spaces_3:
        alg = closed_lattice(sp)
        subs = alg.subsets
        for a in range(alg.n):
            for b in range(alg.n):
                want = closure(sp, subs[a] & complement(sp, subs[b]))
                assert subs[alg.minus_table[a][b]] == want


# -- basis generation ----------------------------------------------------------


def test_basis_examples(threepoint, discrete2):
    assert generate_from_basis(3, [0b001, 0b011]) == threepoint
    assert generate_from_basis(2, [0b01, 0b10]) == discrete2
    assert generate_from_basis(3, []).opens == (0, 0b111)


def reference_generate_from_basis(points, basis):
    """The pairwise-closure construction: close the family under pairwise
    intersection, then under union, and add ∅ and X."""
    full = (1 << points) - 1
    fam = set(basis) | {full}
    for op in (int.__and__, int.__or__):
        changed = True
        while changed:
            items = list(fam)
            new = {op(s, t) for i, s in enumerate(items) for t in items[i + 1 :]} - fam
            fam |= new
            changed = bool(new)
    fam |= {0, full}
    return tuple(sorted(fam, key=subset_key))


def test_basis_matches_pairwise_closure():
    # every family of proper nonempty subsets on 1..4 points
    for m in range(1, 5):
        proper = range(1, (1 << m) - 1)
        for bits in range(1 << len(proper)):
            fam = [s for k, s in enumerate(proper) if (bits >> k) & 1]
            assert generate_from_basis(m, fam).opens == reference_generate_from_basis(m, fam)


def test_basis_rejects_points_outside_the_space():
    with pytest.raises(ValueError, match="outside 0..2"):
        generate_from_basis(3, [0b001, 0b1000])


def test_any_family_generates_a_topology():
    # subbasis treatment: no family is rejected and the result validates
    for fam_bits in range(1 << 6):
        fam = [s for k, s in enumerate(range(1, 7)) if (fam_bits >> k) & 1]
        sp = generate_from_basis(3, fam)
        again = validate_topology(3, sp.opens)
        assert again == sp
        for s in fam:
            assert s in sp.opens


# -- specialization preorder ---------------------------------------------------


def test_specialization_worked_example(threepoint):
    pre = specialization_preorder(threepoint)
    # oracle: definition scan over the four opens
    rel = []
    for x in range(3):
        mask = 0
        for y in range(3):
            if all((o >> y) & 1 for o in threepoint.opens if (o >> x) & 1):
                mask |= 1 << y
        rel.append(mask)
    assert pre.rel == tuple(rel) == (0b001, 0b011, 0b111)


def test_specialization_discrete_identity(discrete2):
    assert specialization_preorder(discrete2).rel == (0b01, 0b10)


def test_specialization_indiscrete_total():
    indiscrete = validate_topology(3, [0, 0b111])
    assert specialization_preorder(indiscrete).rel == (0b111, 0b111, 0b111)


def reference_from_preorder(pre):
    """Scan all 2^n subsets and keep the up-closed ones."""
    fam = [
        s for s in range(1 << pre.points)
        if all(not pre.rel[x] & ~s for x in iter_bits(s))
    ]
    return tuple(sorted(fam, key=subset_key))


def test_from_preorder_matches_subset_scan():
    count = 0
    for m in range(1, 6):
        for pre in enumerate_preorders(m):
            assert from_preorder(pre).opens == reference_from_preorder(pre)
            count += 1
    assert count == 1 + 4 + 29 + 355 + 6942


def test_min_open_is_the_smallest_open_neighbourhood():
    """A space built from a preorder keeps its rows as min_open; they
    are the neighbourhoods worked out from the opens, for every space on
    ≤ 4 points and every class representative on ≤ 5."""
    spaces = [sp for m in range(1, 5) for sp in enumerate_topologies(m)]
    spaces += [c.space for m in range(6) for c in space_classes(m)]
    assert len(spaces) == 389 + 1 + 185
    for sp in spaces:
        assert sp.min_open == topology._smallest_around(sp.points, sp.opens), sp


def test_preorders_in_lexicographic_row_order():
    # reference: every relation in row order, kept if reflexive and transitive
    for m in range(5):
        want = [
            rows for rows in product(range(1 << m), repeat=m)
            if all((rows[x] >> x) & 1 for x in range(m))
            and all(not rows[y] & ~rows[x] for x in range(m) for y in iter_bits(rows[x]))
        ]
        assert [pre.rel for pre in enumerate_preorders(m)] == want


def test_round_trips(spaces_4):
    for sp in spaces_4:
        assert from_preorder(specialization_preorder(sp)) == sp
    for m in range(1, 4):
        for pre in enumerate_preorders(m):
            assert specialization_preorder(from_preorder(pre)) == pre


# -- enumeration ---------------------------------------------------------------


def family_enumeration_count(m):
    """Independent oracle: scan every family of proper nonempty subsets,
    always adding ∅ and X, and count the ones closed under ∪ and ∩."""
    full = (1 << m) - 1
    proper = [s for s in range(1, full)]
    count = 0
    for bits in range(1 << len(proper)):
        fam = {0, full} | {proper[k] for k in range(len(proper)) if (bits >> k) & 1}
        if all(s & t in fam and s | t in fam for s in fam for t in fam):
            count += 1
    return count


@pytest.mark.parametrize("m,expected", [(1, 1), (2, 4), (3, 29)])
def test_counts_against_family_oracle(m, expected):
    assert family_enumeration_count(m) == expected
    assert sum(1 for _ in enumerate_topologies(m)) == expected


def test_count_four_points():
    assert sum(1 for _ in enumerate_topologies(4)) == 355


def test_enumeration_unique_and_deterministic():
    first = list(enumerate_topologies(3))
    second = list(enumerate_topologies(3))
    assert first == second
    assert len(set(first)) == len(first)


def test_bound_exceeded():
    with pytest.raises(BoundExceeded):
        next(iter(enumerate_topologies(6)))
    assert sum(1 for _ in enumerate_topologies(5)) == 6942


# -- homeomorphism classes -------------------------------------------------------


def test_class_counts_follow_oeis(monkeypatch):
    """A001930 classes, A000112 T0 classes, A000798 labelled spaces on
    1..7 points; past MAX_SUITE_POINTS through the uncapped enumerator."""
    classes = [space_classes(m) for m in range(1, 6)]
    classes += [topology._space_classes(m) for m in (6, 7)]
    assert [len(cs) for cs in classes] == [1, 3, 9, 33, 139, 718, 4535]
    assert [sum(len(c.skeleton) == m for c in cs)
            for m, cs in enumerate(classes, 1)] == [1, 2, 5, 16, 63, 318, 2045]
    assert [sum(c.orbit for c in cs) for cs in classes] == [
        1, 4, 29, 355, 6942, 209_527, 9_535_241]
    monkeypatch.setattr(topology, "MAX_SUITE_POINTS", 6)
    assert len(space_classes(6)) == 718


def test_twin_groups_keep_the_branching_form(monkeypatch):
    """_lex_min_form branches once per twin group. On every child that
    _space_classes(≤ 6) and enumerate_distributive_lattices(≤ 12)
    canonicalize, it gives the form and count of the reference that
    branches on every tie, and _space_classes(n) is the same under
    either for n ≤ 6 (each level grown from the same parents)."""
    seen = []

    def spy(*child):
        seen.append((child, _lex_min_form(*child)))
        return seen[-1][1]

    monkeypatch.setattr(lattice, "_lex_min_form", spy)
    monkeypatch.setattr(topology, "_lex_min_form", spy)
    enumerate_distributive_lattices(12)
    for n in range(1, 7):
        topology._space_classes.__wrapped__(n)
    assert len(seen) > 2000 and any(count > 1 for _, (_, count) in seen)
    for child, got in seen:
        assert reference_lex_min_form(*child) == got, child
    monkeypatch.setattr(topology, "_lex_min_form", reference_lex_min_form)
    for n in range(7):
        assert topology._space_classes.__wrapped__(n) == topology._space_classes(n), n


def test_space_classes_refuse_a_negative_count():
    with pytest.raises(ValueError, match="point count -1 is negative"):
        space_classes(-1)
    assert [c.space.points for c in space_classes(0)] == [0]


def relabelled(rows, perm):
    """The preorder rows with point x renamed perm[x]."""
    out = [0] * len(rows)
    for x, row in enumerate(rows):
        out[perm[x]] = mask_of(perm[y] for y in iter_bits(row))
    return tuple(out)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_classes_partition_the_labelled_preorders(m):
    """Brute force: the orbit of each representative under every
    permutation of the points. Every labelled preorder lies in exactly
    one orbit, whose size is the class's orbit count. Every
    representative, T0 or not, is the least of its orbit, so it is the
    first space of its class that enumerate_preorders yields, and the
    classes come in the order that walk first meets them."""
    labelled = {pre.rel for pre in enumerate_preorders(m)}
    seen = set()
    reps = [specialization_preorder(c.space).rel for c in space_classes(m)]
    for c, rows in zip(space_classes(m), reps):
        orbit = {relabelled(rows, perm) for perm in permutations(range(m))}
        assert len(orbit) == c.orbit and min(orbit) == rows, c
        assert not orbit & seen and orbit <= labelled, c
        seen |= orbit
    assert seen == labelled
    firsts = set(reps)
    assert [pre.rel for pre in enumerate_preorders(m) if pre.rel in firsts] == reps


def test_class_skeletons_are_t0_quotients(spaces_4):
    """The skeleton is t0_class of the representative and of every
    labelled space in the class; T0 classes have singleton clusters."""
    by_skeleton = {}
    for m in range(1, 5):
        for c in space_classes(m):
            assert c.space.points == m == sum(c.sizes)
            assert t0_class(c.space) == c.skeleton
            assert (len(c.skeleton) == m) == (set(c.sizes) == {1})
            by_skeleton[c.skeleton] = by_skeleton.get(c.skeleton, 0) + c.orbit
    labelled = {}
    for sp in spaces_4:
        key = t0_class(sp)
        labelled[key] = labelled.get(key, 0) + 1
    assert labelled == by_skeleton


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_t0_representatives_come_first_in_enumeration_order(m):
    """A T0 class's representative is its lex-least labelled poset, so
    it is the first space of its class that enumerate_topologies yields,
    and the T0 classes come in the order that walk first meets them."""
    firsts = {}
    for sp in map(from_preorder, enumerate_preorders(m)):
        firsts.setdefault(t0_class(sp), sp)
    met = [sp for key, sp in firsts.items() if len(key) == m]
    assert met == [c.space for c in space_classes(m) if len(c.skeleton) == m]


def expanded(rows, sizes):
    """The preorder of a cluster poset whose cluster x is a block of
    sizes[x] consecutive points: each point's row holds the blocks of
    its cluster's up-set."""
    starts = [sum(sizes[:x]) for x in range(len(sizes))]
    blocks = [((1 << size) - 1) << start for size, start in zip(sizes, starts)]
    return tuple(sum(blocks[y] for y in iter_bits(row))
                 for row, size in zip(rows, sizes) for _ in range(size))


def test_lex_min_form_is_the_least_expanded_preorder(monkeypatch):
    """On every child that _space_classes(≤ 5) canonicalizes, the form
    is the least relabelling of the expanded preorder, and count × ∏
    sizes! is the number of point permutations that reach it."""
    seen = []

    def spy(*child):
        seen.append((child, _lex_min_form(*child)))
        return seen[-1][1]

    monkeypatch.setattr(topology, "_lex_min_form", spy)
    for n in range(1, 6):
        topology._space_classes.__wrapped__(n)
    assert len(seen) >= 400 and any(count > 1 for _, (_, count) in seen)
    for (rows, sizes), (form, count) in seen:
        points = sum(sizes)
        labelled = [relabelled(expanded(rows, sizes), perm)
                    for perm in permutations(range(points))]
        assert form == min(labelled), (rows, sizes)
        assert count * prod(map(factorial, sizes)) == labelled.count(form), (rows, sizes)


def test_class_bound():
    with pytest.raises(BoundExceeded):
        space_classes(6)


# -- structure invariants over the whole enumeration ----------------------------


def test_open_lattices_satisfy_residuation(spaces_4):
    for sp in spaces_4:
        alg = open_lattice(sp)
        lat = alg
        for a in range(lat.n):
            for b in range(lat.n):
                assert (alg.implies_table[a][b] == lat.top) == lat.leq(a, b)
                for x in range(lat.n):
                    assert lat.leq(lat.meet[a][x], b) == lat.leq(x, alg.implies_table[a][b])


def test_closed_lattices_satisfy_coresiduation(spaces_4):
    for sp in spaces_4:
        alg = closed_lattice(sp)
        lat = alg
        for a in range(lat.n):
            assert lat.leq(alg.conot_table[alg.conot_table[a]], a)
            c = alg.conot_table[a]
            assert lat.join[a][c] == lat.top
            for x in range(lat.n):
                if lat.join[a][x] == lat.top:
                    assert lat.leq(c, x)
            for b in range(lat.n):
                for x in range(lat.n):
                    assert lat.leq(alg.minus_table[a][b], x) == lat.leq(a, lat.join[b][x])


# -- boolean criterion ---------------------------------------------------------


def test_boolean_iff_clopen_iff_symmetric(spaces_4):
    for sp in spaces_4:
        ol = open_lattice(sp)
        boolean = is_boolean(ol)
        clopen = set(sp.opens) == set(sp.closeds)
        symmetric = specialization_preorder(sp).symmetric()
        assert boolean == clopen == symmetric
