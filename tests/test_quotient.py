from itertools import product

import pytest

from biheyt import (
    BoundExceeded,
    NotACongruence,
    NotAHomomorphism,
    WrongKind,
    chain,
    check_congruence,
    check_hom,
    compose,
    congruence_from_filter,
    congruence_from_ideal,
    enumerate_homs,
    filters,
    ideal_relation,
    ideals,
    kernel,
    make_filter,
    make_ideal,
    preimage_of_top,
    prime_filters,
    principal_ideal,
    projection_implication_mismatches,
    quotient,
    two_valued_homs,
)
from biheyt.bitsets import iter_bits, subset_key
from biheyt.lattice import build_lattice, enumerate_distributive_lattices
from biheyt.quotient import LatticeHom, _is_filter_mask, _is_ideal_mask, is_hom


def subsets_of(n):
    return range(1 << n)


def filter_oracle(lat):
    """Independent filter enumeration with sets of ints."""
    out = []
    for bits in subsets_of(lat.n):
        members = {a for a in range(lat.n) if (bits >> a) & 1}
        if not members or len(members) == lat.n:
            continue
        up_closed = all(
            b in members
            for a in members
            for b in range(lat.n)
            if lat.leq(a, b)
        )
        meet_closed = all(lat.meet[a][b] in members for a in members for b in members)
        if up_closed and meet_closed:
            out.append(members)
    return out


# -- filters and ideals --------------------------------------------------------


def test_filters_of_two_element():
    two = chain(2)
    assert [f.members for f in filters(two)] == [0b10]


def test_filters_of_chain3_against_oracle(chain3):
    oracle = filter_oracle(chain3)
    assert sorted(map(frozenset, oracle)) in ([frozenset({2}), frozenset({1, 2})],)
    got = [set(iter_bits(f.members)) for f in filters(chain3)]
    assert sorted(map(frozenset, got)) == sorted(map(frozenset, oracle))


def test_filters_of_m3(m3_diamond):
    oracle = sorted(map(frozenset, filter_oracle(m3_diamond)))
    got = sorted(frozenset(iter_bits(f.members)) for f in filters(m3_diamond))
    assert got == oracle
    assert len(got) == 4
    assert frozenset({4}) in got


def test_ideals_of_chain3(chain3):
    assert [i.members for i in ideals(chain3)] == [0b001, 0b011]


def _is_ideal_by_definition(lat, s):
    """Proper, nonempty, down-closed and join-closed, read off the order
    and the join table rather than the filter code of the order dual."""
    members = [a for a in range(lat.n) if (s >> a) & 1]
    if not 0 < len(members) < lat.n:
        return False
    down_closed = all((s >> b) & 1 for a in members for b in range(lat.n) if lat.leq(b, a))
    join_closed = all((s >> lat.join[a][b]) & 1 for a in members for b in members)
    return down_closed and join_closed


def test_principal_filters_and_ideals_match_subset_scan(m3_diamond):
    """filters/ideals read off the principal ones; the reference scans
    all 2^n member masks, in the same canonical order. The ideals come
    from the filters of the order dual, so they are checked against the
    definition of an ideal."""
    from biheyt import enumerate_distributive_lattices
    from biheyt.bitsets import all_subsets, subset_key

    for lat in [*enumerate_distributive_lattices(8), m3_diamond]:
        scan = sorted(all_subsets(lat.n), key=subset_key)
        assert [f.members for f in filters(lat)] == [
            s for s in scan if _is_filter_mask(lat, s)
        ]
        by_definition = [s for s in scan if _is_ideal_by_definition(lat, s)]
        assert [i.members for i in ideals(lat)] == by_definition
        assert [s for s in scan if _is_ideal_mask(lat, s)] == by_definition


def test_make_filter_rejects_junk(chain3):
    with pytest.raises(WrongKind):
        make_filter(chain3, [0])      # not up-closed... bottom's upset is everything
    with pytest.raises(WrongKind):
        make_filter(chain3, [0, 1, 2])  # improper
    with pytest.raises(WrongKind):
        make_ideal(chain3, [2])


@pytest.mark.parametrize("members", [[5], [1, 2, 3], [-1], [0, -2], 0b1000, 0b1110, -1])
def test_filter_and_ideal_members_must_be_elements(chain3, members):
    """An element outside 0..n-1, as an index or as a mask bit, is refused
    before any closure check (a negative index used to reach a shift)."""
    with pytest.raises(WrongKind, match="outside|out of range"):
        make_filter(chain3, members)
    with pytest.raises(WrongKind, match="outside|out of range"):
        make_ideal(chain3, members)


# -- check_hom -------------------------------------------------------------------


def test_identity_is_heyting_hom(chain3):
    hom = check_hom([0, 1, 2], chain3, chain3, "heyting")
    assert hom.surjective


def test_collapse_middle_up_is_heyting_hom(chain3):
    two = chain(2)
    hom = check_hom([0, 1, 1], chain3, two, "heyting")
    assert hom.map == (0, 1, 1)


def test_collapse_middle_down_breaks_implication(chain3):
    two = chain(2)
    check_hom([0, 0, 1], chain3, two, "lattice")  # fine as a lattice hom
    with pytest.raises(NotAHomomorphism) as exc:
        check_hom([0, 0, 1], chain3, two, "heyting")
    # exhaustive row-major scan finds the first violation at (m, ⊥):
    # φ(m→⊥) = φ(⊥) = 0 but φ(m)→φ(⊥) = 0→0 = 1
    assert exc.value.op == "implies" and exc.value.pair == (1, 0)


def test_non_hom_witnesses(chain3):
    two = chain(2)
    with pytest.raises(NotAHomomorphism) as exc:
        check_hom([0, 0, 0], chain3, two)     # top not preserved
    assert exc.value.op == "top"
    with pytest.raises(NotAHomomorphism):
        check_hom([1, 1, 1], chain3, two)     # bottom not preserved
    with pytest.raises(NotAHomomorphism):
        check_hom([0, 1], chain3, two)        # not total


# -- kernel ----------------------------------------------------------------------


def test_kernel_examples(chain3):
    two = chain(2)
    assert kernel(check_hom([0, 1, 2], chain3, chain3)) == 0b001
    assert kernel(check_hom([0, 1, 1], chain3, two)) == 0b001
    assert kernel(check_hom([0, 0, 1], chain3, two)) == 0b011
    assert preimage_of_top(check_hom([0, 1, 1], chain3, two)) == 0b110


def test_kernel_is_ideal_and_top_preimage_is_filter(lattices_6):
    small = [lat for lat in lattices_6 if lat.n <= 4]
    for src in small:
        for dst in small:
            if dst.n == 1:
                continue
            for hom in enumerate_homs(src, dst):
                assert _is_ideal_mask(src, kernel(hom)) or kernel(hom) == 1 << src.bottom
                pt = preimage_of_top(hom)
                assert _is_filter_mask(src, pt) or pt == 1 << src.top


# -- two valued homs --------------------------------------------------------------


def reference_two_valued_homs(lat):
    """The 2ⁿ scan two_valued_homs replaced: every non-constant 0/1
    labelling of the carrier, in subset_key order, kept if it is a hom."""
    two = chain(2)
    out = []
    for s in sorted(range(1 << lat.n), key=subset_key):
        m = [(s >> a) & 1 for a in range(lat.n)]
        if len(set(m)) == 2 and is_hom(m, lat, two):
            out.append(LatticeHom(lat, two, m, "lattice"))
    return out


def test_two_valued_homs_match_the_labelling_scan(m3_diamond):
    for lat in [*enumerate_distributive_lattices(8), m3_diamond]:
        homs = two_valued_homs(lat)
        assert [h.map for h in homs] == [h.map for h in reference_two_valued_homs(lat)]
    assert two_valued_homs(m3_diamond) == []  # M3 has no prime filter


def test_two_valued_counts(chain3):
    assert len(two_valued_homs(chain(2))) == 1
    assert len(two_valued_homs(chain3)) == 2
    assert two_valued_homs(chain(1)) == []


def test_two_valued_bijection_with_prime_filters(lattices_6):
    for lat in lattices_6:
        homs = two_valued_homs(lat)
        primes = {f.members for f in prime_filters(lat)}
        images = {preimage_of_top(h) for h in homs}
        assert len(images) == len(homs)
        assert images == primes


# -- congruences -------------------------------------------------------------------


def test_congruence_trivial_ideal(chain3):
    cong = congruence_from_ideal(chain3, make_ideal(chain3, [0]))
    assert cong.blocks == (0b001, 0b010, 0b100)


def test_congruence_principal_ideal(chain3):
    cong = congruence_from_ideal(chain3, make_ideal(chain3, [0, 1]))
    assert cong.blocks == (0b011, 0b100)
    q, proj = quotient(chain3, cong)
    assert q.n == 2
    assert proj.map == (0, 0, 1)


def test_congruence_top_filter_collapses_nothing(chain3):
    cong = congruence_from_filter(chain3, make_filter(chain3, [2]))
    assert cong.blocks == (0b001, 0b010, 0b100)


def test_congruence_kind_mismatch(chain3):
    with pytest.raises(WrongKind):
        congruence_from_ideal(chain3, make_filter(chain3, [2]))
    with pytest.raises(WrongKind):
        congruence_from_filter(chain3, make_ideal(chain3, [0]))


def test_check_congruence_rejects_incompatible(boolean4):
    # collapsing ⊥ with ⊤ but not the atoms breaks meet compatibility
    with pytest.raises(NotACongruence):
        check_congruence(boolean4, [[0, 3], [1], [2]])
    with pytest.raises(NotACongruence):
        check_congruence(boolean4, [[0, 1], [2]])  # not a partition
    # collapsing one atom direction is a genuine congruence
    cong = check_congruence(boolean4, [[0, 1], [2, 3]])
    assert cong.blocks == (0b0011, 0b1100)


def test_closure_matches_join_formula(lattices_6):
    """Oracle: on a distributive lattice the congruence from an ideal I
    relates x and y iff x∨i = y∨i for some i ∈ I."""
    for lat in lattices_6:
        for ideal in ideals(lat):
            cong = congruence_from_ideal(lat, ideal)
            members = list(iter_bits(ideal.members))
            for x in range(lat.n):
                for y in range(lat.n):
                    oracle = any(lat.join[x][i] == lat.join[y][i] for i in members)
                    assert cong.related(x, y) == oracle


def test_filter_closure_matches_meet_formula(lattices_6):
    for lat in lattices_6:
        for filt in filters(lat):
            cong = congruence_from_filter(lat, filt)
            members = list(iter_bits(filt.members))
            for x in range(lat.n):
                for y in range(lat.n):
                    oracle = any(lat.meet[x][f] == lat.meet[y][f] for f in members)
                    assert cong.related(x, y) == oracle


def test_relational_definition_comparison(chain3):
    """Diagnostics for the implication-based relation on the 3-chain
    with I = {⊥, m}: the conjunctive reading is irreflexive whenever I
    is proper (x~x needs ⊤ ∈ I), and it relates ⊤ to m ((⊤→m)∧(m→⊤) =
    m ∈ I) which the generated congruence does not, so the two genuinely
    differ in both directions."""
    ideal = make_ideal(chain3, [0, 1])
    cong = congruence_from_ideal(chain3, ideal)
    rel = ideal_relation(chain3, ideal, conjunctive=True)
    generated = {(x, y) for x in range(3) for y in range(3) if cong.related(x, y)}
    assert all((x, x) not in rel for x in range(3))
    off_diagonal = {(x, y) for x, y in generated if x != y}
    assert off_diagonal < rel
    assert (2, 1) in rel - generated
    # the biconditional reading relates pairs whose implications fall
    # in I together or stay out together; here that is just the diagonal
    bic = ideal_relation(chain3, ideal, conjunctive=False)
    assert bic == {(x, x) for x in range(3)}


# -- quotient -----------------------------------------------------------------------


def test_quotient_identity_is_isomorphic(chain3):
    cong = congruence_from_ideal(chain3, make_ideal(chain3, [0]))
    q, proj = quotient(chain3, cong)
    assert q == chain3 and proj.surjective


def test_quotient_collapse_chain(chain3):
    q, proj = quotient(
        chain3, congruence_from_ideal(chain3, make_ideal(chain3, [0, 1]))
    )
    assert q == chain(2)
    mismatches = projection_implication_mismatches(
        chain3, congruence_from_ideal(chain3, make_ideal(chain3, [0, 1]))
    )
    # the lattice projection is not a Heyting hom here; recorded witness
    assert mismatches == [(1, 0)]


def test_iterated_collapse_reaches_two(chain3):
    lat = chain(6)
    while lat.n > 2:
        mid = [a for a in range(lat.n) if a not in (lat.bottom, lat.top)][0]
        lat, _ = quotient(lat, congruence_from_ideal(lat, principal_ideal(lat, mid)))
    assert lat == chain(2)


def test_quotient_suite_small(lattices_6):
    small = [lat for lat in lattices_6 if lat.n <= 5]
    for lat in small:
        for ideal in ideals(lat):
            cong = congruence_from_ideal(lat, ideal)
            q, proj = quotient(lat, cong)
            assert proj.surjective
            bottom_block = cong.blocks[proj.map[lat.bottom]]
            assert bottom_block == ideal.members | (1 << lat.bottom)
            assert bottom_block == ideal.members  # ideals contain ⊥ already
        for filt in filters(lat):
            cong = congruence_from_filter(lat, filt)
            q, proj = quotient(lat, cong)
            assert proj.surjective
            top_block = cong.blocks[proj.map[lat.top]]
            assert top_block == filt.members


def test_quotient_projection_preserves_lattice_ops(lattices_6):
    for lat in lattices_6:
        for ideal in ideals(lat):
            cong = congruence_from_ideal(lat, ideal)
            q, proj = quotient(lat, cong)
            for a in range(lat.n):
                for b in range(lat.n):
                    assert proj.map[lat.meet[a][b]] == q.meet[proj.map[a]][proj.map[b]]
                    assert proj.map[lat.join[a][b]] == q.join[proj.map[a]][proj.map[b]]


# -- hom enumeration / composition ---------------------------------------------------


def reference_enumerate_homs(source, target, flavor="lattice"):
    """The exhaustive scan enumerate_homs replaced: every map fixing ⊥
    and ⊤, free elements in index order, kept if check_hom accepts it."""
    if source.n == 1:
        candidates = [(target.bottom,)]
    else:
        free = [a for a in range(source.n) if a not in (source.bottom, source.top)]
        candidates = []
        for images in product(range(target.n), repeat=len(free)):
            m = [0] * source.n
            m[source.bottom], m[source.top] = target.bottom, target.top
            for a, v in zip(free, images):
                m[a] = v
            candidates.append(tuple(m))
    return [m for m in candidates if is_hom(m, source, target, flavor)]


def _assert_homs_match(lattices, flavor):
    for src in lattices:
        for dst in lattices:
            homs = enumerate_homs(src, dst, flavor)
            assert [h.map for h in homs] == reference_enumerate_homs(src, dst, flavor)
            assert all(h.flavor == flavor for h in homs)


def test_enumerate_homs_matches_the_scan(lattices_6):
    assert len(lattices_6) == 13  # 169 pairs
    _assert_homs_match(lattices_6, "lattice")


@pytest.mark.parametrize("flavor", ["heyting", "coheyting"])
def test_enumerate_homs_matches_the_scan_per_flavor(lattices_6, flavor):
    _assert_homs_match([lat for lat in lattices_6 if lat.n <= 5], flavor)


def test_enumerate_homs_on_nondistributive_lattices(m3_diamond, boolean4):
    # into N5 or M3 a join-irreducible need not be join-prime, so its
    # preimage filter can be generated by a join-reducible element:
    # 2×2 → M3 sending the two atoms to two atoms generates ↑⊤
    n5 = build_lattice(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])
    _assert_homs_match([chain(1), chain(2), chain(3), boolean4, m3_diamond, n5], "lattice")
    assert (0, 1, 2, 4) in [h.map for h in enumerate_homs(boolean4, m3_diamond)]


def test_enumerate_homs_bound(chain3):
    with pytest.raises(BoundExceeded):
        enumerate_homs(chain(7), chain3)
    assert len(enumerate_homs(chain(6), chain(1))) == 1


def test_enumerate_homs_identity_present(chain3):
    maps = [h.map for h in enumerate_homs(chain3, chain3)]
    assert (0, 1, 2) in maps


def test_compose_type_mismatch(chain3):
    two = chain(2)
    f = check_hom([0, 1, 1], chain3, two)
    with pytest.raises(NotAHomomorphism):
        compose(f, f)


def test_compose_is_pointwise(chain3):
    two = chain(2)
    for f in enumerate_homs(two, chain3):
        for g in enumerate_homs(chain3, two):
            gf = compose(g, f)
            assert gf.map == tuple(g.map[f.map[a]] for a in range(two.n))
