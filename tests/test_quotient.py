from itertools import product

import pytest

from biheyt import (
    BoundExceeded,
    NotACongruence,
    NotAHomomorphism,
    NotDistributive,
    UnknownOption,
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
    principal_filter,
    principal_ideal,
    projection_implication_mismatches,
    quotient,
    two_valued_homs,
)
from biheyt.bitsets import iter_bits, subset_key
from biheyt.lattice import build_lattice, enumerate_distributive_lattices
from biheyt.quotient import (
    Congruence,
    FilterOrIdeal,
    LatticeHom,
    _is_filter_mask,
    _congruence_closure,
    _is_ideal_mask,
    is_hom,
)
from reference_lattice import reference_congruence_closure, reference_quotient


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


@pytest.fixture(scope="module")
def n5_pentagon():
    """0 < 1 < 2 < 4 and 0 < 3 < 4."""
    return build_lattice(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])


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


def _is_filter_by_scan(lat, members):
    """The pairwise scan _is_filter_mask replaced: proper, nonempty,
    up-closed, and holding the meet of every two members."""
    if members == 0 or members == (1 << lat.n) - 1:
        return False
    for a in iter_bits(members):
        if lat.up[a] & ~members:
            return False
    for a in iter_bits(members):
        for b in iter_bits(members):
            if not (members >> lat.meet[a][b]) & 1:
                return False
    return True


def test_principal_filters_and_ideals_match_subset_scan(m3_diamond):
    """filters/ideals read off the principal ones; the reference scans
    all 2^n member masks, in the same canonical order. The ideals come
    from the filters of the order dual, so they are checked against the
    definition of an ideal."""
    from biheyt import enumerate_distributive_lattices
    from biheyt.bitsets import subset_key

    for lat in [*enumerate_distributive_lattices(8), m3_diamond]:
        scan = sorted(range(1 << lat.n), key=subset_key)
        assert [f.members for f in filters(lat)] == [
            s for s in scan if _is_filter_by_scan(lat, s)
        ]
        by_definition = [s for s in scan if _is_ideal_by_definition(lat, s)]
        assert [i.members for i in ideals(lat)] == by_definition
        assert [s for s in scan if _is_ideal_mask(lat, s)] == by_definition


def test_filter_masks_read_off_the_generator_match_the_pairwise_scan(
    lattices_7, m3_diamond, n5_pentagon
):
    """_is_filter_mask tests F = ↑(⋀F) and ⋀F ≠ ⊥; _is_ideal_mask runs it
    on the order dual. Every mask of every distributive lattice with at
    most 7 elements, of M3 and of N5 is compared with the scan and with
    the definition of an ideal."""
    checked = 0
    for lat in [*lattices_7, m3_diamond, n5_pentagon]:
        for s in range(1 << lat.n):
            assert _is_filter_mask(lat, s) == _is_filter_by_scan(lat, s)
            assert _is_ideal_mask(lat, s) == _is_ideal_by_definition(lat, s)
            checked += 1
    assert checked == 1550


@pytest.mark.parametrize("make, members, message", [
    (make_filter, 0, "[] is not a proper nonempty filter"),
    (make_filter, 0b11111, "[0, 1, 2, 3, 4] is not a proper nonempty filter"),
    (make_filter, [2, 3, 4], "[2, 3, 4] is not a proper nonempty filter"),  # 2∧3 = 0
    (make_filter, [1, 4], "[1, 4] is not a proper nonempty filter"),  # 1 ≤ 2
    (make_ideal, 0, "[] is not a proper nonempty ideal"),
    (make_ideal, 0b11111, "[0, 1, 2, 3, 4] is not a proper nonempty ideal"),
    (make_ideal, [0, 1, 3], "[0, 1, 3] is not a proper nonempty ideal"),  # 1∨3 = 4
    (make_ideal, [0, 2], "[0, 2] is not a proper nonempty ideal"),  # 1 ≤ 2
    (principal_filter, 0, "[0, 1, 2, 3, 4] is not a proper nonempty filter"),
    (principal_ideal, 4, "[0, 1, 2, 3, 4] is not a proper nonempty ideal"),
])
def test_filter_and_ideal_refusals_name_the_mask(n5_pentagon, make, members, message):
    with pytest.raises(WrongKind) as exc:
        make(n5_pentagon, members)
    assert str(exc.value) == message


def test_filter_ideal_and_congruence_records(chain3, boolean4):
    """Constructors, equality, hashing and reprs of the two records."""
    f = make_filter(chain3, [1, 2])
    i = make_ideal(chain3, [0, 1])
    assert repr(f) == "FilterOrIdeal(kind='filter', members=[1, 2])"
    assert repr(i) == "FilterOrIdeal(kind='ideal', members=[0, 1])"
    assert (f.lattice, f.members, f.kind) == (chain3, 0b110, "filter")
    assert f == FilterOrIdeal(chain3, 0b110, "filter") != i
    assert hash(f) == hash((chain3, f.members, "filter"))
    assert 1 in f and 0 not in f
    cong = congruence_from_filter(boolean4, make_filter(boolean4, [1, 3]))
    assert repr(cong) == "Congruence(blocks=[[0, 2], [1, 3]])"
    assert cong == Congruence(boolean4, (0b0101, 0b1010))
    assert cong == check_congruence(boolean4, cong.blocks)
    assert hash(cong) == hash((boolean4, (0b0101, 0b1010)))
    assert cong.block_of == (0, 1, 0, 1)
    assert cong.related(0, 2) and not cong.related(0, 1)


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


def test_unknown_hom_flavor_is_refused_before_the_map_is_checked(chain3):
    # [1, 1, 1] fails at ⊥ and chain(1) → chain(2) has no hom at all, so
    # each call would otherwise raise NotAHomomorphism, be False or be []
    for call in (lambda: check_hom([1, 1, 1], chain3, chain(2), "bogus"),
                 lambda: is_hom([1, 1, 1], chain3, chain(2), "bogus"),
                 lambda: enumerate_homs(chain(1), chain(2), "bogus")):
        with pytest.raises(UnknownOption) as exc:
            call()
        assert isinstance(exc.value, ValueError)
        assert exc.value.what == "hom flavor" and exc.value.value == "bogus"
        assert exc.value.choices == ("lattice", "heyting", "coheyting")


def reference_check_hom(map, source, target, flavor="lattice"):
    """check_hom as one Python step per pair (a, b), the loop the
    row-wise comparison replaced and still falls back on."""
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
    for name, src_op, dst_op in pairs:
        for a in range(source.n):
            for b in range(source.n):
                if m[src_op[a][b]] != dst_op[m[a]][m[b]]:
                    raise NotAHomomorphism(name, a, b)
    return LatticeHom(source, target, m, flavor)


def _outcome(check, *args):
    try:
        return check(*args).map
    except NotAHomomorphism as exc:
        return ("not a hom", exc.op, exc.pair)
    except NotDistributive as exc:
        return ("not distributive", exc.triple)


def _assert_checks_match(maps_of, lattices):
    for flavor in ("lattice", "heyting", "coheyting"):
        for src in lattices:
            for dst in lattices:
                for m in maps_of(src, dst):
                    assert (_outcome(check_hom, m, src, dst, flavor)
                            == _outcome(reference_check_hom, m, src, dst, flavor)), \
                        (m, src, dst, flavor)


def test_check_hom_matches_the_pairwise_loop_on_every_map(lattices_6):
    _assert_checks_match(lambda src, dst: product(range(dst.n), repeat=src.n),
                         [lat for lat in lattices_6 if lat.n <= 4])


def _bounds_fixing_maps(src, dst):
    for m in product(range(dst.n), repeat=src.n):
        if m[src.bottom] == dst.bottom and m[src.top] == dst.top:
            yield m


def test_check_hom_matches_the_pairwise_loop_on_bounds_fixing_maps(
        lattices_6, m3_diamond, n5_pentagon):
    _assert_checks_match(_bounds_fixing_maps,
                         [lat for lat in lattices_6 if lat.n <= 5] + [m3_diamond, n5_pentagon])


def test_check_hom_into_more_than_256_elements_matches_the_pairwise_loop(
        chain3, boolean4):
    # bytes cannot hold these images, so every pair is walked
    big = chain(257)
    maps = [(chain3, (0, v, 256)) for v in range(257)]
    maps += [(boolean4, (0, a, b, 256)) for a in (0, 1, 255, 256) for b in (0, 1, 256)]
    for src, m in maps:
        assert _outcome(check_hom, m, src, big) == _outcome(reference_check_hom, m, src, big)


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


@pytest.mark.parametrize("blocks, message", [
    ([[0, 1], []], "block 1 of the partition is empty"),
    ([[0, 1], [-1]], "element -1 out of range 0..1"),
    ([[0], [1], [5]], "element 5 out of range 0..1"),
], ids=["empty block", "negative element", "element past the top"])
def test_check_congruence_reads_each_block_as_elements(blocks, message):
    with pytest.raises(WrongKind, match=message):
        check_congruence(chain(2), blocks)


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


def test_worklist_closure_matches_the_sweep(m3_diamond, n5_pentagon):
    """The same blocks as the fixed-point sweep, on every principal ideal
    and filter (proper or not) of the lattices ≤ 12, M3 and N5, and on
    every one-pair seed of the lattices ≤ 8, M3 and N5."""
    cases = 0
    fixtures = [m3_diamond, n5_pentagon]
    for lat in [*enumerate_distributive_lattices(12), *fixtures]:
        for a in range(lat.n):
            for seeds in ([(lat.bottom, x) for x in iter_bits(lat.down[a])],
                          [(lat.top, x) for x in iter_bits(lat.up[a])]):
                got = _congruence_closure(lat, seeds)
                assert got == reference_congruence_closure(lat, seeds), (lat, seeds)
                cases += 1
    for lat in [*enumerate_distributive_lattices(8), *fixtures]:
        for a in range(lat.n):
            for b in range(a + 1, lat.n):
                got = _congruence_closure(lat, [(a, b)])
                assert got == reference_congruence_closure(lat, [(a, b)]), (lat, a, b)
                cases += 1
    assert cases == 8055


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


def set_partitions(n):
    """Every partition of 0..n-1, as block masks sorted by least member."""
    if n == 0:
        yield ()
        return
    for blocks in set_partitions(n - 1):
        for k in range(len(blocks)):
            yield blocks[:k] + (blocks[k] | 1 << (n - 1),) + blocks[k + 1:]
        yield blocks + (1 << (n - 1),)


def test_quotient_checks_the_congruence_before_the_lattice():
    """On every partition of each distributive lattice with at most 6
    elements, quotient() raises NotACongruence exactly when
    check_congruence does, with its witness, and otherwise gives the
    block lattice and projection of the pair-by-pair cross-check. Built
    first, the lattice would fail on some, such as the blocks {0}, {1},
    {3}, {2, 4, 5} of the lattice with covers 0<1, 0<2, 1<4, 2<3, 2<4,
    3<5, 4<5, whose representative rows are not transitively closed."""
    partitions = congruences = 0
    for lat in enumerate_distributive_lattices(6):
        for blocks in set_partitions(lat.n):
            partitions += 1
            cong = Congruence(lat, blocks)
            try:
                checked = check_congruence(lat, blocks)
            except NotACongruence as exc:
                with pytest.raises(NotACongruence) as got:
                    quotient(lat, cong)
                assert (got.value.op, got.value.witness) == (exc.op, exc.witness)
                continue
            congruences += 1
            assert checked == cong
            q, proj = quotient(lat, cong)
            want_q, want_proj = reference_quotient(lat, cong)
            assert (q.up, proj.map) == (want_q.up, want_proj.map)
    assert (partitions, congruences) == (1209, 139)


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


def product_enumerate_homs(source, target, flavor="lattice"):
    """The Birkhoff enumerator before it assigned the join-irreducibles
    one at a time: every tuple of images, then the order filter, then
    φ(a) = ⋁{j | f(j) ≤ a} as a join fold."""
    points = target.join_irreducibles
    if target.distributive_failure is None:
        images = source.join_irreducibles
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


@pytest.mark.parametrize("flavor", ["lattice", "heyting", "coheyting"])
def test_enumerate_homs_matches_the_product_enumerator(lattices_7, flavor):
    assert len(lattices_7) == 21  # 441 pairs
    for src in lattices_7:
        for dst in lattices_7:
            assert enumerate_homs(src, dst, flavor) == product_enumerate_homs(src, dst, flavor)


def test_enumerate_homs_matches_the_product_enumerator_into_m3_n5_and_relabellings(
        lattices_7, m3_diamond, n5_pentagon):
    # the last two are the 4-chain 0 < 3 < 2 < 1 and N5 as 0 < 3 < 2 < 4,
    # 0 < 1 < 4: a join-irreducible can lie below one of lower index
    chain4_down = build_lattice(4, [(0, 3), (3, 2), (2, 1)])
    n5_down = build_lattice(5, [(0, 3), (3, 2), (2, 4), (0, 1), (1, 4)])
    targets = (m3_diamond, n5_pentagon, chain4_down, n5_down)
    for src in lattices_7 + [m3_diamond, n5_pentagon]:
        for dst in targets:
            assert ([h.map for h in enumerate_homs(src, dst)]
                    == [h.map for h in product_enumerate_homs(src, dst)])


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


def test_enumerate_homs_never_scans_for_distributivity():
    # the join-prime test reads the join table once per join-irreducible;
    # the cubic distributivity scan is never asked for
    target = chain(40)
    assert [h.map for h in enumerate_homs(chain(2), target)] == [(0, 39)]
    assert "distributive_failure" not in vars(target)


def test_enumerate_homs_into_more_than_256_elements():
    """A target of more than 256 elements has more than 8
    join-irreducibles and no byte rows: its fields are read out one by
    one and each map is verified with is_hom."""
    assert [h.map for h in enumerate_homs(chain(2), chain(300))] == [(0, 299)]


def test_enumerate_homs_bound(chain3):
    with pytest.raises(BoundExceeded):
        enumerate_homs(chain(9), chain3)
    assert len(enumerate_homs(chain(8), chain(1))) == 1


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
