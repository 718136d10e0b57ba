from functools import cached_property
from itertools import product

import pytest

from biheyt import (
    NotDistributive,
    WrongKind,
    build_lattice,
    chain,
    check_hom,
    compose,
    complement,
    enumerate_homs,
    induced_map,
    interior,
    is_prime_filter,
    make_filter,
    make_ideal,
    open_map_criterion,
    prime_filters,
    principal_filter,
    spectrum,
    validate_topology,
    verify_stone_embedding,
)
from biheyt.bitsets import mask_of, pullback, translate_table, transpose, unions
from biheyt.cli import main
from biheyt.lattice import FiniteLattice, enumerate_distributive_lattices
from biheyt.quotient import FilterOrIdeal
from biheyt import topology
from biheyt.spectrum import open_implication
from biheyt.topology import space_classes
from reference_lattice import reference_is_prime_filter


@pytest.fixture
def wrong_implication(monkeypatch):
    """Every lattice built from here on reads a→b = b. The table is wrong
    (0→0 is 0 on the two-element chain) but the same on isomorphic
    lattices, so only a check that does not read the table catches it."""
    wrong = cached_property(lambda lat: tuple(tuple(range(lat.n)) for _ in range(lat.n)))
    wrong.__set_name__(FiniteLattice, "implies_table")
    monkeypatch.setattr(FiniteLattice, "implies_table", wrong)


# -- primality -----------------------------------------------------------------


def test_chain_filters_are_prime(chain3):
    # oracle: in a chain a∨b is one of a, b, so primality is automatic
    for f in prime_filters(chain3):
        assert is_prime_filter(chain3, f)
    assert len(prime_filters(chain3)) == 2


def test_square_top_filter_not_prime(boolean4):
    top_only = make_filter(boolean4, [3])
    assert not is_prime_filter(boolean4, top_only)
    # oracle: atoms 1 and 2 join to ⊤ yet neither is in {⊤}
    assert boolean4.join[1][2] == 3
    assert is_prime_filter(boolean4, principal_filter(boolean4, 1))
    assert is_prime_filter(boolean4, principal_filter(boolean4, 2))


def test_primality_rejects_ideals(chain3):
    with pytest.raises(WrongKind):
        is_prime_filter(chain3, make_ideal(chain3, [0]))


def test_prime_test_matches_the_pair_loop(m3_diamond):
    """The one-join test agrees with the pair loop on every up-set, ∅ and
    L included, of every lattice up to 8 elements and of M3 and N5."""
    n5 = build_lattice(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])
    checked = 0
    for lat in enumerate_distributive_lattices(8) + [m3_diamond, n5]:
        for members in unions(lat.up):
            filt = FilterOrIdeal(lat, members, "filter")
            assert is_prime_filter(lat, filt) == reference_is_prime_filter(lat, members), (
                lat, members)
            checked += 1
    assert checked == 352


# -- spectra ---------------------------------------------------------------------


def test_spectrum_of_chain3(chain3):
    spec = spectrum(chain3)
    assert spec.points == (0b100, 0b110)
    assert spec.space.opens == (0, 0b10, 0b11)
    assert spec.beta == (0, 0b10, 0b11)


def test_spectrum_of_two_element():
    spec = spectrum(chain(2))
    assert len(spec.points) == 1
    assert spec.space.opens == (0, 1)


def test_spectrum_of_square_is_discrete(boolean4):
    spec = spectrum(boolean4)
    assert len(spec.points) == 2
    assert len(spec.space.opens) == 4


def test_spectrum_of_one_element():
    spec = spectrum(chain(1))
    assert spec.points == ()
    assert spec.space.opens == (0,)
    assert verify_stone_embedding(chain(1)).ok


def test_spectrum_refuses_nondistributive(m3_diamond):
    with pytest.raises(NotDistributive):
        spectrum(m3_diamond)


# -- stone embedding ---------------------------------------------------------------


def test_stone_isomorphism_up_to_six(lattices_6):
    for lat in lattices_6:
        report = verify_stone_embedding(lat)
        assert report.ok, (lat, report.violations)


def test_stone_implication_identity(chain3):
    spec = spectrum(chain3)
    m_to_bottom = chain3.implies_table[1][0]
    assert m_to_bottom == 0
    want = interior(
        spec.space, complement(spec.space, spec.beta[1]) | spec.beta[0]
    )
    assert spec.beta[m_to_bottom] == want


def test_open_implication_matches_the_interior():
    """U → V read off the smallest open neighbourhoods is the interior of
    (X∖U) ∪ V, for every pair of opens of every spectrum up to 12
    elements, and those neighbourhoods are the ones the opens give."""
    for lat in enumerate_distributive_lattices(12):
        space = spectrum(lat).space
        assert space.min_open == topology._smallest_around(space.points, space.opens), lat
        for u in space.opens:
            for v in space.opens:
                assert open_implication(space, u, v) == interior(space, ~u | v), (lat, u, v)


def test_a_spectrum_works_out_its_neighbourhoods_once(monkeypatch, boolean4):
    """generate_from_basis intersects the basis around each point once,
    and the space keeps those rows as its min_open."""
    calls = []
    smallest_around = topology._smallest_around

    def counted(points, family):
        calls.append(points)
        return smallest_around(points, family)

    monkeypatch.setattr(topology, "_smallest_around", counted)
    assert spectrum(boolean4).space.min_open == (0b01, 0b10)
    assert calls == [2]


def test_verify_stone_catches_a_wrong_implication_table(wrong_implication, capsys):
    """β(a→b) is compared with an implication computed in the spectral
    space, not with a second lattice's implies_table."""
    assert main(["verify", "stone", "--max-size", "4"]) == 1
    out = capsys.readouterr().out
    assert "  beta(a→b) != spectral implication at (0, 0)" in out.splitlines()
    assert "all embeddings are isomorphisms" not in out


# -- induced maps --------------------------------------------------------------------


def test_identity_induces_identity(chain3):
    im = induced_map(check_hom([0, 1, 2], chain3, chain3), spectrum(chain3), spectrum(chain3))
    assert im.point_map == (0, 1)
    assert im.continuous and im.identity_ok


def test_collapse_hom_induced_point(chain3):
    im = induced_map(check_hom([0, 1, 1], chain3, chain(2)), spectrum(chain3), spectrum(chain(2)))
    # oracle: the preimage of {⊤} under m↦⊤ is {m, ⊤}
    assert im.source_spec.points[im.point_map[0]] == 0b110
    assert im.continuous and im.identity_ok


def test_preimage_of_prime_filter_is_prime(lattices_6):
    small = [lat for lat in lattices_6 if lat.n <= 5]
    for src in small:
        for dst in small:
            for hom in enumerate_homs(src, dst):
                for p in spectrum(dst).points:
                    pre = 0
                    for a in range(src.n):
                        if (p >> hom.map[a]) & 1:
                            pre |= 1 << a
                    assert is_prime_filter(src, FilterOrIdeal(src, pre, "filter"))


def test_pullback_matches_its_definition():
    for f in product(range(3), repeat=3):
        for mask in range(8):
            members = {y for y in range(3) if mask & (1 << y)}
            assert pullback(f, mask) == mask_of(x for x in range(3) if f[x] in members)


def test_transpose_matches_its_definition():
    """Every bit matrix with up to 3 rows of width up to 3."""
    for width in range(4):
        for height in range(4):
            for rows in product(range(1 << width), repeat=height):
                cols = transpose(rows, width)
                assert cols == [
                    mask_of(i for i in range(height) if (rows[i] >> j) & 1)
                    for j in range(width)
                ]
                assert transpose(cols, height) == list(rows)


def test_translate_table_maps_its_values_and_fixes_every_other_byte():
    """Every list of at most 3 values drawn from 0, 1, 2, 128 and 255."""
    for length in range(4):
        for values in product((0, 1, 2, 128, 255), repeat=length):
            table = translate_table(values)
            assert len(table) == 256
            assert all(table[i] == values[i] for i in range(length))
            assert all(table[i] == i for i in range(length, 256))
            tail = bytes([128 + i for i in range(length)] + [0xFF])
            assert tail.translate(table) == tail


def test_induced_point_missing_from_the_given_spectrum(chain3):
    phi = check_hom([0, 1, 1], chain3, chain(2))
    # φ⁻¹({⊤}) = {m, ⊤} is a prime filter of the 3-chain ...
    assert is_prime_filter(chain3, FilterOrIdeal(chain3, 0b110, "filter"))
    # ... but no point of the 2-chain's spectrum, passed in as the source's
    with pytest.raises(WrongKind):
        induced_map(phi, spectrum(chain(2)), spectrum(chain(2)))


def test_beta_identity_for_all_homs(lattices_6):
    small = [lat for lat in lattices_6 if lat.n <= 4]
    for src in small:
        for dst in small:
            sh, sk = spectrum(src), spectrum(dst)
            for hom in enumerate_homs(src, dst):
                im = induced_map(hom, sh, sk)
                assert im.continuous and im.identity_ok


def test_contravariance_on_sample(chain3):
    two = chain(2)
    square = build_lattice(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    triples = [(two, chain3, square), (chain3, two, chain3), (square, chain3, two)]
    for h, k, l in triples:
        sh, sk, sl = spectrum(h), spectrum(k), spectrum(l)
        for f in enumerate_homs(h, k):
            i_f = induced_map(f, sh, sk)
            for g in enumerate_homs(k, l):
                i_g = induced_map(g, sk, sl)
                i_gf = induced_map(compose(g, f), sh, sl)
                assert i_gf.point_map == tuple(
                    i_f.point_map[i_g.point_map[x]] for x in range(len(i_g.point_map))
                )


# -- open map criterion -----------------------------------------------------------------


def test_identity_map_all_three(sierpinski):
    verdict = open_map_criterion([0, 1], sierpinski, sierpinski)
    assert verdict["continuous"] and verdict["open"]
    assert verdict["induces_heyting_hom"] and verdict["agrees_with_criterion"]


def test_constant_to_closed_point(sierpinski):
    # oracle: exhaustive subset check — preimages of ∅, {0}, X are ∅, ∅, X
    # (all open), images are {1} (not open)
    verdict = open_map_criterion([1, 1], sierpinski, sierpinski)
    assert verdict["continuous"]
    assert not verdict["open"]
    assert not verdict["induces_heyting_hom"]
    assert verdict["agrees_with_criterion"]


def test_open_subspace_inclusion(sierpinski):
    point = validate_topology(1, [0b0, 0b1])
    verdict = open_map_criterion([0], point, sierpinski)
    assert verdict["continuous"] and verdict["open"]
    assert verdict["induces_heyting_hom"] and verdict["agrees_with_criterion"]


def _criterion_disagreements(spaces) -> tuple[int, int]:
    """(maps checked, maps where the criterion disagrees) over every
    point map from one of the given spaces to one of them."""
    checked = disagree = 0
    for src in spaces:
        for dst in spaces:
            for f in product(range(dst.points), repeat=src.points):
                checked += 1
                disagree += not open_map_criterion(f, src, dst)["agrees_with_criterion"]
    return checked, disagree


def test_criterion_agreement_exhaustive():
    """On T0 spaces a map induces a Heyting hom exactly when it is
    continuous and open: every map between the 24 T0 classes on 1..4
    points (a class stands for all its homeomorphic copies)."""
    t0 = [c.space for m in range(1, 5) for c in space_classes(m) if len(c.skeleton) == m]
    assert len(t0) == 24
    assert _criterion_disagreements(t0) == (79128, 0)


def test_criterion_needs_t0():
    """Over all 13 classes on 1..3 points, T0 or not, 575 maps break it."""
    spaces = [c.space for m in range(1, 4) for c in space_classes(m)]
    assert len(spaces) == 13
    assert _criterion_disagreements(spaces) == (2728, 575)


def test_point_into_indiscrete_pair_induces_a_hom_but_is_not_open():
    """The preimage map of the one-point space into the indiscrete pair
    sends ∅ and X to ∅ and the point: an isomorphism of two-element
    algebras, though the image {0} is not open."""
    point, indiscrete = validate_topology(1, [0b0, 0b1]), validate_topology(2, [0b00, 0b11])
    assert open_map_criterion([0], point, indiscrete) == {
        "continuous": True,
        "open": False,
        "induces_heyting_hom": True,
        "agrees_with_criterion": False,
    }


def test_criterion_does_not_read_the_lattice_table(wrong_implication, discrete2, sierpinski):
    """The identity from the discrete two-point space onto Sierpiński
    space is continuous but not open, so its preimage map is no Heyting
    hom: {0} → ∅ is ∅ in Sierpiński space but {1} in the discrete one."""
    verdict = open_map_criterion([0, 1], discrete2, sierpinski)
    assert verdict["continuous"] and not verdict["open"]
    assert not verdict["induces_heyting_hom"]
    assert verdict["agrees_with_criterion"]


def test_map_must_be_total(sierpinski):
    with pytest.raises(ValueError):
        open_map_criterion([0], sierpinski, sierpinski)
    with pytest.raises(ValueError):
        open_map_criterion([0, 5], sierpinski, sierpinski)
