from functools import cached_property

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
from biheyt.cli import main
from biheyt.lattice import FiniteLattice
from biheyt.quotient import FilterOrIdeal


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


def test_verify_stone_catches_a_wrong_implication_table(wrong_implication, capsys):
    """β(a→b) is compared with an implication computed in the spectral
    space, not with a second lattice's implies_table."""
    assert main(["verify", "stone", "--max-size", "4"]) == 1
    out = capsys.readouterr().out
    assert "  beta(a→b) != spectral implication at (0, 0)" in out.splitlines()
    assert "all embeddings are isomorphisms" not in out


# -- induced maps --------------------------------------------------------------------


def test_identity_induces_identity(chain3):
    im = induced_map(check_hom([0, 1, 2], chain3, chain3))
    assert im.point_map == (0, 1)
    assert im.continuous and im.identity_ok


def test_collapse_hom_induced_point(chain3):
    im = induced_map(check_hom([0, 1, 1], chain3, chain(2)))
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


def test_criterion_agreement_exhaustive(sierpinski, discrete2, threepoint):
    spaces = [sierpinski, discrete2, threepoint, validate_topology(1, [0, 1])]
    for src in spaces:
        for dst in spaces:
            for bits in range(dst.points ** src.points):
                f = []
                x = bits
                for _ in range(src.points):
                    f.append(x % dst.points)
                    x //= dst.points
                verdict = open_map_criterion(f, src, dst)
                assert verdict["agrees_with_criterion"], (src, dst, f, verdict)


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
