import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from biheyt import kripke_eval, parse_formula, topo_eval, topology
from biheyt.bitsets import mask_of, pattern
from biheyt.cli import main
from biheyt.formulas import compile_formula
from biheyt.textfmt import load_structure
from reference_labelled import reference_verify_dual_laws, reference_verify_s4

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture()
def chain_file(tmp_path):
    f = tmp_path / "chain3.lat"
    f.write_text("lattice n=3\nle 0 1\nle 1 2\n")
    return str(f)


@pytest.fixture()
def space_file(tmp_path):
    f = tmp_path / "three.spc"
    f.write_text("space m=3\nopen 000\nopen 100\nopen 110\nopen 111\n")
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- structure commands ---------------------------------------------------------


def test_lattice_check(capsys, chain_file):
    code, out, _ = run(capsys, "lattice", "check", chain_file)
    assert code == 0
    assert "lattice n=3: valid" in out
    assert "distributive: yes" in out
    assert "boolean: no" in out


def test_lattice_check_invalid(capsys, tmp_path):
    f = tmp_path / "bad.lat"
    f.write_text("lattice n=4\nle 0 1\nle 0 2\n")
    code, out, err = run(capsys, "lattice", "check", str(f))
    assert code == 2
    assert "no unique join" in err


def test_lattice_spectrum(capsys, chain_file):
    code, out, _ = run(capsys, "lattice", "spectrum", chain_file)
    assert code == 0
    assert out.splitlines()[0] == "space m=2"
    assert "beta 2 11" in out


def test_lattice_quotient(capsys, chain_file):
    code, out, _ = run(capsys, "lattice", "quotient", chain_file, "--by-ideal", "0,1")
    assert code == 0
    assert "lattice n=2" in out
    assert "project 1 0" in out


def test_lattice_quotient_by_filter(capsys, chain_file):
    code, out, _ = run(capsys, "lattice", "quotient", chain_file, "--by-filter", "1,2")
    assert code == 0
    assert "lattice n=2" in out


@pytest.mark.parametrize("option, value, message", [
    ("--by-ideal", "5", "element 5 out of range 0..2"),
    ("--by-filter", "7", "element 7 out of range 0..2"),
    ("--by-ideal", "-1", "element -1 out of range 0..2"),
    ("--by-filter", "-2", "element -2 out of range 0..2"),
    ("--by-ideal", "", "[] is not a proper nonempty ideal"),
    ("--by-filter", "", "[] is not a proper nonempty filter"),
])
def test_lattice_quotient_rejects_bad_elements(capsys, chain_file, option, value, message):
    code, out, err = run(capsys, "lattice", "quotient", chain_file, option, value)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_space_check(capsys, space_file):
    code, out, _ = run(capsys, "space", "check", space_file)
    assert code == 0
    assert "valid" in out
    assert "open 110" in out


def test_space_check_union_witness(capsys, tmp_path):
    f = tmp_path / "bad.spc"
    f.write_text("space m=3\nopen 000\nopen 100\nopen 010\nopen 111\n")
    code, out, err = run(capsys, "space", "check", str(f))
    assert code == 2
    assert "union" in err and "not open" in err


def test_space_opens_and_closeds(capsys, space_file):
    code, out, _ = run(capsys, "space", "opens", space_file)
    assert code == 0
    assert "lattice n=4" in out and "subset 3 111" in out
    code, out, _ = run(capsys, "space", "closeds", space_file)
    assert code == 0
    assert "subset 1 001" in out


# -- verify suites -----------------------------------------------------------------


def test_verify_dual_laws(capsys):
    code, out, _ = run(capsys, "verify", "dual-laws", "--points", "3")
    assert code == 0
    assert "excluded middle" in out
    assert "conjunctive dual De Morgan" in out
    assert "boundary idempotence" in out
    assert "paraconsistency witness" in out
    assert "34 spaces checked" in out


def test_verify_stone(capsys):
    code, out, _ = run(capsys, "verify", "stone", "--max-size", "5")
    assert code == 0
    assert "all embeddings are isomorphisms" in out


def test_verify_functoriality(capsys):
    code, out, _ = run(capsys, "verify", "functoriality", "--max-size", "3")
    assert code == 0
    assert "all contravariant" in out


def test_verify_functoriality_at_the_cap(capsys):
    code, out, _ = run(capsys, "verify", "functoriality", "--max-size", "6")
    assert code == 0
    assert out == ("identities: 13, beta identities: 2655, compositions: 755348, "
                   "all contravariant\n")
    code, out, _ = run(capsys, "verify", "functoriality", "--max-size", "7")
    assert code == 0
    assert out == ("identities: 21, beta identities: 18724, compositions: 23913274, "
                   "all contravariant\n")
    code, out, err = run(capsys, "verify", "functoriality", "--max-size", "8")
    assert code == 2
    assert out == ""
    assert "exceeds configured bound 7" in err


def _corrupt_point_map(induced_map):
    def corrupt(phi, *spectra):
        im = induced_map(phi, *spectra)
        # the 3-chain onto the 2-chain: the f of one block per lattice,
        # and a g in every block whose f goes into the 3-chain
        if phi.map == (0, 1, 1):
            points = len(im.source_spec.points)
            return im._replace(point_map=tuple((x + 1) % points for x in im.point_map))
        return im
    return corrupt


def _drop_a_hom(enumerate_homs):
    # (0, 0, 1) is (0, 1, 1) after (0, 0, 2), both still enumerated
    return lambda h, k: [phi for phi in enumerate_homs(h, k) if phi.map != (0, 0, 1)]


def _functoriality_violations(capsys, monkeypatch, name, patched):
    import biheyt.cli as cli

    monkeypatch.setattr(cli, name, patched(getattr(cli, name)))
    code, out, _ = run(capsys, "verify", "functoriality", "--max-size", "3")
    assert code == 1
    *violations, summary = out.splitlines()
    assert summary.endswith(", violations found")
    return violations


def test_functoriality_reports_a_corrupted_point_map(capsys, monkeypatch):
    violations = _functoriality_violations(capsys, monkeypatch, "induced_map",
                                           _corrupt_point_map)
    assert violations and all(v.startswith("composition violation: ") for v in violations)


def test_functoriality_reports_a_composite_missing_from_the_homs(capsys, monkeypatch):
    violations = _functoriality_violations(capsys, monkeypatch, "enumerate_homs",
                                           _drop_a_hom)
    assert violations
    assert all(v.startswith("composition violation: ") and
               v.endswith("composes to no enumerated hom") for v in violations)


def test_functoriality_reports_a_discontinuous_induced_map(capsys, monkeypatch):
    def patched(induced_map):
        def discontinuous(phi, *spectra):
            return induced_map(phi, *spectra)._replace(continuous=phi.map != (0, 1, 1))
        return discontinuous

    violations = _functoriality_violations(capsys, monkeypatch, "induced_map", patched)
    assert violations == ["beta identity violation for LatticeHom((0, 1, 1), flavor='lattice')"]


def reference_verify_functoriality(max_size, out):
    """The body of `verify functoriality` as one Python step per
    composable pair: g∘f is built as a tuple and looked up in the table
    of its pair, and Spec(f)∘Spec(g) is built from the point maps. It
    calls its callees through biheyt.cli, so a patch there patches both
    routes."""
    import biheyt.cli as cli

    lattices = cli.enumerate_distributive_lattices(max_size)
    spectra = {id(lat): cli.spectrum(lat) for lat in lattices}
    induced = {}
    exit_code = 0
    identity_checked = composition_checked = beta_checked = 0
    for h in lattices:
        for k in lattices:
            induced[(id(h), id(k))] = {
                phi.map: cli.induced_map(phi, spectra[id(h)], spectra[id(k)])
                for phi in cli.enumerate_homs(h, k)
            }
    for lat in lattices:
        im = induced[(id(lat), id(lat))].get(tuple(range(lat.n)))
        identity_checked += 1
        if im is None or im.point_map != tuple(range(len(spectra[id(lat)].points))):
            exit_code = 1
            out.text(f"identity map violation on n={lat.n}")
    for h in lattices:
        for k in lattices:
            for im in induced[(id(h), id(k))].values():
                beta_checked += 1
                if not (im.continuous and im.identity_ok):
                    exit_code = 1
                    out.text(f"beta identity violation for {im.hom!r}")
    for h in lattices:
        for k in lattices:
            for f, i_f in induced[(id(h), id(k))].items():
                for l in lattices:
                    from_h = induced[(id(h), id(l))]
                    for g, i_g in induced[(id(k), id(l))].items():
                        i_gf = from_h.get(tuple(map(g.__getitem__, f)))
                        composition_checked += 1
                        if i_gf is None:
                            exit_code = 1
                            out.text(f"composition violation: {i_f.hom!r} ; {i_g.hom!r} "
                                     f"composes to no enumerated hom")
                        elif i_gf.point_map != tuple(map(i_f.point_map.__getitem__,
                                                         i_g.point_map)):
                            exit_code = 1
                            out.text(f"composition violation: {i_f.hom!r} ; {i_g.hom!r}")
    out.text(f"identities: {identity_checked}, beta identities: {beta_checked}, "
             f"compositions: {composition_checked}, "
             f"{'all contravariant' if exit_code == 0 else 'violations found'}")
    out.record(record="functoriality", identities=identity_checked,
               beta=beta_checked, compositions=composition_checked,
               ok=exit_code == 0)
    return exit_code


violation_patches = pytest.mark.parametrize("patches", [
    {"induced_map": _corrupt_point_map},
    {"enumerate_homs": _drop_a_hom},
    {"induced_map": _corrupt_point_map, "enumerate_homs": _drop_a_hom},
], ids=["corrupted point map", "dropped hom", "both"])


@violation_patches
def test_functoriality_violations_match_the_per_pair_loop(capsys, monkeypatch, patches):
    import biheyt.cli as cli

    for name, patched in patches.items():
        monkeypatch.setattr(cli, name, patched(getattr(cli, name)))
    for size in (3, 4, 5):
        for fmt in ("human", "json"):
            got = run(capsys, "--format", fmt, "verify", "functoriality",
                      "--max-size", str(size))[:2]
            assert got[0] == 1, (size, fmt)
            assert got == run_reference(capsys, reference_verify_functoriality, size, fmt), \
                (size, fmt)


def _certified(max_size):
    """Whether the bulk composition certificate of `verify
    functoriality` holds at max_size. Its inputs are built through
    biheyt.cli's callees, so a patch there reaches them."""
    import biheyt.cli as cli

    lattices = cli.enumerate_distributive_lattices(max_size)
    spectra = [cli.spectrum(lat) for lat in lattices]
    indices = range(len(lattices))
    induced = {(i, j): {phi.map: cli.induced_map(phi, spectra[i], spectra[j])
                        for phi in cli.enumerate_homs(lattices[i], lattices[j])}
               for i in indices for j in indices}
    return cli._compositions_certified(spectra, induced)


def test_the_composition_certificate_holds_through_size_6():
    assert all(_certified(size) for size in range(1, 7))


@violation_patches
def test_the_composition_certificate_fails_under_each_patch(monkeypatch, patches):
    import biheyt.cli as cli

    for name, patched in patches.items():
        monkeypatch.setattr(cli, name, patched(getattr(cli, name)))
    assert not _certified(3)


@pytest.mark.parametrize("world", ["\u00b2", "w\u00b2"])
def test_model_file_with_a_non_ascii_digit_is_an_input_error(capsys, tmp_path, world):
    f = tmp_path / "bad.frm"
    f.write_text(f"frame n=2\nedge 0 1\nval p: {world}\n", encoding="utf-8")
    code, out, err = run(capsys, "modal", "eval", "--model", str(f), "--formula", "p")
    assert code == 2
    assert out == ""
    assert err == f"error: line 3: bad world {world!r} in val line\n"


def test_model_file_with_a_repeated_val_line_is_an_input_error(capsys, tmp_path):
    f = tmp_path / "twice.frm"
    f.write_text("frame n=2\nedge 0 1\nval p: 0\nval p: 1\n", encoding="utf-8")
    code, out, err = run(capsys, "modal", "eval", "--model", str(f), "--formula", "p")
    assert (code, out) == (2, "")
    assert err == "error: line 4: atom 'p' has more than one val line\n"


def test_verify_stone_at_the_cap(capsys):
    code, out, _ = run(capsys, "verify", "stone", "--max-size", "16")
    assert code == 0
    assert out.splitlines()[-1].startswith("3635 lattices checked")
    code, _, err = run(capsys, "verify", "stone", "--max-size", "17")
    assert code == 2
    assert "exceeds configured bound 16" in err


def test_verify_s4(capsys):
    code, out, _ = run(capsys, "verify", "s4", "--points", "3")
    assert code == 0
    assert "T reflection" in out
    assert "34 spaces checked" in out


def test_verify_s4_reports_each_schema_on_its_own(capsys, monkeypatch):
    import biheyt.cli as cli
    from biheyt.modal import S4_SCHEMAS

    real = cli.s4_axiom_suite

    def t_fails(structure):
        return [
            rep._replace(violations=((0, 0),))
            if rep.name == "T reflection" else rep
            for rep in real(structure)
        ]

    monkeypatch.setattr(cli, "s4_axiom_suite", t_fails)
    code, out, _ = run(capsys, "--format", "json", "verify", "s4", "--points", "2")
    assert code == 1
    verdicts = {
        rec["schema"]: rec["ok"]
        for rec in map(json.loads, out.splitlines())
        if rec["record"] == "s4-schema"
    }
    assert verdicts == {name: name != "T reflection" for name, _ in S4_SCHEMAS}
    code, out, _ = run(capsys, "verify", "s4", "--points", "2")
    assert code == 1
    lines = [line for line in out.splitlines() if "valuations:" in line]
    assert len(lines) == len(S4_SCHEMAS)
    for line in lines:
        assert line.endswith("see failures" if "T reflection" in line else "pass")


@pytest.mark.parametrize("argv", [
    ("verify", "stone", "--max-size", "0"),
    ("verify", "s4", "--points", "-2"),
    ("verify", "dual-laws", "--points", "0"),
    ("verify", "functoriality", "--max-size", "-1"),
    ("search", "--formula", "p", "--max-points", "0"),
    ("search", "--formula", "p", "--max-points", "-1"),
])
def test_empty_range_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "empty range" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("modal", "eval", "--model=example1", "--formula=p", "--world=--"),
    ("modal", "eval", "--model=--", "--formula=p"),
    ("eval", "--algebra=chain3", "--formula=--"),
    ("eval", "--algebra=chain3", "--formula=p", "--assign=--"),
    ("lattice", "quotient", "chain3.lat", "--by-ideal=--"),
])
def test_bare_double_dash_value_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "'--' is not a value" in capsys.readouterr().err


def _no_enumeration(*_args, **_kwargs):
    raise AssertionError("spaces were enumerated past the cap")


@pytest.mark.parametrize("suite", ["s4", "dual-laws"])
def test_verify_suites_refuse_points_above_the_cap_up_front(capsys, monkeypatch, suite):
    import biheyt.cli as cli

    assert topology.MAX_SUITE_POINTS == 5
    monkeypatch.setattr(cli, "space_classes", _no_enumeration)
    code, out, err = run(capsys, "verify", suite, "--points", "6")
    assert code == 2
    assert out == ""
    assert "points 6 exceeds configured bound 5" in err


@pytest.mark.parametrize("suite", ["s4", "dual-laws"])
def test_verify_suites_run_at_the_cap(capsys, monkeypatch, suite):
    import biheyt.cli as cli

    monkeypatch.setattr(topology, "MAX_SUITE_POINTS", 3)
    code, out, _ = run(capsys, "verify", suite, "--points", "3")
    assert code == 0
    assert out.splitlines()[-1] == "34 spaces checked"
    monkeypatch.setattr(cli, "space_classes", _no_enumeration)
    code, out, err = run(capsys, "verify", suite, "--points", "4")
    assert code == 2
    assert out == ""
    assert "points 4 exceeds configured bound 3" in err


def run_reference(capsys, reference, points, fmt):
    import biheyt.cli as cli

    code = reference(points, cli._Output(fmt))
    return code, capsys.readouterr().out


def assert_suite_matches_reference(capsys, suite, points):
    reference = {"s4": reference_verify_s4, "dual-laws": reference_verify_dual_laws}[suite]
    for fmt in ("human", "json"):
        got = run(capsys, "--format", fmt, "verify", suite, "--points", str(points))[:2]
        assert got == run_reference(capsys, reference, points, fmt), (suite, points, fmt)


@pytest.mark.parametrize("suite", ["s4", "dual-laws"])
def test_verify_suites_match_the_labelled_loop(capsys, suite):
    for points in (1, 2, 3, 4):
        assert_suite_matches_reference(capsys, suite, points)


def test_verify_s4_names_each_failing_class(capsys, monkeypatch):
    """The B axiom holds on the symmetric spaces only. Each failing class
    is named once, by its representative and orbit, and the counts are
    those of the labelled loop."""
    import biheyt.modal as modal

    b = parse_formula("p -> []<>p")
    monkeypatch.setattr(modal, "S4_SCHEMAS", (*modal.S4_SCHEMAS, ("B symmetry", b)))
    monkeypatch.setattr(modal, "_S4_PROGRAMS", [*modal._S4_PROGRAMS,
                                                compile_formula(b, "kripke", ("p", "q"))[0]])
    code, out, _ = run(capsys, "verify", "s4", "--points", "3")
    want_code, want = run_reference(capsys, reference_verify_s4, 3, "human")
    assert code == want_code == 1
    failures = [line for line in out.splitlines() if line.startswith("schema ")]
    assert all(line.startswith("schema B symmetry fails") for line in failures)
    assert len(failures) == (1 + 3 + 9) - (1 + 2 + 3)  # classes that are not equivalences
    orbits = [int(re.search(r"class of (\d+) spaces$", line)[1]) for line in failures]
    assert sum(orbits) == (1 + 4 + 29) - (1 + 2 + 5)  # labelled spaces likewise
    kept = [line for line in want.splitlines() if not line.startswith("schema ")]
    assert [line for line in out.splitlines() if not line.startswith("schema ")] == kept
    got = run(capsys, "--format", "json", "verify", "s4", "--points", "3")[:2]
    assert got == run_reference(capsys, reference_verify_s4, 3, "json")


def test_verify_dual_laws_failing_law_matches_the_labelled_loop(capsys, monkeypatch):
    """Noncontradiction a ∧ ∼a = ⊥ in place of the excluded middle: it
    fails off the Boolean lattices, and its first witness is named on a
    labelled space."""
    import biheyt.cli as cli
    from biheyt.duallogic import LawReport

    def noncontradiction(lat):
        bad = tuple((a,) for a in range(lat.n)
                    if lat.meet[a][lat.conot_table[a]] != lat.bottom)
        return LawReport("noncontradiction", lat.n, bad)

    monkeypatch.setattr(cli, "check_lem", noncontradiction)
    assert_suite_matches_reference(capsys, "dual-laws", 3)
    code, out, _ = run(capsys, "verify", "dual-laws", "--points", "3")
    assert code == 1
    assert "noncontradiction" in out


def test_env_cap_only_lowers_the_suite_cap(capsys, monkeypatch):
    monkeypatch.setenv("BIHEYT_MAX_POINTS", "9")
    code, out, err = run(capsys, "verify", "s4", "--points", "6")
    assert code == 2 and out == ""
    assert "exceeds configured bound 5" in err


# -- modal ----------------------------------------------------------------------------


def test_modal_eval_world(capsys):
    code, out, _ = run(
        capsys, "modal", "eval", "--model", "example1",
        "--formula", "<>p & <>!p", "--world", "w0",
    )
    assert code == 0
    assert out.strip() == "true"


def test_modal_eval_false_world(capsys):
    code, out, _ = run(
        capsys, "modal", "eval", "--model", "example1", "--formula", "p", "--world", "0"
    )
    assert code == 1
    assert out.strip() == "false"


def test_modal_eval_all_worlds(capsys):
    code, out, _ = run(
        capsys, "modal", "eval", "--model", "example2", "--formula", "<>p | <>q"
    )
    assert code == 0
    assert out.splitlines() == ["w0 true", "w1 true", "w2 true"]


def test_modal_eval_space_with_assignment(capsys):
    code, out, _ = run(
        capsys, "modal", "eval", "--model", "threepoint",
        "--formula", "<>p", "--assign", "p=110",
    )
    assert code == 0
    assert out.strip() == "111"


def test_modal_valid(capsys):
    code, out, _ = run(
        capsys, "modal", "valid", "--model", "example1",
        "--formula", "[]p -> p", "--alphabet", "p",
    )
    assert code == 0
    assert "valid" in out and "S4" in out


def test_modal_invalid(capsys):
    code, out, _ = run(
        capsys, "modal", "valid", "--model", "example1", "--formula", "p"
    )
    assert code == 1
    assert "invalid" in out


def test_modal_valid_empty_alphabet_is_frame_validity_over_no_atoms(capsys):
    """--alphabet '' names no atoms, like --alphabet ','; it does not fall
    back to validity in the model, whose valuation binds p."""
    code, out, err = run(
        capsys, "modal", "valid", "--model", "example1", "--formula", "p", "--alphabet", ""
    )
    assert (code, out, err) == (2, "", "error: atom 'p' has no assigned value\n")
    code, out, _ = run(
        capsys, "modal", "valid", "--model", "example1", "--formula", "T", "--alphabet", ""
    )
    assert (code, out) == (0, "frame validity: valid (frame class S4)\n")


def test_search_exit_codes(capsys):
    code, out, _ = run(
        capsys, "search", "--formula", "p | !p",
        "--semantics", "intuitionistic", "--max-points", "2",
    )
    assert code == 1
    assert "falsified at" in out
    code, out, _ = run(
        capsys, "search", "--formula", "p | !p", "--max-points", "2"
    )
    assert code == 0
    assert "no countermodel" in out


@pytest.mark.parametrize("semantics, formula", [
    ("classical", "a | !a | b | c | d | e | f | g | h"),
    ("frame", "a | !a | b | c | d | e | f | g | h"),
    ("intuitionistic", "a -> (a | b | c | d | e | f | g | h)"),
    ("dual", "a | ~a | b | c | d | e | f | g | h"),
])
def test_search_refuses_more_valuation_bits_than_the_bound(capsys, semantics, formula):
    """Eight atoms hold on every structure of 1 and 2 points; 3 points
    would be 24 bits of valuations, above modal.MAX_VALUATION_BITS."""
    started = time.perf_counter()
    code, out, err = run(capsys, "search", "--formula", formula,
                         "--semantics", semantics, "--max-points", "4")
    assert time.perf_counter() - started < 1
    assert (code, out) == (2, "")
    assert "valuation space bits 24 exceeds configured bound 22" in err


def test_search_refuted_below_the_valuation_bound_keeps_its_witness(capsys):
    code, out, _ = run(capsys, "search", "--formula", "a & b & c & d & e & f & g & h & i",
                       "--max-points", "4")
    vals = "".join(f"val {a}: \n" for a in "abcdefghi")
    assert (code, out) == (1, f"space m=1\nopen\nopen 0\n{vals}falsified at 0\n")


@pytest.mark.parametrize("semantics", ["classical", "intuitionistic", "dual"])
def test_search_refuses_require_off_the_frame_route(capsys, semantics):
    code, out, err = run(capsys, "search", "--formula", "p", "--semantics", semantics,
                         "--require", "reflexive")
    assert (code, out) == (2, "")
    assert "frame properties need frame semantics" in err


def rieger_nishimura(n):
    """R0 = p, R1 = !p, R(2k+2) = R(2k) | R(2k+1), R(2k+3) = R(2k+2) -> R(2k)."""
    ladder = ["p", "!p"]
    while len(ladder) <= n:
        k = len(ladder)
        if k % 2 == 0:
            ladder.append(f"({ladder[k - 2]}) | ({ladder[k - 1]})")
        else:
            ladder.append(f"({ladder[k - 1]}) -> ({ladder[k - 3]})")
    return ladder[n]


@pytest.mark.parametrize("n, want", [
    (0, "space m=1\nopen\nopen 0\nval p: \nfalsified at 0\n"),
    (2, "space m=2\nopen 00\nopen 10\nopen 11\nval p: 0\nfalsified at 1\n"),
    (4, "space m=3\nopen 000\nopen 100\nopen 010\nopen 110\nopen 111\n"
        "val p: 0\nfalsified at 2\n"),
    (6, "space m=4\nopen 0000\nopen 1000\nopen 0100\nopen 1100\nopen 1010\n"
        "open 1110\nopen 1111\nval p: 0\nfalsified at 3\n"),
    (8, "no countermodel within 4 points\n"),
])
def test_rieger_nishimura_ladder_is_refuted_first_at_its_rung(capsys, n, want):
    """R(2N-2) holds on every space of fewer than N points and fails on one
    of N points; the first witness is the T0 route's first failing space."""
    code, out, _ = run(capsys, "search", "--formula", rieger_nishimura(n),
                       "--semantics", "intuitionistic", "--max-points", "4")
    assert (code, out) == (1 if n < 8 else 0, want)


@pytest.mark.parametrize("n, want", [
    (8, "space m=5\nopen 00000\nopen 10000\nopen 01000\nopen 11000\nopen 10100\n"
        "open 11100\nopen 11010\nopen 11110\nopen 11111\nval p: 0\nfalsified at 4\n"),
    (10, "no countermodel within 5 points\n"),
])
def test_rieger_nishimura_ladder_reaches_five_points(capsys, n, want):
    """Space searches run to 5 points: R8 is refuted first there, on the
    first labelled space of its class, and R10 holds up to it."""
    code, out, _ = run(capsys, "search", "--formula", rieger_nishimura(n),
                       "--semantics", "intuitionistic", "--max-points", "5")
    assert (code, out) == (1 if n < 10 else 0, want)


def test_modal_search_alias_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["modal", "search", "--formula", "p"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_search_frame_mode(capsys):
    code, out, _ = run(
        capsys, "search", "--formula", "[]p -> [][]p",
        "--semantics", "frame", "--max-points", "3", "--require", "reflexive",
    )
    assert code == 1
    assert "frame n=3" in out


@pytest.mark.parametrize("semantics", ["frame", "classical"])
def test_search_rejects_unsupported_connective(capsys, semantics):
    """∧ must not short-circuit past ~ on the sweep routes."""
    code, out, err = run(
        capsys, "search", "--semantics", semantics, "--formula", "p & ~p",
        "--max-points", "2",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: connective 'conot'")


def test_search_unknown_frame_property(capsys):
    code, out, err = run(
        capsys, "search", "--semantics", "frame", "--formula", "[]p -> p",
        "--require", "reflexiv",
    )
    assert code == 2
    assert out == ""
    assert "unknown frame property 'reflexiv'" in err


@pytest.mark.parametrize("semantics, bound", [
    ("frame", 4), ("classical", 5), ("intuitionistic", 5)],
    ids=["frame", "classical", "intuitionistic"])
def test_search_above_library_bound(capsys, monkeypatch, semantics, bound):
    """--max-points is checked against the library bound (4 worlds for
    frames, 5 points for spaces); BIHEYT_MAX_POINTS can only lower it.
    "p" fails on the first structure, so a missing guard returns at once."""
    monkeypatch.setenv("BIHEYT_MAX_POINTS", "9")
    code, out, err = run(
        capsys, "search", "--semantics", semantics, "--formula", "p",
        "--max-points", str(bound + 1),
    )
    assert code == 2
    assert out == ""
    assert f"{bound + 1} exceeds configured bound {bound}" in err
    monkeypatch.setenv("BIHEYT_MAX_POINTS", "2")
    with pytest.raises(SystemExit) as exc:
        main(["search", "--semantics", semantics, "--formula", "p", "--max-points", "3"])
    assert exc.value.code == 2
    assert "BIHEYT_MAX_POINTS=2" in capsys.readouterr().err


DEEP = 100_000  # nesting levels, far past the default recursion limit


@pytest.mark.parametrize("argv, code, want", [
    (("eval", "--algebra", "chain3", "--formula", "!" * DEEP + "p", "--assign", "p=1"),
     0, "2\n"),
    (("search", "--formula", "!" * DEEP + "p", "--max-points", "1"), 1, "falsified at 0\n"),
], ids=["eval", "search"])
def test_deep_formula_gets_a_verdict(capsys, argv, code, want):
    """Run in process: the parser, the compiler and the evaluators all
    keep explicit stacks."""
    assert sys.getrecursionlimit() < DEEP
    got, out, err = run(capsys, *argv)
    assert (got, err) == (code, "")
    assert out.endswith(want)


@pytest.mark.parametrize("structure, deep, shallow, p_points", [
    ("example1", "[]" * DEEP + "<>p", "[]<>p", None),
    ("threepoint", "<>" * DEEP + "!p", "<>!p", (0,)),
    ("threepoint", "!" * DEEP + "([]p -> p)", "[]p -> p", (1,)),
], ids=["example1", "threepoint-dia", "threepoint-t"])
def test_deep_modal_eval_matches_the_references(capsys, structure, deep, shallow, p_points):
    """□ and ◇ are idempotent in S4 and ¬ is an involution, so the deep
    formula means the shallow one, which the recursive references
    kripke_eval and topo_eval evaluate."""
    assert sys.getrecursionlimit() < DEEP
    phi, st = parse_formula(shallow), load_structure(structure)
    argv = ["modal", "eval", "--model", structure, "--formula", deep]
    if p_points is None:
        truth = [kripke_eval(st, w, phi) for w in range(st.frame.worlds)]
        want = "".join(f"w{w} {str(t).lower()}\n" for w, t in enumerate(truth))
    else:
        argv += ["--assign", "p=" + ",".join(map(str, p_points))]
        value = topo_eval(st, {"p": mask_of(p_points)}, phi)
        truth = [value == st.full]
        want = pattern(value, st.points) + "\n"
    assert run(capsys, *argv) == (0 if all(truth) else 1, want, "")


@pytest.mark.parametrize("argv", [
    ("modal", "eval", "--model", "example1", "--formula", "p & ~p", "--world", "w0"),
    ("modal", "eval", "--model", "example1", "--formula", "p & ~p"),
    ("modal", "valid", "--model", "example1", "--formula", "p & ~p"),
    ("modal", "eval", "--model", "example1", "--formula", "T | r", "--world", "w0"),
    ("modal", "eval", "--model", "example1", "--formula", "T | r"),
    ("modal", "valid", "--model", "example1", "--formula", "T | r"),
])
def test_modal_model_routes_reject_before_evaluating(capsys, argv):
    """∧ and ∨ must not short-circuit past ~ or an unbound atom."""
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "'conot'" in err or "'r' has no assigned value" in err


def test_modal_eval_rejects_repeated_assignment(capsys):
    code, out, err = run(
        capsys, "modal", "eval", "--model", "threepoint", "--formula", "<>p",
        "--assign", "p=110", "--assign", "p=100",
    )
    assert code == 2
    assert out == ""
    assert "atom 'p' is assigned more than once" in err


@pytest.mark.parametrize("argv,message", [
    (("--model", "example1", "--formula", "p", "--assign", "p=0,1,2", "--world", "w0"),
     "--assign needs a space"),
    (("--model", "example1", "--formula", "p", "--assign", "p=0"), "--assign needs a space"),
    (("--model", "threepoint", "--formula", "p", "--assign", "p=110", "--world", "w2"),
     "--world needs a Kripke model"),
])
def test_modal_eval_rejects_the_flag_that_does_not_fit(capsys, argv, message):
    code, out, err = run(capsys, "modal", "eval", *argv)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("command", [
    ("modal", "eval", "--model", "threepoint", "--formula", "!p"),
    ("modal", "eval", "--model", "threepoint", "--formula", "p"),
    ("eval", "--algebra", "threepoint", "--formula", "p"),
])
@pytest.mark.parametrize("value,message", [
    ("7", "point 7 out of range 0..2"),
    ("0,1,2,5", "point 5 out of range 0..2"),
    ("0,x", "bad point 'x'"),
    ("1011", "point 1011 out of range 0..2"),
])
def test_subset_values_are_range_checked(capsys, command, value, message):
    code, out, err = run(capsys, *command, "--assign", f"p={value}")
    assert code == 2
    assert out == ""
    assert err == f"error: bad value in 'p={value}': {message}\n"


def test_subset_values_by_points_and_by_pattern_agree(capsys):
    for value in ("0,1", "0 1", "110", "1,0,1"):
        code, out, _ = run(capsys, "modal", "eval", "--model", "threepoint",
                           "--formula", "p", "--assign", f"p={value}")
        assert (code, out) == (1, "110\n")


# -- algebra eval -----------------------------------------------------------------------


def test_eval_intuitionistic_subset(capsys):
    code, out, _ = run(
        capsys, "eval", "--algebra", "threepoint",
        "--formula", "p | !p", "--assign", "p=100",
    )
    assert code == 1
    assert out.strip() == "100"


def test_eval_dual_auto(capsys):
    code, out, _ = run(
        capsys, "eval", "--algebra", "threepoint",
        "--formula", "p | ~p", "--assign", "p=011",
    )
    assert code == 0
    assert out.strip() == "111"


def test_eval_lattice_elements(capsys, chain_file):
    code, out, _ = run(
        capsys, "eval", "--algebra", chain_file,
        "--formula", "!!p", "--assign", "p=1",
    )
    assert code == 0
    assert out.strip() == "2"


def test_eval_rejects_non_element(capsys):
    code, out, err = run(
        capsys, "eval", "--algebra", "threepoint",
        "--formula", "p", "--assign", "p=010",
    )
    assert code == 2
    assert "not an open set" in err


def test_eval_rejects_repeated_assignment(capsys):
    code, out, err = run(
        capsys, "eval", "--algebra", "chain3", "--formula", "p",
        "--assign", "p=1", "--assign", "p=2",
    )
    assert code == 2
    assert out == ""
    assert "atom 'p' is assigned more than once" in err


@pytest.mark.parametrize("argv, item", [
    (("eval", "--algebra", "chain3", "--formula", "T", "--assign", " = 1"), "' = 1'"),
    (("modal", "eval", "--model", "threepoint", "--formula", "p",
      "--assign", "p=0,1,2", "--assign", "=1"), "'=1'"),
])
def test_assignment_must_name_an_atom(capsys, argv, item):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"assignment {item} is not of the form atom=value" in err


def test_eval_refuses_non_distributive_lattice(capsys, tmp_path):
    f = tmp_path / "m3.lat"
    f.write_text("lattice n=5\nle 0 1\nle 0 2\nle 0 3\nle 1 4\nle 2 4\nle 3 4\n")
    code, out, err = run(capsys, "eval", "--algebra", str(f), "--formula", "p",
                         "--assign", "p=1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: distributivity fails at (1, 2, 3)")


# -- output modes and determinism ----------------------------------------------------------


def test_json_mode(capsys, chain_file):
    code, out, _ = run(capsys, "--format", "json", "lattice", "check", chain_file)
    assert code == 0
    record = json.loads(out.strip())
    assert record == {
        "record": "lattice-check",
        "n": 3,
        "valid": True,
        "distributive": True,
        "boolean": False,
    }


def test_json_search(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "search", "--formula", "!!p -> p",
        "--semantics", "intuitionistic", "--max-points", "2",
    )
    assert code == 1
    record = json.loads(out.strip())
    assert record["found"] is True and record["point"] == 1


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "verify", "dual-laws", "--points", "3")
    _, second, _ = run(capsys, "verify", "dual-laws", "--points", "3")
    assert first == second


def test_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("BIHEYT_MAX_POINTS", "2")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "s4", "--points", "4"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lattice", "check"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "s4", "--points", "3", "--bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "lattice", "check", "/nonexistent/file.lat")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("content", [None, b"\xff\xfelattice n=2\n"],
                         ids=["directory", "not-utf8"])
def test_unreadable_file_is_input_error(capsys, tmp_path, content):
    path = tmp_path
    if content is not None:
        path = tmp_path / "bad.lat"
        path.write_bytes(content)
    code, out, err = run(capsys, "lattice", "check", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read ")


@pytest.mark.parametrize("content, message", [
    (None, "no such file or built-in structure: "),
    ("", "empty structure file"),
    ("# only a comment\n\n", "empty structure file"),
], ids=["missing", "empty", "comment-only"])
def test_file_level_errors_name_no_line(capsys, tmp_path, content, message):
    path = tmp_path / "x.lat"
    if content is not None:
        path.write_text(content)
    code, out, err = run(capsys, "lattice", "check", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")


# -- integers are ASCII digits -------------------------------------------------------


@pytest.mark.parametrize("command,text,message", [
    (("lattice", "check"), "lattice n=2\nle 0 ١\n",
     "error: line 2: bad element index in 'le 0 ١'\n"),
    (("lattice", "check"), "lattice n=٢\n", "error: line 1: bad count in 'n=٢'\n"),
    (("space", "check"), "space m=11\npreorder 1_0 0\n",
     "error: line 2: bad point index in 'preorder 1_0 0'\n"),
    (("space", "check"), "space m=2\nopen +1\n", "error: line 2: bad point '+1'\n"),
    (("modal", "eval", "--formula", "p", "--model"), "frame n=2\nedge 0 ١\n",
     "error: line 2: bad world index in 'edge 0 ١'\n"),
])
def test_structure_file_integers_are_ascii_digits(capsys, tmp_path, command, text, message):
    f = tmp_path / "bad.txt"
    f.write_text(text, encoding="utf-8")
    assert run(capsys, *command, str(f)) == (2, "", message)


@pytest.mark.parametrize("argv,message", [
    (("lattice", "quotient", "chain3", "--by-ideal", "١"), "bad element list"),
    (("eval", "--algebra", "chain3", "--formula", "p", "--assign", "p=1_0"),
     "bad element '1_0'"),
    (("modal", "eval", "--model", "example1", "--formula", "p", "--world", "w١"),
     "bad world 'w١'"),
    (("modal", "eval", "--model", "threepoint", "--formula", "p", "--assign", "p=١"),
     "bad point '١'"),
])
def test_argument_integers_are_ascii_digits(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("value", ["٣", "1_0", "+3"])
def test_size_options_take_ascii_digits_only(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "s4", "--points", value])
    assert exc.value.code == 2
    assert f"invalid int value: {value!r}" in capsys.readouterr().err


def test_env_cap_takes_ascii_digits_only(capsys, monkeypatch):
    monkeypatch.setenv("BIHEYT_MAX_POINTS", "٣")
    code, out, err = run(capsys, "verify", "s4", "--points", "2")
    assert (code, out) == (2, "")
    assert err == "error: BIHEYT_MAX_POINTS='٣' is not an integer\n"


# -- the process around main ---------------------------------------------------------


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # stdout block-buffered, as in a plain shell, so the output still
    # buffered when the process ends is exercised
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _discrete_space_file(tmp_path):
    """The discrete space on 15 points: `space check` prints its 32,768
    opens, 32,770 lines, far more than a pipe holds."""
    f = tmp_path / "discrete.spc"
    f.write_text("space m=15\npreorder 0 0\n")
    return str(f)


def test_closed_stdout_exits_2_without_a_traceback(tmp_path):
    """A reader that stops early, like `| head -3`. The output (32,770
    lines) is far larger than a pipe holds, so the write fails in main."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "biheyt.cli", "space", "check", _discrete_space_file(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_subprocess_env(),
    )
    head = [proc.stdout.readline() for _ in range(3)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert head == [b"space m=15\n", b"open 000000000000000\n", b"open 100000000000000\n"]
    assert err == b""


@pytest.mark.parametrize("argv, unbuffered", [
    pytest.param(["--help"], None, id="argv0"),
    pytest.param(["verify", "--help"], None, id="argv1"),
    pytest.param(["--help"], "1", id="argv0-unbuffered"),
    pytest.param(["verify", "--help"], "1", id="argv1-unbuffered"),
])
def test_help_to_a_closed_stdout_exits_2_without_a_traceback(argv, unbuffered):
    """Block-buffered, the help text is still buffered when argparse
    exits, so the pipe is found closed only by the last flush of the
    process; with PYTHONUNBUFFERED=1 argparse's own write fails."""
    env = _subprocess_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "biheyt.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, b"")


EXIT_CONTRACT_COMMANDS = [
    # argv, exit code with stderr closed
    (["--help"], 0),
    (["nope"], 2),
    (["verify", "s4", "--points", "0"], 2),
    (["lattice", "check", "."], 2),
    (["space", "check", "DISCRETE"], 0),
    (["search", "--formula", "!!p -> p", "--semantics", "intuitionistic",
      "--max-points", "2"], 1),
    (["verify", "stone", "--max-size", "3"], 0),
]


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("closed", ["stdout", "stderr"])
@pytest.mark.parametrize("argv, stderr_closed_code", EXIT_CONTRACT_COMMANDS,
                         ids=lambda v: "-".join(v)[:24] if isinstance(v, list) else None)
def test_exit_code_contract_with_a_closed_stream(tmp_path, argv, stderr_closed_code,
                                                 closed, unbuffered):
    """A pre-closed pipe as stdout makes every command exit 2; as stderr
    it changes no exit code: the verdict stays, and an error whose message
    cannot be written still exits 2 (not 120, from a failed flush at
    interpreter exit)."""
    argv = [_discrete_space_file(tmp_path) if a == "DISCRETE" else a for a in argv]
    env = _subprocess_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, closed: write_end}
    try:
        proc = subprocess.run([sys.executable, "-m", "biheyt.cli", *argv],
                              env=env, timeout=60, **streams)
    finally:
        os.close(write_end)
    assert proc.returncode == (2 if closed == "stdout" else stderr_closed_code)
    assert b"Traceback" not in (proc.stderr or b"")


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["verify", "s4", "--points", "0"], 2),
    (["search", "--formula", "p", "--max-points", "1"], 1),
    (["space", "check", "DISCRETE"], 0),
])
def test_process_exit_loses_no_output(capsys, monkeypatch, tmp_path, argv, code):
    """`python -m biheyt.cli` ends with os._exit: its exit code, stdout
    and stderr are those of main in this process, byte for byte."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    argv = [_discrete_space_file(tmp_path) if a == "DISCRETE" else a for a in argv]
    try:
        in_process = main(argv)
    except SystemExit as exc:
        in_process = exc.code
    captured = capsys.readouterr()
    proc = subprocess.run([sys.executable, "-m", "biheyt.cli", *argv],
                          capture_output=True, env=_subprocess_env(), timeout=60)
    assert in_process == proc.returncode == code
    assert proc.stdout == captured.out.encode()
    assert proc.stderr == captured.err.encode()
    if argv[0] == "space":
        assert proc.stdout.count(b"\n") == 32_770
    if code == 2:
        assert b"error: argument --points: 0 gives an empty range" in proc.stderr


def test_cli_import_loads_no_source_inspection_modules():
    """`import dataclasses` pulls in inspect, ast, dis and tokenize, and
    `json` is not needed even for --format json (cli._json writes the
    records); every short run would otherwise pay for them at start-up."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import biheyt.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=_subprocess_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "biheyt.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize", "json",
                        "argparse", "gettext", "locale"}


@pytest.mark.parametrize("argv, by_argparse", [
    (["--format", "json", "search", "--formula", "!!p -> p", "--semantics",
      "intuitionistic", "--max-points", "3"], False),
    (["verify", "s4"], False),
    (["verify", "s4", "--points=2"], True),  # `=`-joined: argparse reads it
    (["--help"], True),
])
def test_a_well_formed_command_loads_neither_argparse_nor_json(argv, by_argparse):
    """cli._read reads a well-formed argv from the command table, so
    argparse (with gettext and locale) is loaded only for help, usage
    errors and the spellings that only argparse reads."""
    script = (
        "import sys\n"
        "from biheyt.cli import main\n"
        "try:\n"
        "    main(sys.argv[1:])\n"
        "except SystemExit:\n"
        "    pass\n"
        "sys.stdout.flush()\n"
        "print(*sorted({'argparse', 'gettext', 'locale', 'json'} & set(sys.modules)),"
        " file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=_subprocess_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout
    loaded = set(proc.stderr.split())
    assert "argparse" in loaded if by_argparse else loaded == set()
