import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from biheyt import kripke_eval, parse_formula, topo_eval
from biheyt.bitsets import mask_of, pattern
from biheyt.catalog import builtin
from biheyt.cli import main
from biheyt.formulas import compile_formula
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
    code, out, err = run(capsys, "verify", "functoriality", "--max-size", "7")
    assert code == 2
    assert out == ""
    assert "exceeds configured bound 6" in err


def _functoriality_violations(capsys, monkeypatch, name, patched):
    import biheyt.cli as cli

    monkeypatch.setattr(cli, name, patched(getattr(cli, name)))
    code, out, _ = run(capsys, "verify", "functoriality", "--max-size", "3")
    assert code == 1
    *violations, summary = out.splitlines()
    assert summary.endswith(", violations found")
    return violations


def test_functoriality_reports_a_corrupted_point_map(capsys, monkeypatch):
    def patched(induced_map):
        def corrupt(phi, *spectra):
            im = induced_map(phi, *spectra)
            if phi.map == (0, 1, 1):  # 3-chain onto 2-chain: sends the point elsewhere
                points = len(im.source_spec.points)
                im.point_map = tuple((x + 1) % points for x in im.point_map)
            return im
        return corrupt

    violations = _functoriality_violations(capsys, monkeypatch, "induced_map", patched)
    assert violations and all(v.startswith("composition violation: ") for v in violations)


def test_functoriality_reports_a_composite_missing_from_the_homs(capsys, monkeypatch):
    def patched(enumerate_homs):
        # (0, 0, 1) is (0, 1, 1) after (0, 0, 2), both still enumerated
        return lambda h, k: [phi for phi in enumerate_homs(h, k) if phi.map != (0, 0, 1)]

    violations = _functoriality_violations(capsys, monkeypatch, "enumerate_homs", patched)
    assert violations
    assert all(v.startswith("composition violation: ") and
               v.endswith("composes to no enumerated hom") for v in violations)


def test_functoriality_reports_a_discontinuous_induced_map(capsys, monkeypatch):
    def patched(induced_map):
        def discontinuous(phi, *spectra):
            im = induced_map(phi, *spectra)
            im.continuous = phi.map != (0, 1, 1)
            return im
        return discontinuous

    violations = _functoriality_violations(capsys, monkeypatch, "induced_map", patched)
    assert violations == ["beta identity violation for LatticeHom((0, 1, 1), flavor='lattice')"]


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
    code, out, _ = run(capsys, "verify", "stone", "--max-size", "12")
    assert code == 0
    assert out.splitlines()[-1].startswith("342 lattices checked")
    code, _, err = run(capsys, "verify", "stone", "--max-size", "13")
    assert code == 2
    assert "exceeds configured bound 12" in err


def test_verify_s4(capsys):
    code, out, _ = run(capsys, "verify", "s4", "--points", "3")
    assert code == 0
    assert "T reflection" in out
    assert "34 spaces checked" in out


def test_verify_s4_reports_each_schema_on_its_own(capsys, monkeypatch):
    import biheyt.cli as cli
    from biheyt.modal import S4_SCHEMAS

    real = cli.s4_axiom_suite

    def t_fails(structure, bound):
        return [
            rep._replace(violations=((0, 0),))
            if rep.name == "T reflection" else rep
            for rep in real(structure, bound=bound)
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
    ("modal", "search", "--formula", "p", "--max-points", "-1"),
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

    assert cli.MAX_SUITE_POINTS == 5
    monkeypatch.setattr(cli, "enumerate_topologies", _no_enumeration)
    code, out, err = run(capsys, "verify", suite, "--points", "6")
    assert code == 2
    assert out == ""
    assert "points 6 exceeds configured bound 5" in err


@pytest.mark.parametrize("suite", ["s4", "dual-laws"])
def test_verify_suites_run_at_the_cap(capsys, monkeypatch, suite):
    import biheyt.cli as cli

    monkeypatch.setattr(cli, "MAX_SUITE_POINTS", 3)
    code, out, _ = run(capsys, "verify", suite, "--points", "3")
    assert code == 0
    assert out.splitlines()[-1] == "34 spaces checked"
    monkeypatch.setattr(cli, "enumerate_topologies", _no_enumeration)
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


def test_search_frame_mode(capsys):
    code, out, _ = run(
        capsys, "modal", "search", "--formula", "[]p -> [][]p",
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


@pytest.mark.parametrize("semantics", ["frame", "classical", "intuitionistic"])
def test_search_above_library_bound(capsys, monkeypatch, semantics):
    """--max-points is checked against the library bound (4 worlds for
    frames, 4 points for spaces); BIHEYT_MAX_POINTS can only lower it.
    "p" fails on the first structure, so a missing guard returns at once."""
    monkeypatch.setenv("BIHEYT_MAX_POINTS", "9")
    code, out, err = run(
        capsys, "search", "--semantics", semantics, "--formula", "p",
        "--max-points", "5",
    )
    assert code == 2
    assert out == ""
    assert "5 exceeds configured bound 4" in err
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
    phi, st = parse_formula(shallow), builtin(structure)
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
    return env


def test_closed_stdout_exits_2_without_a_traceback(tmp_path):
    """A reader that stops early, like `| head -3`. The output (32,770
    lines) is far larger than a pipe holds, so the write fails in main."""
    f = tmp_path / "discrete.spc"
    f.write_text("space m=15\npreorder 0 0\n")
    proc = subprocess.Popen(
        [sys.executable, "-m", "biheyt.cli", "space", "check", str(f)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_subprocess_env(),
    )
    head = [proc.stdout.readline() for _ in range(3)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert head == [b"space m=15\n", b"open 000000000000000\n", b"open 100000000000000\n"]
    assert err == b""


def test_cli_import_loads_no_source_inspection_modules():
    """`import dataclasses` pulls in inspect, ast, dis and tokenize, which
    every short run would pay for at start-up."""
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
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}
