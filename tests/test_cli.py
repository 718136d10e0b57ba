import json

import pytest

from biheyt.cli import main


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
    import dataclasses

    import biheyt.cli as cli
    from biheyt.modal import S4_SCHEMAS

    real = cli.s4_axiom_suite

    def t_fails(structure, bound):
        return [
            dataclasses.replace(rep, violations=((0, 0),))
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


DEEP = "!" * 3000 + "p"


@pytest.mark.parametrize("argv", [
    ("search", "--formula", DEEP, "--max-points", "1"),
    ("modal", "eval", "--model", "example1", "--formula", DEEP),
    ("eval", "--algebra", "chain3", "--formula", DEEP),
])
def test_deep_formula_is_an_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: formula nests too deeply\n"


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
