"""Golden transcript: the exact stdout and exit code of a fixed list of
commands, in both output formats, plus the stdout of every demo.

The expected bytes live in golden/transcript.json. They were recorded
before the evaluators were rewritten and pin what users see; an
intended change of output means re-recording them with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
TRANSCRIPT = GOLDEN / "transcript.json"

LATTICE = "two_by_three.lat"  # the product of a 2- and a 3-element chain
SPACE = "vee.spc"  # opens ∅, {1}, {0,1}, {1,2}, X

# algebra -> (intuitionistic assignment, dual assignment)
ALGEBRAS = {
    "chain3": (("p=1", "q=0"), ("p=1", "q=2")),
    "threepoint": (("p=0,1", "q=0"), ("p=1,2", "q=2")),
    SPACE: (("p=0,1", "q=1,2"), ("p=0", "q=2")),
    LATTICE: (("p=1", "q=4"), ("p=2", "q=3")),
}
FORMULAS = (
    "p", "T", "_|_", "p | !p", "!!p -> p", "p -> q", "(p -> q) | (q -> p)",
    "!(p & q) -> (!p | !q)", "p | ~p", "p & ~p", "~~p <- p", "p <- q",
    "~(p | q)", "(p <- q) & ~q", "[]p",
)
SEARCHES = (
    ("intuitionistic", "p | !p"), ("intuitionistic", "!!p -> p"),
    ("intuitionistic", "(p -> q) | (q -> p)"), ("intuitionistic", "p -> (q -> p)"),
    ("intuitionistic", "!!!p -> !p"), ("intuitionistic", "!(p | q) -> (!p & !q)"),
    ("dual", "p | ~p"), ("dual", "~(p & ~p)"), ("dual", "~~p <- p"),
    ("dual", "(p <- q) | q"), ("dual", "~(p & q) <- (~p | ~q)"),
    ("dual", "p <- (p | q)"),
)
MODAL = (
    ("example1", "<>p & <>!p"), ("example1", "[]p -> p"), ("example1", "p"),
    ("example1", "[](p -> []p)"), ("example2", "<>p | <>q"),
    ("example2", "[]p -> p"), ("example2", "<>(p & q) -> T"),
)


def commands() -> dict[str, list[list[str]]]:
    groups: dict[str, list[list[str]]] = {"eval": [], "structures": [], "verify": [],
                                          "search": [], "modal": []}
    for algebra, (intuitionistic, dual) in ALGEBRAS.items():
        for phi in FORMULAS:
            for semantics in ("auto", "intuitionistic", "dual"):
                is_dual = semantics == "dual" or (
                    semantics == "auto" and ("~" in phi or "<-" in phi))
                assigns = [a for name in (dual if is_dual else intuitionistic)
                           for a in ("--assign", name)]
                groups["eval"].append(["eval", "--algebra", algebra, "--formula", phi,
                                       "--semantics", semantics, *assigns])
    groups["eval"].append(["eval", "--algebra", "m3.lat", "--formula", "p",
                           "--assign", "p=1"])
    for space in ("threepoint", "sierpinski", SPACE):
        for which in ("opens", "closeds"):
            groups["structures"].append(["space", which, space])
    for lattice in ("chain3", LATTICE):
        groups["structures"].append(["lattice", "spectrum", lattice])
    groups["structures"] += [
        ["lattice", "quotient", "chain3", "--by-ideal", "0,1"],
        ["lattice", "quotient", LATTICE, "--by-ideal", "0,1"],
        ["lattice", "quotient", LATTICE, "--by-filter", "4,5"],
    ]
    groups["verify"] = [
        ["verify", "dual-laws", "--points", "3"],
        ["verify", "stone", "--max-size", "6"],
        ["verify", "s4", "--points", "3"],
    ]
    for semantics, phi in SEARCHES:
        for points in ("1", "3"):
            groups["search"].append(["search", "--semantics", semantics,
                                     "--formula", phi, "--max-points", points])
    for model, phi in MODAL:
        groups["modal"] += [
            ["modal", "eval", "--model", model, "--formula", phi, "--world", "w0"],
            ["modal", "eval", "--model", model, "--formula", phi],
            ["modal", "valid", "--model", model, "--formula", phi],
            ["modal", "valid", "--model", model, "--formula", phi, "--alphabet", "p,q"],
        ]
    for phi in ("<>p", "[]p -> p", "p -> []<>p", "!p | []p"):
        groups["modal"].append(["modal", "eval", "--model", "threepoint",
                                "--formula", phi, "--assign", "p=110"])
    return {
        group: [[*fmt, *argv] for argv in argvs for fmt in ([], ["--format", "json"])]
        for group, argvs in groups.items()
    }


def run_cli(argv: list[str]) -> dict:
    from biheyt.cli import main

    files = [str(GOLDEN / a) if a.endswith((".lat", ".spc")) else a for a in argv]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(files)
    return {"argv": argv, "code": code, "stdout": stdout.getvalue()}


def run_demo(name: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=120)
    return {"demo": name, "code": proc.returncode, "stdout": proc.stdout}


def record() -> dict:
    out = {group: [run_cli(argv) for argv in argvs]
           for group, argvs in commands().items()}
    out["demos"] = [run_demo(p.name) for p in sorted((ROOT / "demos").glob("*.py"))]
    return out


@pytest.fixture(scope="module")
def transcript():
    return json.loads(TRANSCRIPT.read_text(encoding="utf-8"))


@pytest.mark.parametrize("group", list(commands()))
def test_cli_transcript(transcript, group):
    expected = transcript[group]
    assert [e["argv"] for e in expected] == commands()[group]
    for want in expected:
        assert run_cli(want["argv"]) == want


def test_demo_transcript(transcript):
    for want in transcript["demos"]:
        assert run_demo(want["demo"]) == want


if __name__ == "__main__":
    TRANSCRIPT.write_text(json.dumps(record(), indent=1, ensure_ascii=False) + "\n",
                          encoding="utf-8")
