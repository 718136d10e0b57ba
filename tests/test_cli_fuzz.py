"""Property tests of the exit-code contract: every run exits 0, 1 or 2
and never raises. `modal eval` and `eval` run on the built-in
structures with drawn --formula, --assign and --world text; the
lattice, space, modal and eval commands run on drawn lattice, space
and frame files."""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from biheyt.textfmt import BUILTINS  # noqa: E402
from biheyt.cli import main  # noqa: E402

ATOMS = st.sampled_from(["p", "q", "r"])
CONSTANTS = st.sampled_from(["T", "_|_"])
FORMULAS = st.recursive(
    ATOMS | CONSTANTS,
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(["!", "~", "[]", "<>"]), sub).map(lambda t: t[0] + t[1]),
        st.tuples(sub, st.sampled_from([" & ", " | ", " -> ", " <- "]), sub).map(
            lambda t: f"({t[0]}{t[1]}{t[2]})"
        ),
    ),
    max_leaves=8,
)
# well-formed formulas and raw text over the formula alphabet
FORMULA_TEXT = FORMULAS | st.text("pqr()!~&|-<>[]T_ ", max_size=12)
VALUE_TEXT = st.text("0123457,x- w", max_size=6)
ASSIGN_TEXT = st.one_of(
    st.tuples(ATOMS, VALUE_TEXT).map(lambda t: f"{t[0]}={t[1]}"),
    st.text("pq=01,7 ", max_size=6),
)
WORLD_TEXT = st.one_of(
    st.integers(-1, 4).map(str),
    st.integers(-1, 4).map(lambda w: f"w{w}"),
    st.text("w0123x-", max_size=3),
)


def run_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse usage errors
            return exc.code


@settings(max_examples=300, deadline=None)
@given(
    command=st.sampled_from(["modal", "eval"]),
    structure=st.sampled_from(tuple(BUILTINS)),
    formula=FORMULA_TEXT,
    assigns=st.lists(ASSIGN_TEXT, max_size=3),
    world=st.none() | WORLD_TEXT,
)
def test_eval_commands_keep_the_exit_code_contract(command, structure, formula, assigns, world):
    if command == "modal":
        argv = ["modal", "eval", f"--model={structure}"]
        if world is not None:
            argv.append(f"--world={world}")
    else:
        argv = ["eval", f"--algebra={structure}"]
    argv.append(f"--formula={formula}")
    argv += [f"--assign={a}" for a in assigns]
    assert run_quietly(argv) in (0, 1, 2)


# -- structure files -------------------------------------------------------------
#
# Counts stay at most 6: a `space m=N` file with a preorder line has up
# to 2**N opens by definition, and every command below reads it whole.

JUNK = st.sampled_from(["-1", "7", "w3", "x", "1_0", "١", "+1", "", "01", "110", "0101"])
SMALL = st.integers(0, 2).map(str)
ELEMENT_LIST = st.lists(st.one_of(SMALL, SMALL, st.integers(-1, 7).map(str), JUNK),
                        max_size=3).map(",".join)
HEADERS = {"lattice": "lattice n=", "space": "space m=", "frame": "frame n="}
# command -> the structure kinds drawn for it; the last one is the wrong kind
COMMANDS = {
    ("lattice", "check"): ["lattice", "lattice", "space"],
    ("lattice", "spectrum"): ["lattice", "lattice", "frame"],
    ("lattice", "quotient"): ["lattice", "lattice", "space"],
    ("space", "check"): ["space", "space", "lattice"],
    ("space", "opens"): ["space", "space", "frame"],
    ("space", "closeds"): ["space", "space", "lattice"],
    ("modal", "eval"): ["frame", "space", "lattice"],
    ("modal", "valid"): ["frame", "frame", "space"],
    ("eval",): ["lattice", "space", "frame"],
}


@st.composite
def structure_text(draw, kind):
    """A file of the given kind on n <= 6 elements, points or worlds. A
    clean file has in-range lines of its own kind; a dirty one also has
    junk tokens, lines of another kind and wrong header counts."""
    dirty = draw(st.booleans())
    n = draw(st.integers(0 if dirty else 1, 6))
    valid = st.integers(0, max(n - 1, 0)).map(str)
    index = st.one_of(valid, valid, valid, JUNK) if dirty else valid
    pair = st.tuples(index, index).map(" ".join)
    bounded = draw(st.booleans())
    if kind == "lattice":
        lines = [f"le 0 {x}\nle {x} {n - 1}" for x in range(1, n - 1)] if bounded else []
        # a clean file orders each pair upwards, so it is acyclic
        upward = st.tuples(valid, valid).map(lambda t: " ".join(sorted(t, key=int)))
        own = (pair if dirty else upward).map("le {}".format)
    elif kind == "space" and draw(st.integers(0, 2)):
        lines, own = [], pair.map("preorder {}".format)
    elif kind == "space":
        lines = ["open", "open " + "1" * n] if bounded else []
        bits = st.text("01", min_size=n, max_size=n) | st.lists(index, max_size=3).map(" ".join)
        own = bits.map("open {}".format)
    else:
        lines = ["val p: 0", "val q:", "val r: 0"] if bounded else []
        worlds = st.lists(index | valid.map("w{}".format), max_size=3).map(" ".join)
        own = pair.map("edge {}".format) | st.tuples(st.sampled_from("pq"), worlds).map(
            lambda t: "val {}: {}".format(*t))
    if dirty:
        own = st.one_of(own, own, own, st.sampled_from(
            ["le 0 1", "open 1", "preorder 0 0", "edge 0 0", "val p: 0", "junk", "le", "val :"]))
    lines += draw(st.lists(own, max_size=8))
    count = draw(st.one_of(st.just(str(n)), st.just(str(n)), JUNK)) if dirty else str(n)
    return "\n".join([HEADERS[kind] + count, *lines]) + "\n"


@pytest.fixture(scope="module")
def structure_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "structure.txt"


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    command=st.sampled_from(sorted(COMMANDS)),
    elements=ELEMENT_LIST,
    by_filter=st.booleans(),
    formula=FORMULAS | FORMULA_TEXT,
    assigns=st.just(["p=0", "q=0", "r=0"]) | st.lists(
        ASSIGN_TEXT | st.sampled_from(["p=0", "q=1", "r=0", "p=0,1", "q="]), max_size=3),
    world=st.none() | WORLD_TEXT,
)
def test_structure_files_keep_the_exit_code_contract(
    structure_file, data, command, elements, by_filter, formula, assigns, world
):
    kind = data.draw(st.sampled_from(COMMANDS[command]))
    structure_file.write_text(data.draw(structure_text(kind)), encoding="utf-8")
    path = str(structure_file)
    if command == ("lattice", "quotient"):
        argv = [*command, path, f"--by-{'filter' if by_filter else 'ideal'}={elements}"]
    elif command[0] in ("lattice", "space"):
        argv = [*command, path]
    else:
        argv = [*command, "--model" if command[0] == "modal" else "--algebra", path,
                f"--formula={formula}"]
        if command == ("modal", "valid"):
            argv += ["--alphabet=p,q,r"] if by_filter else []
        else:
            argv += [f"--assign={a}" for a in assigns]
        if command == ("modal", "eval") and world is not None:
            argv.append(f"--world={world}")
    assert run_quietly(argv) in (0, 1, 2)
