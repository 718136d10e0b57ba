"""Property test of the exit-code contract: `modal eval` and `eval` on the
built-in structures, with drawn --formula, --assign and --world text,
exit 0, 1 or 2 and never raise."""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from biheyt.catalog import NAMES  # noqa: E402
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
    structure=st.sampled_from(NAMES),
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
