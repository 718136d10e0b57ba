import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from reference_parser import reference_parse, reference_render

from biheyt import (
    BOT,
    TOP,
    Formula,
    FormulaSyntaxError,
    atom,
    box,
    coimp,
    coneg,
    conj,
    dia,
    disj,
    imp,
    neg,
    parse_formula,
)
from biheyt.formulas import enumerate_formulas

p, q, r = atom("p"), atom("q"), atom("r")


@pytest.mark.parametrize(
    "text,expected",
    [
        ("<>p & <>!p", conj(dia(p), dia(neg(p)))),
        ("p -> q -> r", imp(p, imp(q, r))),
        ("[]p | q", disj(box(p), q)),
        ("p <- q <- r", coimp(coimp(p, q), r)),
        ("p & q | r", disj(conj(p, q), r)),
        ("!p & q", conj(neg(p), q)),
        ("~p | ~q", disj(coneg(p), coneg(q))),
        ("[](p -> q)", box(imp(p, q))),
        ("<><>p -> <>p", imp(dia(dia(p)), dia(p))),
        ("_|_ -> T", imp(BOT, TOP)),
        ("p -> q <- r", imp(p, coimp(q, r))),
        ("p <- q -> r", imp(coimp(p, q), r)),
        ("(p -> q) -> r", imp(imp(p, q), r)),
        ("◇p ∧ ◇¬p", conj(dia(p), dia(neg(p)))),
        ("□p → ⊥ ∨ ∼q", imp(box(p), disj(BOT, coneg(q)))),
        ("⊤ ← p", coimp(TOP, p)),
    ],
)
def test_parse(text, expected):
    assert parse_formula(text) == expected


def test_atoms_and_identifiers():
    assert parse_formula("Tx").name == "Tx"
    assert parse_formula("T") is TOP or parse_formula("T") == TOP
    assert parse_formula("p_1 & q2") == conj(atom("p_1"), atom("q2"))


@pytest.mark.parametrize(
    "text,position",
    [("p & ", 4), ("p q", 2), ("(p | q", 6), ("p # q", 2), ("", 0), ("&p", 0)],
)
def test_syntax_errors(text, position):
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula(text)
    assert exc.value.position == position
    assert exc.value.expected


def test_str_round_trip_exhaustive():
    kinds = ("not", "conot", "box", "dia", "and", "or", "imp", "coimp")
    for f in enumerate_formulas(2, ("p", "q"), kinds=kinds):
        assert parse_formula(str(f)) == f


def test_enumerate_counts():
    # leaves: p, q, ⊥, ⊤; 3 unary and 3 binary kinds by default
    sizes = {}
    for f in enumerate_formulas(2, ("p", "q")):
        sizes[f.connective_count()] = sizes.get(f.connective_count(), 0) + 1
    assert sizes[0] == 4
    assert sizes[1] == 3 * 4 + 3 * 16
    assert sizes[2] == 3 * 60 + 3 * 2 * 4 * 60


def test_atom_collection():
    f = parse_formula("p & (q -> <>r) | ~p")
    assert f.atoms() == {"p", "q", "r"}
    assert parse_formula("T & _|_").atoms() == set()


# -- the explicit-stack parser against the recursive reference ---------------

KINDS = ("not", "conot", "box", "dia", "and", "or", "imp", "coimp")
GLYPHS = {"!": "¬", "~": "∼", "[]": "□", "<>": "◇", "&": "∧", "|": "∨",
          "->": "→", "<-": "←", "_|_": "⊥", "T": "⊤"}
TOKENS = ["p", "q", "T", "Tx", "T_1", "_", "_q", "é", "ß2", "π", "x9",
          *GLYPHS, *GLYPHS.values(), "(", ")", " ", "\t", "-", "<", ">", "[", "]", "#", "1"]


def outcome(parse, text):
    """The parsed Formula, or the (position, expected, found) of the error."""
    try:
        return parse(text)
    except FormulaSyntaxError as err:
        return (err.position, err.expected, err.found)


def to_glyphs(text):
    return re.sub(r"_\|_|->|<-|<>|\[\]|[!~&|]|\bT\b", lambda m: GLYPHS[m.group()], text)


def test_parser_matches_reference_on_renderings():
    count = 0
    for f in enumerate_formulas(2, ("p", "q"), kinds=KINDS):
        for text in (str(f), to_glyphs(str(f))):
            assert outcome(parse_formula, text) == outcome(reference_parse, text) == f, text
            count += 1
    assert count == 2 * 2964


def test_parser_matches_reference_on_random_strings():
    rng = random.Random(8)
    parsed = 0
    for _ in range(20_000):
        text = "".join(rng.choice(TOKENS) for _ in range(rng.randint(0, 10)))
        got = outcome(parse_formula, text)
        assert got == outcome(reference_parse, text), text
        parsed += isinstance(got, Formula)
    assert parsed > 100  # the strings reach past the first error


def test_parser_error_positions():
    # a tokenizer error anywhere wins over an earlier syntax error
    assert outcome(parse_formula, "& #") == (2, "a connective, atom, or parenthesis", "#")
    assert outcome(parse_formula, "p ∧") == (3, "an atom, constant, unary connective, or '('",
                                             "end of input")
    assert outcome(parse_formula, "(p q)") == (3, "')'", "q")
    assert outcome(parse_formula, "p)") == (1, "end of input or a binary connective", ")")
    assert outcome(parse_formula, "p ⊤") == (2, "end of input or a binary connective", "T")


DEPTH = 100_000


def test_deep_nesting_parses_without_recursion():
    """Run under the default recursion limit: each shape is far deeper.
    Checked by walking the tree."""
    assert sys.getrecursionlimit() < DEPTH
    f = parse_formula("!" * DEPTH + "p")
    assert [g.kind for g in f.walk()] == ["not"] * DEPTH + ["atom"]
    assert parse_formula("(" * DEPTH + "p" + ")" * DEPTH) == p
    f = parse_formula(" -> ".join(["p"] * DEPTH))
    for _ in range(DEPTH - 1):
        assert f.kind == "imp" and f.args[0] == p
        f = f.args[1]
    assert f == p
    f = parse_formula(" <- ".join(["p"] * DEPTH))
    for _ in range(DEPTH - 1):
        assert f.kind == "coimp" and f.args[1] == p
        f = f.args[0]
    assert f == p


def test_str_eq_hash_match_the_tuple_versions_on_small_formulas():
    """The iterative __str__, == and hash against the recursive renderer
    and a fresh copy of each formula; distinct formulas stay distinct."""
    formulas = list(enumerate_formulas(2, ("p", "q"), kinds=KINDS))
    for f in formulas:
        text = str(f)
        assert text == reference_render(f)
        g = parse_formula(text)
        assert g == f and not g != f and hash(g) == hash(f)
    assert len(set(formulas)) == len(formulas)
    assert all(a != b and not a == b for a, b in zip(formulas, formulas[1:]))
    assert p == ("atom", "p", ()) and hash(p) == hash(("atom", "p", ()))
    plain = ("not", None, (("atom", "p", ()),))
    assert neg(p) != plain and plain != neg(p) and not neg(p) == plain and not plain == neg(p)
    assert len({neg(p), plain}) == 2


# The tuple hash crashes on the first shape at this depth; the others are
# past the recursion limit, which is all that == and str needed to fail.
DEEP_FORMULA_SCRIPT = f"""
import sys
from biheyt import parse_formula
assert sys.getrecursionlimit() < 5000
for text in ("!" * {DEPTH} + "p", " -> ".join(["p"] * 5000), "[]" * 5000 + "(p & q)"):
    a, b = parse_formula(text), parse_formula(text)
    other = parse_formula(text.replace("p", "r", 1))
    assert hash(a) == hash(b) and hash(a) != hash(other)
    assert a == b and not a != b
    assert a != other and not a == other
    assert str(a) == text
print("ok")
"""


def test_deep_formula_str_eq_hash_in_a_subprocess():
    """A crash in C (the tuple hash has no depth guard) fails this test
    instead of ending the test run."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", DEEP_FORMULA_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")


def test_round_trip_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    formulas = st.recursive(
        st.sampled_from([p, q, atom("Tx"), atom("_x"), BOT, TOP]),
        lambda sub: st.one_of(
            st.builds(lambda k, a: Formula(k, args=(a,)), st.sampled_from(KINDS[:4]), sub),
            st.builds(lambda k, a, b: Formula(k, args=(a, b)),
                      st.sampled_from(KINDS[4:]), sub, sub),
        ),
        max_leaves=12,
    )

    @hypothesis.settings(max_examples=500, deadline=None)
    @hypothesis.given(formulas)
    def round_trip(f):
        assert parse_formula(str(f)) == f
        assert parse_formula(to_glyphs(str(f))) == f

    round_trip()
