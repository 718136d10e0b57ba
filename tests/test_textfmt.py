import pytest

from biheyt import (
    FiniteLattice,
    FiniteSpace,
    KripkeModel,
    ParseError,
    chain,
    enumerate_topologies,
    format_lattice_text,
    format_model_text,
    format_space_text,
    load_structure,
    parse_lattice_text,
    parse_model_text,
    parse_space_text,
    worked_examples,
)
from biheyt.lattice import enumerate_distributive_lattices
from biheyt.textfmt import parse_int


@pytest.mark.parametrize("text,value", [("0", 0), ("12", 12), ("-3", -3), ("007", 7)])
def test_parse_int_takes_ascii_digits(text, value):
    assert parse_int(text) == value


@pytest.mark.parametrize("text", ["", "-", "+1", "1_0", " 1", "1 ", "\u0661", "\u00b2", "--1", "0x1"])
def test_parse_int_refuses_what_int_would_stretch(text):
    with pytest.raises(ValueError):
        parse_int(text)


def test_lattice_round_trip():
    for lat in enumerate_distributive_lattices(5):
        assert parse_lattice_text(format_lattice_text(lat)) == lat


def test_lattice_parse_basic():
    lat = parse_lattice_text("lattice n=3\nle 0 1\nle 1 2\n")
    assert lat == chain(3)


def test_lattice_parse_comments_and_blanks():
    lat = parse_lattice_text("# a chain\nlattice n=2\n\nle 0 1  # cover\n")
    assert lat == chain(2)


@pytest.mark.parametrize(
    "text,line",
    [
        ("", None),
        ("lattice n=x", 1),
        ("lattice n=2\nle 0", 2),
        ("lattice n=2\nle 0 5", 2),
        ("lattice n=2\nedge 0 1", 2),
        ("space m=2\nle 0 1", 2),
        ("space m=3\nopen 000\nopen 3", 3),
        ("space m=3\nopen 0 -1", 2),
        ("space m=3\nopen x", 2),
        ("space m=3\nopen 0111", 2),
        ("frame n=2\nval p: \u00b2", 2),
        ("frame n=2\nedge 0 1\nval p: w\u00b2", 3),
    ],
)
def test_parse_errors_carry_line(text, line):
    with pytest.raises(ParseError) as exc:
        if text.startswith("space"):
            parse_space_text(text)
        elif text.startswith("frame"):
            parse_model_text(text)
        else:
            parse_lattice_text(text)
    assert exc.value.line_no == line


@pytest.mark.parametrize("parse", [parse_lattice_text, parse_space_text, parse_model_text])
def test_empty_file_names_no_line(parse):
    with pytest.raises(ParseError) as exc:
        parse("# nothing here\n")
    assert exc.value.line_no is None
    assert str(exc.value).startswith("empty ")


def test_space_round_trip():
    for m in range(1, 5):
        for sp in enumerate_topologies(m):
            assert parse_space_text(format_space_text(sp)) == sp


def test_space_parse_patterns_and_point_lists(threepoint):
    by_pattern = parse_space_text(
        "space m=3\nopen 000\nopen 100\nopen 110\nopen 111\n"
    )
    by_points = parse_space_text(
        "space m=3\nopen\nopen 0\nopen 0 1\nopen 0 1 2\n"
    )
    assert by_pattern == by_points == threepoint


def test_space_parse_preorder_block(threepoint):
    sp = parse_space_text("space m=3\npreorder 1 0\npreorder 2 1\n")
    assert sp == threepoint


def test_space_parse_long_preorder_chain():
    # the opens are built from the 30 up-sets, not by a scan of 2^30 subsets
    text = "space m=30\n" + "".join(f"preorder {i} {i + 1}\n" for i in range(29))
    sp = parse_space_text(text)
    assert len(sp.opens) == 31
    assert sp.opens == tuple(((1 << 30) - 1) & ~((1 << i) - 1) for i in range(30, -1, -1))


def test_space_mixed_lines_rejected():
    with pytest.raises(ParseError):
        parse_space_text("space m=2\nopen 01\npreorder 0 1\n")


def test_model_round_trip():
    m1, m2 = worked_examples()
    for model in (m1, m2):
        assert parse_model_text(format_model_text(model)) == model


def test_model_repeated_val_line_is_an_error():
    """A second val line for an atom is refused instead of replacing the first."""
    with pytest.raises(ParseError) as exc:
        parse_model_text("frame n=2\nedge 0 1\nval p: 0\n# p again\nval p: 1\n")
    assert exc.value.line_no == 5
    assert "atom 'p' has more than one val line" in str(exc.value)
    model = parse_model_text("frame n=2\nval p: 0\nval q: 1\n")
    assert model.valuation == {"p": 0b01, "q": 0b10}


def test_model_parse_w_names():
    model = parse_model_text("frame n=2\nedge 0 1\nval p: w1\nval q:\n")
    assert model.frame.edges() == [(0, 1)]
    assert model.valuation == {"p": 0b10, "q": 0}


def test_load_structure_dispatch(tmp_path):
    lat_file = tmp_path / "c.lat"
    lat_file.write_text("lattice n=2\nle 0 1\n")
    spc_file = tmp_path / "s.spc"
    spc_file.write_text("space m=2\nopen 00\nopen 01\nopen 11\n")
    frm_file = tmp_path / "f.frm"
    frm_file.write_text("frame n=1\nedge 0 0\nval p: 0\n")
    assert isinstance(load_structure(str(lat_file)), FiniteLattice)
    assert isinstance(load_structure(str(spc_file)), FiniteSpace)
    assert isinstance(load_structure(str(frm_file)), KripkeModel)


def test_load_structure_builtins():
    assert isinstance(load_structure("chain3"), FiniteLattice)
    assert isinstance(load_structure("threepoint"), FiniteSpace)
    assert isinstance(load_structure("sierpinski"), FiniteSpace)
    assert isinstance(load_structure("example1"), KripkeModel)
    assert isinstance(load_structure("example2"), KripkeModel)


def test_load_structure_missing():
    with pytest.raises(ParseError):
        load_structure("no-such-thing")


def test_load_structure_bad_header(tmp_path):
    f = tmp_path / "x"
    f.write_text("# one\n# two\nposet n=2\n")
    with pytest.raises(ParseError) as exc:
        load_structure(str(f))
    assert str(exc.value) == "line 3: unknown structure header 'poset'"


def test_validation_errors_propagate(tmp_path):
    f = tmp_path / "bad.spc"
    f.write_text("space m=2\nopen 01\nopen 11\n")
    from biheyt import MissingEmptyOrFull

    with pytest.raises(MissingEmptyOrFull):
        load_structure(str(f))
