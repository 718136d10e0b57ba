"""The 16 value types share one base, records.Record: each is a tuple
with named fields that constructs, reads, compares, hashes, prints,
replaces and pickles as a typing.NamedTuple with the same fields."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from biheyt.duallogic import BooleanCriterion, LawReport
from biheyt.formulas import Formula, atom, imp
from biheyt.lattice import chain
from biheyt.modal import (
    AgreementResult,
    FrameClass,
    KripkeFrame,
    KripkeModel,
    SchemaReport,
    SearchResult,
)
from biheyt.quotient import Congruence, FilterOrIdeal, enumerate_homs
from biheyt.spectrum import InducedMap, SpectralSpace, StoneReport, spectrum
from biheyt.topology import FiniteSpace, Preorder, SpaceClass

SRC = Path(__file__).resolve().parent.parent / "src"

TWO = chain(2)
POINT = FiniteSpace(1, (0, 1))
FRAME = KripkeFrame(2, (1, 3))
SPEC = spectrum(TWO)

# Each type with the fields of one value and its pinned repr.
SAMPLES = [
    (Formula, ("atom", "p", ()), "Formula(kind='atom', name='p', args=())"),
    (LawReport, ("excluded middle", 2, ()),
     "LawReport(law='excluded middle', checked=2, violations=())"),
    (BooleanCriterion, (True, True, False),
     "BooleanCriterion(complemented=True, boundary_trivial=True, double_negation=False)"),
    (KripkeFrame, (2, (1, 3)), "KripkeFrame(worlds=2, rel=(1, 3))"),
    (KripkeModel, (FRAME, {"p": 1}),
     "KripkeModel(frame=KripkeFrame(worlds=2, rel=(1, 3)), valuation={'p': 1})"),
    (FrameClass, (True, True, False),
     "FrameClass(reflexive=True, transitive=True, symmetric=False)"),
    (SchemaReport, ("T", atom("p"), 4, ((0, 1),)),
     "SchemaReport(name='T', formula=Formula(kind='atom', name='p', args=()), checked=4, "
     "violations=((0, 1),))"),
    (SearchResult, (FRAME, {"p": 0}, 1),
     "SearchResult(structure=KripkeFrame(worlds=2, rel=(1, 3)), valuation={'p': 0}, point=1)"),
    (AgreementResult, (3, 10, None),
     "AgreementResult(distinct_values=3, formulas_checked=10, disagreement=None)"),
    (FilterOrIdeal, (TWO, 0b10, "filter"), "FilterOrIdeal(kind='filter', members=[1])"),
    (Congruence, (TWO, (0b01, 0b10)), "Congruence(blocks=[[0], [1]])"),
    (SpectralSpace, (TWO, (0b10,), POINT, (0, 1)),
     "SpectralSpace(base=FiniteLattice(n=2, covers=[(0, 1)]), points=(2,), "
     "space=FiniteSpace(points=1, opens=[0,1]), beta=(0, 1))"),
    (StoneReport, (["x"],), "StoneReport(violations=['x'])"),
    (InducedMap, (enumerate_homs(TWO, TWO)[0], SPEC, SPEC, (0,), True, True),
     "InducedMap(point_map=(0,), continuous=True, identity_ok=True)"),
    (Preorder, (2, (1, 3)), "Preorder(points=2, rel=(1, 3))"),
    (SpaceClass, (POINT, 1, (1,), (1,)),
     "SpaceClass(space=FiniteSpace(points=1, opens=[0,1]), orbit=1, skeleton=(1,), sizes=(1,))"),
]
FIELDS = {
    Formula: ("kind", "name", "args"),
    LawReport: ("law", "checked", "violations"),
    BooleanCriterion: ("complemented", "boundary_trivial", "double_negation"),
    KripkeFrame: ("worlds", "rel"),
    KripkeModel: ("frame", "valuation"),
    FrameClass: ("reflexive", "transitive", "symmetric"),
    SchemaReport: ("name", "formula", "checked", "violations"),
    SearchResult: ("structure", "valuation", "point"),
    AgreementResult: ("distinct_values", "formulas_checked", "disagreement"),
    FilterOrIdeal: ("lattice", "members", "kind"),
    Congruence: ("lattice", "blocks"),
    SpectralSpace: ("base", "points", "space", "beta"),
    StoneReport: ("violations",),
    InducedMap: ("hom", "source_spec", "target_spec", "point_map", "continuous", "identity_ok"),
    Preorder: ("points", "rel"),
    SpaceClass: ("space", "orbit", "skeleton", "sizes"),
}
each_type = pytest.mark.parametrize("cls, values, shown", SAMPLES, ids=[s[0].__name__ for s in SAMPLES])


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError:
        return TypeError


def test_every_value_type_is_sampled():
    assert len(SAMPLES) == len(FIELDS) == 16
    assert {cls for cls, _, _ in SAMPLES} == set(FIELDS)


@each_type
def test_construction_by_position_and_keyword(cls, values, shown):
    rec = cls(*values)
    assert type(rec) is cls and isinstance(rec, tuple)
    assert cls._fields == FIELDS[cls]
    assert tuple(getattr(rec, name) for name in cls._fields) == values
    assert cls(**dict(zip(cls._fields, values))) == rec
    assert cls(*values[:1], **dict(zip(cls._fields[1:], values[1:]))) == rec
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, **{cls._fields[0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values[:-1], nope=values[-1])


def test_formula_fills_its_defaults_and_keeps_its_own_equality():
    """A compound Formula equals no plain tuple and hashes its walk."""
    assert Formula("bot") == Formula("bot", None, ()) == ("bot", None, ())
    assert Formula("atom", name="p") == Formula("atom", "p", ())
    phi = imp(atom("p"), atom("q"))
    assert phi.args == (atom("p"), atom("q")) and phi == imp(atom("p"), atom("q"))
    assert phi != tuple(phi) and hash(phi) != hash(tuple(phi))
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'kind'"):
        Formula()
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'rel'"):
        KripkeFrame(2)


@each_type
def test_replace_changes_only_the_named_fields(cls, values, shown):
    rec = cls(*values)
    for i, name in enumerate(cls._fields):
        marker = object()
        changed = rec._replace(**{name: marker})
        assert type(changed) is cls
        assert tuple(changed) == values[:i] + (marker,) + values[i + 1:]
    assert rec._replace() == rec
    with pytest.raises(ValueError, match="nope"):
        rec._replace(nope=1)


@each_type
def test_reprs_are_pinned(cls, values, shown):
    assert repr(cls(*values)) == shown


@each_type
def test_equality_and_hash_are_the_plain_tuples(cls, values, shown):
    """A Formula leaf, as sampled, too."""
    rec = cls(*values)
    assert rec == values and values == rec and not rec != values
    assert _hash_or_error(rec) == _hash_or_error(values)


@each_type
def test_pickle_and_copy_round_trip(cls, values, shown):
    rec = cls(*values)
    for twin in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)):
        assert type(twin) is cls and twin == rec and repr(twin) == shown


def test_import_compiles_no_source_text():
    """Importing the CLI builds every value type without a class
    factory: no compile() of a source string and no exec of code from
    one, as namedtuple and typing's string annotations do."""
    probe = (
        "import sys\n"
        "seen = []\n"
        "def hook(event, args):\n"
        "    if event == 'compile' and args[1] == '<string>' or event == 'exec' and "
        "getattr(args[0], 'co_filename', None) == '<string>':\n"
        "        seen.append(event)\n"
        "sys.addaudithook(hook)\n"
        "import biheyt.cli\n"
        "print(seen)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
