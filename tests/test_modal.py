import importlib
from itertools import combinations, permutations, product

import pytest

from biheyt import (
    BiheytError,
    BoundExceeded,
    FiniteSpace,
    UnknownOption,
    KripkeFrame,
    KripkeModel,
    Preorder,
    UnboundAtom,
    UnsupportedConnective,
    agreement_closure,
    chain,
    classify_frame,
    closed_lattice,
    countermodel_search,
    enumerate_distributive_lattices,
    enumerate_frames,
    enumerate_homs,
    enumerate_preorders,
    enumerate_topologies,
    from_preorder,
    induced_map,
    kripke_eval,
    model_from_space,
    open_lattice,
    parse_formula,
    s4_axiom_suite,
    specialization_preorder,
    spectrum,
    topo_eval,
    truth_set,
    valid_in_frame,
    valid_in_model,
    validate_topology,
    verify_stone_embedding,
    worked_examples,
)
import biheyt.modal as modal
from biheyt.bitsets import iter_bits, mask_of
from biheyt.duallogic import algebra_evaluator
from biheyt.formulas import atom, compile_formula, conj, dia, disj, enumerate_formulas
from biheyt.modal import S4_SCHEMAS, SchemaReport, SearchResult
from biheyt.topology import closure, interior, space_classes
from reference_labelled import reference_agreement_closure, reference_search, t0_class


# -- value types ----------------------------------------------------------------


def test_value_types_keep_their_reprs_hash_and_equality():
    """The value types are records.Record tuples with named fields: a
    frame hashes as its fields, a model compares by frame and valuation,
    and these reprs are pinned (an InducedMap prints neither its hom nor
    its spectra). tests/test_records.py covers all 16 types."""
    frame = KripkeFrame.from_edges(3, [(0, 0), (0, 1), (1, 2)])
    assert repr(frame) == "KripkeFrame(worlds=3, rel=(3, 4, 0))"
    assert repr(Preorder(3, (3, 2, 6))) == "Preorder(points=3, rel=(3, 2, 6))"
    assert repr(FiniteSpace(0, (0,))) == "FiniteSpace(points=0, opens=[-])"
    space_hit = countermodel_search(parse_formula("!!p -> p"), 3, semantics="intuitionistic")
    assert repr(space_hit) == ("SearchResult(structure=FiniteSpace(points=2, opens=[00,10,11]), "
                               "valuation={'p': 1}, point=1)")
    frame_hit = countermodel_search(parse_formula("[]p -> p"), 3, mode="frame")
    assert repr(frame_hit) == ("SearchResult(structure=KripkeFrame(worlds=1, rel=(0,)), "
                               "valuation={'p': 0}, point=0)")
    onto = enumerate_homs(chain(3), chain(2))[1]
    assert repr(induced_map(onto, spectrum(chain(3)), spectrum(chain(2)))) == (
        "InducedMap(point_map=(1,), continuous=True, identity_ok=True)")
    assert hash(KripkeFrame(2, (1, 3))) == hash((2, (1, 3)))
    model = KripkeModel(frame, {"p": 0b001})
    assert model == KripkeModel(KripkeFrame(3, (3, 4, 0)), {"p": 0b001})
    assert model != KripkeModel(frame, {"p": 0b010})
    assert model != KripkeModel(KripkeFrame(3, (3, 4, 1)), {"p": 0b001})


# -- classification -----------------------------------------------------------


def test_classify_identity_is_s5():
    frame = KripkeFrame.from_edges(3, [(0, 0), (1, 1), (2, 2)])
    assert classify_frame(frame).label == "S5"


def test_classify_worked_example_frame():
    m1, _ = worked_examples()
    cls = classify_frame(m1.frame)
    assert cls.reflexive and cls.transitive and not cls.symmetric
    assert cls.label == "S4"


def test_classify_empty_relation():
    assert classify_frame(KripkeFrame(2, (0, 0))).label == "K"


def test_classify_reflexive_only():
    frame = KripkeFrame.from_edges(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)])
    cls = classify_frame(frame)
    assert cls.label == "T" and not cls.transitive


# -- worked examples ------------------------------------------------------------


def test_example1_satisfaction():
    m1, _ = worked_examples()
    assert kripke_eval(m1, 0, parse_formula("<>p & <>!p"))
    assert kripke_eval(m1, 1, parse_formula("p"))
    assert kripke_eval(m1, 2, parse_formula("!p"))
    assert not kripke_eval(m1, 0, parse_formula("p"))


def test_example2_satisfaction():
    _, m2 = worked_examples()
    assert kripke_eval(m2, 0, parse_formula("<>p & <>q"))
    assert kripke_eval(m2, 1, parse_formula("p & !q"))
    assert kripke_eval(m2, 2, parse_formula("q & !p"))
    # built edge for edge: (w0, w0) is genuinely absent
    assert m2.frame.edges() == [(0, 1), (0, 2), (1, 1), (2, 2)]
    assert not classify_frame(m2.frame).reflexive
    assert classify_frame(m2.frame).transitive


def test_constants_at_any_world():
    m1, _ = worked_examples()
    for w in range(3):
        assert kripke_eval(m1, w, parse_formula("T"))
        assert not kripke_eval(m1, w, parse_formula("_|_"))


def test_kripke_rejects_dual_connectives():
    m1, _ = worked_examples()
    for text in ("~p", "p <- q"):
        with pytest.raises(UnsupportedConnective):
            kripke_eval(m1, 0, parse_formula(text))
    with pytest.raises(UnboundAtom):
        kripke_eval(m1, 0, parse_formula("z"))


# -- validity -------------------------------------------------------------------


def test_reflexive_frames_validate_t_axiom():
    phi = parse_formula("[]p -> p")
    for worlds in range(1, 4):
        for frame in enumerate_frames(worlds):
            if classify_frame(frame).reflexive:
                assert valid_in_frame(frame, phi, ["p"])


def test_transitive_frames_validate_4_axiom():
    phi = parse_formula("[]p -> [][]p")
    for worlds in range(1, 4):
        for frame in enumerate_frames(worlds):
            if classify_frame(frame).transitive:
                assert valid_in_frame(frame, phi, ["p"])


def test_irreflexive_chain_falsifies_t():
    frame = KripkeFrame.from_edges(2, [(0, 1)])
    phi = parse_formula("[]p -> p")
    assert not valid_in_frame(frame, phi, ["p"])
    # oracle: p true only at the successor falsifies []p -> p at 0
    model = KripkeModel(frame, {"p": 0b10})
    assert not kripke_eval(model, 0, phi)


def test_valid_in_model(sierpinski):
    m1, _ = worked_examples()
    assert valid_in_model(m1, parse_formula("p | !p"))
    assert not valid_in_model(m1, parse_formula("p"))


def test_truth_set_matches_kripke_eval():
    """The one-bit slice of the sliced core against the per-world reference."""
    models = list(worked_examples()) + [
        KripkeModel(frame, {"p": v})
        for n in (1, 2) for frame in enumerate_frames(n) for v in range(1 << n)
    ]
    for phi in enumerate_formulas(2, ("p",)):
        for model in models:
            want = kripke_set(model, phi)
            assert truth_set(model, phi) == want, (model, str(phi))
            assert valid_in_model(model, phi) == (want == (1 << model.frame.worlds) - 1)


@pytest.mark.parametrize("text, error", [
    ("p & ~p", UnsupportedConnective),
    ("T | r", UnboundAtom),
    ("!p | (r & ~p)", UnsupportedConnective),
])
def test_truth_set_rejects_what_kripke_eval_skips(text, error):
    m1, _ = worked_examples()
    phi = parse_formula(text)
    kripke_eval(m1, 0, phi)  # the reference short-circuits at w0
    with pytest.raises(error):
        truth_set(m1, phi)
    with pytest.raises(error):
        valid_in_model(m1, phi)


def test_truth_set_on_a_space_matches_topo_eval(spaces_3):
    """The space route of the one-bit slice against the set-valued
    reference, including atoms the formula does not use."""
    formulas = list(enumerate_formulas(1, ("p", "q")))
    for sp in spaces_3:
        for vp in range(1 << sp.points):
            val = {"p": vp, "q": sp.full ^ vp, "r": 0}
            for phi in formulas:
                assert truth_set(sp, phi, val) == topo_eval(sp, val, phi), (sp, val, str(phi))


@pytest.mark.parametrize("text, error", [
    ("p & ~p", UnsupportedConnective),
    ("T | r", UnboundAtom),
    ("<>(p <- p)", UnsupportedConnective),
])
def test_truth_set_on_a_space_rejects_like_topo_eval(threepoint, text, error):
    phi = parse_formula(text)
    with pytest.raises(error):
        topo_eval(threepoint, {"p": 0b011}, phi)
    with pytest.raises(error):
        truth_set(threepoint, phi, {"p": 0b011})


def test_truth_set_takes_a_valuation_only_for_a_space():
    m1, _ = worked_examples()
    with pytest.raises(TypeError):
        truth_set(m1, parse_formula("p"), {"p": 1})


def test_frame_validity_bound():
    frame = KripkeFrame.from_edges(3, [(0, 0)])
    with pytest.raises(BoundExceeded):
        valid_in_frame(frame, parse_formula("p"), list("abcdefgh"))


# -- topological evaluation -------------------------------------------------------


def test_topo_eval_examples(threepoint):
    v = {"p": 0b011}
    assert topo_eval(threepoint, v, parse_formula("[]p")) == 0b011
    assert topo_eval(threepoint, v, parse_formula("<>p")) == 0b111
    assert topo_eval(threepoint, {}, parse_formula("[]T")) == threepoint.full
    assert topo_eval(threepoint, {}, parse_formula("<>_|_")) == 0


def test_topo_classical_tautologies(spaces_3):
    lem = parse_formula("p | !p")
    for sp in spaces_3:
        for vp in range(1 << sp.points):
            assert topo_eval(sp, {"p": vp}, lem) == sp.full


def test_topo_t_axiom_instances(spaces_3):
    phi = parse_formula("[]p -> p")
    for sp in spaces_3:
        for vp in range(1 << sp.points):
            assert topo_eval(sp, {"p": vp}, phi) == sp.full


def test_diamond_is_negated_box(spaces_3):
    for sp in spaces_3:
        for vp in range(1 << sp.points):
            direct = topo_eval(sp, {"p": vp}, parse_formula("<>p"))
            rewritten = topo_eval(sp, {"p": vp}, parse_formula("!([](!p))"))
            assert direct == rewritten
    m1, m2 = worked_examples()
    for model in (m1, m2):
        for w in range(3):
            assert kripke_eval(model, w, parse_formula("<>p")) == kripke_eval(
                model, w, parse_formula("!([](!p))")
            )


# -- model_from_space ---------------------------------------------------------------


def test_model_from_space_discrete(discrete2):
    model = model_from_space(discrete2, {"p": 0b01})
    assert classify_frame(model.frame).label == "S5"
    assert model.frame.rel == (0b01, 0b10)


def test_model_from_space_threepoint(threepoint):
    model = model_from_space(threepoint, {"p": 0b001})
    assert classify_frame(model.frame).label == "S4"
    assert model.frame.rel == specialization_preorder(threepoint).rel


def test_model_from_space_always_s4(spaces_4):
    for sp in spaces_4:
        cls = classify_frame(model_from_space(sp, {}).frame)
        assert cls.reflexive and cls.transitive


# -- S4 schema suite -----------------------------------------------------------------


def test_s4_suite_spaces(spaces_4):
    for sp in spaces_4:
        for rep in s4_axiom_suite(sp):
            assert rep.ok, (sp, rep.name)


def test_s4_suite_one_point():
    from biheyt import validate_topology

    one = validate_topology(1, [0, 1])
    assert all(rep.ok for rep in s4_axiom_suite(one))


def test_s4_suite_nontransitive_frame_fails_4():
    frame = KripkeFrame.from_edges(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)])
    reports = {rep.name: rep for rep in s4_axiom_suite(frame)}
    assert not reports["4 transitivity"].ok
    assert reports["T reflection"].ok
    assert reports["K distribution"].ok


def test_s4_suite_bound():
    with pytest.raises(BoundExceeded):
        s4_axiom_suite(KripkeFrame(6, tuple([0] * 6)))


@pytest.mark.parametrize("module, constant, call", [
    ("topology", "MAX_SUITE_POINTS", lambda: s4_axiom_suite(KripkeFrame(3, (7, 7, 7)))),
    ("modal", "MAX_VALUATION_BITS",
     lambda: valid_in_frame(KripkeFrame(3, (7, 7, 7)), parse_formula("p"), ["p"])),
    ("topology", "MAX_SUITE_POINTS", lambda: countermodel_search(parse_formula("p"), 3)),
    ("modal", "DEFAULT_MAX_WORLDS",
     lambda: countermodel_search(parse_formula("p"), 3, mode="frame")),
    ("lattice", "MAX_ENUMERATION_SIZE", lambda: spectrum(chain(3))),
    ("lattice", "MAX_ENUMERATION_SIZE", lambda: verify_stone_embedding(chain(3))),
    ("lattice", "MAX_ENUMERATION_SIZE", lambda: enumerate_distributive_lattices(3)),
    ("quotient", "MAX_HOM_SIZE", lambda: enumerate_homs(chain(3), chain(2))),
    ("topology", "MAX_SUITE_POINTS", lambda: next(enumerate_topologies(3))),
    ("topology", "MAX_SUITE_POINTS", lambda: space_classes(3)),
], ids=["s4_axiom_suite", "valid_in_frame", "space search", "frame search", "spectrum",
        "verify_stone_embedding", "enumerate_distributive_lattices", "enumerate_homs",
        "enumerate_topologies", "space_classes"])
def test_caps_are_read_when_the_call_runs(monkeypatch, module, constant, call):
    """Each cap is a module constant read by the check itself, so
    lowering it lowers the bound a caller meets."""
    monkeypatch.setattr(importlib.import_module(f"biheyt.{module}"), constant, 2)
    with pytest.raises(BoundExceeded) as exc:
        call()
    assert exc.value.bound == 2
    assert str(exc.value).endswith("exceeds configured bound 2")


def test_verify_s4_reads_the_suite_cap_when_it_runs(monkeypatch, capsys):
    import biheyt.cli as cli

    def no_classes(*_args):
        raise AssertionError("classes were enumerated past the cap")

    monkeypatch.setattr(importlib.import_module("biheyt.topology"), "MAX_SUITE_POINTS", 2)
    monkeypatch.setattr(cli, "space_classes", no_classes)
    assert cli.main(["verify", "s4", "--points", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "points 3 exceeds configured bound 2" in err


# -- countermodel search ----------------------------------------------------------------


def test_search_double_negation_witness():
    result = countermodel_search(
        parse_formula("!!p -> p"), 3, mode="space", semantics="intuitionistic"
    )
    assert result is not None
    # first witness in canonical order: the 2-point space {∅, {0}, X}
    assert result.structure.opens == (0b00, 0b01, 0b11)
    assert result.valuation == {"p": 0b01}
    assert result.point == 1
    # oracle: ¬p = int({1}) = ∅, ¬¬p = X, X → {0} misses point 1
    sp = result.structure
    from biheyt import open_lattice
    from biheyt import eval_algebra

    alg = open_lattice(sp)
    value = eval_algebra(
        parse_formula("!!p -> p"), alg, {"p": alg.subsets.index(0b01)}, "intuitionistic"
    )
    assert alg.subsets[value] == 0b01


def test_search_classical_tautology_has_no_witness():
    assert (
        countermodel_search(parse_formula("p | !p"), 3, mode="space", semantics="classical")
        is None
    )


def test_search_4_axiom_on_reflexive_frames():
    result = countermodel_search(
        parse_formula("[]p -> [][]p"),
        3,
        mode="frame",
        frame_properties=("reflexive",),
    )
    assert result is not None
    cls = classify_frame(result.structure)
    assert cls.reflexive and not cls.transitive
    assert result.structure.worlds == 3
    model = KripkeModel(result.structure, result.valuation)
    assert not kripke_eval(model, result.point, parse_formula("[]p -> [][]p"))


def test_search_dual_lem_valid():
    assert (
        countermodel_search(parse_formula("p | ~p"), 3, mode="space", semantics="dual")
        is None
    )


def test_search_deterministic():
    phi = parse_formula("!!p -> p")
    a = countermodel_search(phi, 3, mode="space", semantics="intuitionistic")
    b = countermodel_search(phi, 3, mode="space", semantics="intuitionistic")
    assert (a.structure, a.valuation, a.point) == (b.structure, b.valuation, b.point)


def test_search_bound():
    with pytest.raises(BoundExceeded):
        countermodel_search(parse_formula("p"), 9)


def test_search_reads_its_patch_points_when_it_runs(monkeypatch):
    """Traced counters and test patches wrap these module globals, so
    each search route must look them up when it runs."""
    calls = dict.fromkeys(("space_classes", "enumerate_frames", "classify_frame",
                           "open_lattice", "closed_lattice"), 0)
    for name in calls:
        def counting(*args, _real=getattr(modal, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(modal, name, counting)
    p = parse_formula("p")
    for kwargs in ({}, {"mode": "frame", "frame_properties": ("reflexive", "transitive")},
                   {"semantics": "intuitionistic"}, {"semantics": "dual"}):
        assert countermodel_search(p, 2, **kwargs) is not None
    assert all(calls.values()), calls


@pytest.mark.parametrize("max_points", [0, -5])
@pytest.mark.parametrize("kwargs, what", [
    ({"mode": "space", "semantics": "classical"}, "points"),
    ({"mode": "space", "semantics": "intuitionistic"}, "points"),
    ({"mode": "space", "semantics": "dual"}, "points"),
    ({"mode": "frame"}, "worlds"),
])
def test_search_refuses_an_empty_range(max_points, kwargs, what):
    """⊥ has a countermodel on one point, so None here would say the
    range holds none; the empty range is refused instead."""
    with pytest.raises(BiheytError, match=rf"^{what} range 1\.\.{max_points} is empty$"):
        countermodel_search(parse_formula("_|_"), max_points, **kwargs)


# -- Alexandrov agreement -----------------------------------------------------------------


def mask_closure(space, masks):
    """How many subsets the formulas over atoms with these masks can
    denote, closed on masks alone: from ∅, X and the masks, under
    complement, interior, closure, ∩, ∪ and (X∖a) ∪ b."""
    full = space.full
    values = {0, full, *masks}
    while True:
        grown = values | {full ^ a for a in values}
        grown |= {interior(space, a) for a in values} | {closure(space, a) for a in values}
        grown |= {op for a in values for b in values for op in (a & b, a | b, (full ^ a) | b)}
        if grown == values:
            return len(values)
        values = grown


def test_agreement_closure_everywhere(spaces_3):
    """No disagreement, and the closure reaches every value the formulas
    over p and q can take."""
    for sp in spaces_3:
        for vp in range(1 << sp.points):
            for vq in range(1 << sp.points):
                result = agreement_closure(sp, {"p": vp, "q": vq})
                assert result.disagreement is None
                assert result.distinct_values == mask_closure(sp, (vp, vq)), (sp, vp, vq)


def agreement_cases():
    """Every space of at most 3 points with {p}, and of at most 2 points
    with {p, q}."""
    for atoms, points in ((("p",), 3), (("p", "q"), 2)):
        for sp in (sp for m in range(1, points + 1) for sp in enumerate_topologies(m)):
            for masks in product(range(1 << sp.points), repeat=len(atoms)):
                yield sp, dict(zip(atoms, masks))


def test_agreement_closure_matches_the_round_by_round_loop():
    cases = list(agreement_cases())
    assert len(cases) == 318
    for sp, valuation in cases:
        assert agreement_closure(sp, valuation) == reference_agreement_closure(sp, valuation)


def test_agreement_closure_finds_a_flipped_world_where_the_loop_does(monkeypatch, spaces_3):
    """With kripke_eval wrong at the last world on implications out of a
    ◇, both routes stop at the same candidate, which only the second
    round or a later one builds, or saturate without meeting one."""
    real = modal.kripke_eval

    def flipped(model, world, phi):
        wrong = world == model.frame.worlds - 1 and phi.kind == "imp" and phi.args[0].kind == "dia"
        return real(model, world, phi) != wrong

    monkeypatch.setattr(modal, "kripke_eval", flipped)
    found = 0
    for sp in spaces_3:
        for vp in range(1 << sp.points):
            got = agreement_closure(sp, {"p": vp})
            assert got == reference_agreement_closure(sp, {"p": vp})
            if got.disagreement is not None:
                assert got.disagreement.kind == "imp" and got.formulas_checked > 6
                found += 1
    assert found == 60  # of the 250 closures over {p}


def test_agreement_literal_small_formulas(threepoint):
    kinds = ("not", "box", "dia", "and", "or", "imp")
    formulas = list(enumerate_formulas(2, ("p", "q"), kinds=kinds))
    for vp in range(1 << 3):
        for vq in range(1 << 3):
            valuation = {"p": vp, "q": vq}
            model = model_from_space(threepoint, valuation)
            for phi in formulas:
                value = topo_eval(threepoint, valuation, phi)
                for w in range(3):
                    assert kripke_eval(model, w, phi) == bool((value >> w) & 1)


def test_monotone_extension_preserves_diamond_truths():
    """Adding edges never falsifies a {atoms, ∧, ∨, ◇} formula."""
    p, q = atom("p"), atom("q")
    formulas = [dia(p), dia(dia(p)), disj(dia(p), q), conj(dia(p), dia(q)),
                dia(conj(p, q)), dia(disj(p, dia(q)))]
    frames = [f for f in enumerate_frames(2)] + [
        KripkeFrame.from_edges(3, edges)
        for edges in ([(0, 1)], [(0, 0), (0, 1)], [(0, 1), (1, 2)])
    ]
    for frame in frames:
        for extra in range(frame.worlds * frame.worlds):
            a, b = divmod(extra, frame.worlds)
            bigger = KripkeFrame(
                frame.worlds,
                tuple(
                    r | (1 << b if i == a else 0) for i, r in enumerate(frame.rel)
                ),
            )
            for vp in range(1 << frame.worlds):
                for vq in range(1 << frame.worlds):
                    small_model = KripkeModel(frame, {"p": vp, "q": vq})
                    big_model = KripkeModel(bigger, {"p": vp, "q": vq})
                    for phi in formulas:
                        for w in range(frame.worlds):
                            if kripke_eval(small_model, w, phi):
                                assert kripke_eval(big_model, w, phi)


def test_frame_class_validity_hierarchy():
    """Everything valid over all K-frames stays valid up the hierarchy."""
    kinds = ("not", "box", "dia", "and", "or", "imp")
    formulas = list(enumerate_formulas(2, ("p",), with_constants=False, kinds=kinds))
    frames = [f for w in range(1, 4) for f in enumerate_frames(w)]
    by_class = {"K": [], "T": [], "S4": [], "S5": []}
    for frame in frames:
        cls = classify_frame(frame)
        by_class["K"].append(frame)
        if cls.reflexive:
            by_class["T"].append(frame)
        if cls.reflexive and cls.transitive:
            by_class["S4"].append(frame)
            if cls.symmetric:
                by_class["S5"].append(frame)

    def theory(frames):
        out = set()
        for phi in formulas:
            if all(valid_in_frame(f, phi, ["p"]) for f in frames):
                out.add(phi)
        return out

    k, t, s4, s5 = (theory(by_class[c]) for c in ("K", "T", "S4", "S5"))
    assert k <= t <= s4 <= s5
    t_axiom = parse_formula("[]p -> p")
    assert t_axiom in t and t_axiom not in k


# -- sliced core against the per-valuation references -------------------------------
#
# The oracles below are the per-valuation loops the sliced core replaced:
# one kripke_eval per world or one topo_eval per valuation, valuations in
# itertools.product order, frames from the full scan filtered by
# classify_frame.

FRAME_FORMULAS = [
    "[]p -> p",
    "[]p -> [][]p",
    "p -> []<>p",
    "<>p -> []<>p",
    "[](p -> q) -> ([]p -> []q)",
    "p | !p",
    "[]p | []!p",
    "<>[]p -> []<>p",
    "(p & q) -> <>r",
    "T",
    "_|_",
    "[]_|_ -> <>q",
]


def oracle_suite(structure):
    reports = []
    if isinstance(structure, FiniteSpace):
        subsets = list(range(1 << structure.points))
        for name, phi in S4_SCHEMAS:
            bad = [
                (vp, vq)
                for vp in subsets
                for vq in subsets
                if topo_eval(structure, {"p": vp, "q": vq}, phi) != structure.full
            ]
            reports.append(SchemaReport(name, phi, len(subsets) ** 2, tuple(bad)))
        return reports
    subsets = list(range(1 << structure.worlds))
    for name, phi in S4_SCHEMAS:
        bad = []
        for vp in subsets:
            for vq in subsets:
                model = KripkeModel(structure, {"p": vp, "q": vq})
                for w in range(structure.worlds):
                    if not kripke_eval(model, w, phi):
                        bad.append((vp, vq, w))
        reports.append(SchemaReport(name, phi, len(subsets) ** 2, tuple(bad)))
    return reports


def oracle_search(phi, max_points, mode, frame_properties=()):
    names = sorted(phi.atoms())
    for n in range(1, max_points + 1):
        if mode == "frame":
            structures = [
                f for f in enumerate_frames(n)
                if all(getattr(classify_frame(f), prop) for prop in frame_properties)
            ]
        else:
            structures = list(enumerate_topologies(n))
        for st in structures:
            for masks in product(range(1 << n), repeat=len(names)):
                val = dict(zip(names, masks))
                if mode == "frame":
                    model = KripkeModel(st, val)
                    failing = [w for w in range(n) if not kripke_eval(model, w, phi)]
                else:
                    value = topo_eval(st, val, phi)
                    failing = [x for x in range(n) if not (value >> x) & 1]
                if failing:
                    return SearchResult(st, val, failing[0])
    return None


def oracle_valid_in_frame(frame, phi, names):
    return all(
        kripke_eval(KripkeModel(frame, dict(zip(names, masks))), w, phi)
        for masks in product(range(1 << frame.worlds), repeat=len(names))
        for w in range(frame.worlds)
    )


def sliced_sets(structure, phi, names):
    """Truth set of phi under each valuation, in product order, read
    off the sliced core's per-point vectors."""
    points, box = modal._sweep(structure)
    prog, names = compile_formula(phi, "kripke", names)
    sets = []
    for base, full, atoms in modal._slices(points, len(names)):
        vec = modal._evaluate(prog, atoms, full, points, box)
        width = full.bit_length()
        for v in range(min(width, (1 << points * len(names)) - base)):
            sets.append(sum(((vec[x] >> v) & 1) << x for x in range(points)))
    return sets


def kripke_set(model, phi):
    return sum(kripke_eval(model, w, phi) << w for w in range(model.frame.worlds))


@pytest.fixture(params=[None, 3], ids=["one-slice", "3-bit-slices"])
def slice_bits(request, monkeypatch):
    """Run a test with the normal slice width and with 8-valuation slices,
    so the ascending slice-by-slice path is covered at small sizes."""
    if request.param is not None:
        monkeypatch.setattr(modal, "SLICE_BITS", request.param)
    return request.param


def test_sliced_core_matches_topo_eval(spaces_3):
    formulas = list(enumerate_formulas(2, ("p", "q")))
    for sp in spaces_3:
        vals = [
            {"p": vp, "q": vq} for vp, vq in product(range(1 << sp.points), repeat=2)
        ]
        for phi in formulas:
            sets = sliced_sets(sp, phi, ("p", "q"))
            assert sets == [topo_eval(sp, val, phi) for val in vals], (sp, phi)


def test_sliced_core_matches_kripke_eval():
    m1, m2 = worked_examples()
    cases = [(f, enumerate_formulas(2, ("p", "q"))) for n in (1, 2) for f in enumerate_frames(n)]
    cases += [(m.frame, enumerate_formulas(2, ("p", "q"))) for m in (m1, m2)]
    cases += [(f, enumerate_formulas(1, ("p",))) for f in enumerate_frames(3)]
    for frame, formulas in cases:
        formulas = list(formulas)
        names = sorted({a for phi in formulas for a in phi.atoms()})
        models = [
            KripkeModel(frame, dict(zip(names, masks)))
            for masks in product(range(1 << frame.worlds), repeat=len(names))
        ]
        for phi in formulas:
            assert sliced_sets(frame, phi, names) == [kripke_set(m, phi) for m in models]


def test_sliced_core_chunks_match_one_slice(monkeypatch):
    """Slices of 8 valuations reproduce the single 2^12-valuation slice."""
    frames = (
        KripkeFrame.from_edges(3, [(0, 0), (0, 1), (1, 2), (2, 0), (2, 2)]),
        worked_examples()[0].frame,
    )
    formulas = [parse_formula(t) for t in FRAME_FORMULAS]

    def sweep():
        return [sliced_sets(f, phi, ("p", "q", "r")) for f in frames for phi in formulas]

    whole = sweep()
    monkeypatch.setattr(modal, "SLICE_BITS", 3)
    assert sweep() == whole


def test_s4_suite_matches_oracle_on_spaces(spaces_4, slice_bits):
    spaces = spaces_4 if slice_bits is None else spaces_4[:34]
    for sp in spaces:
        assert s4_axiom_suite(sp) == oracle_suite(sp), sp


def test_s4_suite_matches_oracle_on_frames(slice_bits):
    frames = [f for n in range(1, 4) for f in enumerate_frames(n)]
    if slice_bits is not None:
        frames = frames[::7]
    for frame in frames:
        assert s4_axiom_suite(frame) == oracle_suite(frame), frame


REQUIRE_SUBSETS = [
    sub for r in range(4) for sub in combinations(("reflexive", "transitive", "symmetric"), r)
]


def same_result(a, b):
    if a is None or b is None:
        return a is b
    return (a.structure, a.valuation, a.point) == (b.structure, b.valuation, b.point)


@pytest.mark.parametrize("require", REQUIRE_SUBSETS, ids=",".join)
def test_frame_search_matches_oracle(require, slice_bits):
    for text in FRAME_FORMULAS:
        phi = parse_formula(text)
        got = countermodel_search(phi, 3, mode="frame", frame_properties=require)
        assert same_result(got, oracle_search(phi, 3, "frame", require)), (text, got)


def test_space_search_matches_oracle(slice_bits):
    for text in FRAME_FORMULAS:
        phi = parse_formula(text)
        got = countermodel_search(phi, 3, mode="space", semantics="classical")
        assert same_result(got, oracle_search(phi, 3, "space")), (text, got)


@pytest.mark.parametrize("worlds", [1, 2, 3, 4])
def test_reflexive_frames_fast_path(worlds):
    full_scan = [f for f in enumerate_frames(worlds) if classify_frame(f).reflexive]
    assert list(enumerate_frames(worlds, reflexive=True)) == full_scan
    assert len(full_scan) == 1 << (worlds * worlds - worlds)


def test_valid_in_frame_matches_oracle(slice_bits):
    formulas = [parse_formula(t) for t in FRAME_FORMULAS if "q" not in t and "r" not in t]
    for frame in (f for n in range(1, 4) for f in enumerate_frames(n)):
        for phi in formulas:
            assert valid_in_frame(frame, phi, ["p"]) == oracle_valid_in_frame(
                frame, phi, ["p"]
            ), (frame, phi)


def test_valid_in_frame_across_slices():
    """4 worlds x 4 atoms = 2^16 valuations: sixteen 2^12-valuation slices."""
    assert 4 * 4 > modal.SLICE_BITS
    names = ["p", "q", "r", "s"]
    s4 = KripkeFrame.from_edges(4, [(0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (1, 2), (0, 2)])
    t = KripkeFrame.from_edges(4, [(0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (1, 2)])
    cases = [
        (s4, "[](p -> q) -> ([]r -> [][]r)"),  # valid: every slice is swept
        (t, "[]r -> [][]r"),  # fails in the first slice
        (s4, "[]p -> (q | r | s)"),  # first failure at p = {0}, in the second slice
        (t, "<>p -> (q | r | s | [][]p)"),
    ]
    for frame, text in cases:
        phi = parse_formula(text)
        assert valid_in_frame(frame, phi, names) == oracle_valid_in_frame(frame, phi, names)
    assert valid_in_frame(s4, parse_formula(cases[0][1]), names)
    assert not valid_in_frame(s4, parse_formula(cases[2][1]), names)


def test_sweeps_reject_unsupported_connectives_up_front():
    """kripke_eval's ∧ short-circuits past ~p when p is false; the sweeps
    compile first and reject the formula before any valuation."""
    phi = parse_formula("p & ~p")
    m = KripkeModel(KripkeFrame(1, (1,)), {"p": 0})
    assert not kripke_eval(m, 0, phi)  # the reference route never reaches ~
    for mode in ("frame", "space"):
        with pytest.raises(UnsupportedConnective):
            countermodel_search(phi, 2, mode=mode)
    with pytest.raises(UnsupportedConnective):
        valid_in_frame(KripkeFrame(1, (1,)), phi, ["p"])
    with pytest.raises(UnboundAtom):
        valid_in_frame(KripkeFrame(1, (1,)), parse_formula("p & z"), ["p"])


@pytest.mark.parametrize("kwargs", [
    {"mode": "frames"},
    {"semantics": "modal"},
    {"mode": "frame", "semantics": "intuitionistic"},
    {"mode": "frame", "frame_properties": ("reflexiv",)},
    {"frame_properties": ("serial",)},
])
def test_search_rejects_unknown_options(kwargs):
    with pytest.raises(UnknownOption):
        countermodel_search(parse_formula("p"), 1, **kwargs)


def test_frame_search_bound_defaults_to_max_worlds():
    # "p" fails on the first frame, so a missing guard returns at once
    assert modal.DEFAULT_MAX_WORLDS == 4
    with pytest.raises(BoundExceeded) as exc:
        countermodel_search(parse_formula("p"), 5, mode="frame")
    assert exc.value.what == "worlds" and exc.value.bound == 4


def test_deep_formula_compiles_without_recursion():
    phi = atom("p")
    for _ in range(5000):
        phi = dia(phi)
    prog, names = compile_formula(phi, "kripke")
    assert len(prog) == 5001 and names == ["p"]
    frame = KripkeFrame(1, (1,))
    assert valid_in_frame(frame, disj(phi, parse_formula("!p")), ["p"])


# -- algebra search: one lattice per T0 class against the per-space loop ------------


def reference_algebra_search(phi, max_points, semantics):
    """The algebra route as a loop over every labelled space: the open (or
    closed) set lattice of each one, every assignment in product order."""
    prog, names = compile_formula(phi, semantics)
    lattice = open_lattice if semantics == "intuitionistic" else closed_lattice
    for points in range(1, max_points + 1):
        for space in map(from_preorder, enumerate_preorders(points)):
            lat = lattice(space)
            value = algebra_evaluator(prog, lat)
            for choice in product(range(lat.n), repeat=len(names)):
                found = lat.subsets[value(choice)]
                if found != space.full:
                    missing = next(x for x in range(points) if not (found >> x) & 1)
                    val = {name: lat.subsets[el] for name, el in zip(names, choice)}
                    return SearchResult(space, val, missing)
    return None


ALGEBRA_KINDS = {
    "intuitionistic": ("not", "and", "or", "imp"),
    "dual": ("conot", "and", "or", "coimp"),
}


@pytest.mark.parametrize("semantics", sorted(ALGEBRA_KINDS))
def test_algebra_search_matches_reference_on_small_formulas(semantics):
    formulas = list(enumerate_formulas(2, ("p", "q"), kinds=ALGEBRA_KINDS[semantics]))
    assert len(formulas) == 1356
    for phi in formulas:
        got = countermodel_search(phi, 3, semantics=semantics)
        assert repr(got) == repr(reference_algebra_search(phi, 3, semantics)), phi


# The algebra-route formulas of one benchmark pass (all valid, so every
# class is visited), then formulas whose first witness has 3 or 4 points.
# The extra ones are intuitionistic: no dual formula over p, q with at
# most three connectives has its first witness above two points.
FOUR_POINT_ALGEBRA_FORMULAS = [
    ("intuitionistic", "!!(!p | !!p)"),
    ("intuitionistic", "(!!p | !!q) -> !(!p & !q)"),
    ("intuitionistic", "(q & !p) -> q"),
    ("intuitionistic", "!(q | !p) -> (!q & !!p)"),
    ("dual", "p | ~p"),
    ("dual", "q | ~q"),
    ("dual", "~p | ~~p"),
    ("dual", "(p <- q) | ~(p <- q)"),
    ("intuitionistic", "(p -> q) | (q -> p)"),
    ("intuitionistic", "!p | !!p"),
    ("intuitionistic", "(p -> q) | (q -> r) | (r -> p)"),
]


@pytest.mark.parametrize("semantics,text", FOUR_POINT_ALGEBRA_FORMULAS)
def test_algebra_search_matches_reference_on_four_points(semantics, text):
    phi = parse_formula(text)
    got = countermodel_search(phi, 4, semantics=semantics)
    assert repr(got) == repr(reference_algebra_search(phi, 4, semantics))


def test_t0_class_counts_follow_the_posets():
    """Classes on at most 1..4 points: the posets on 1..k points (A000112
    gives 1, 2, 5, 16 on exactly k), summed."""
    keys = set()
    counts = []
    for points in range(1, 5):
        keys |= {t0_class(sp) for sp in enumerate_topologies(points)}
        counts.append(len(keys))
    assert counts == [1, 3, 8, 24]


def test_t0_class_ignores_labels(spaces_4):
    for sp in spaces_4:
        key = t0_class(sp)
        for perm in permutations(range(sp.points)):
            opens = [mask_of(perm[x] for x in iter_bits(o)) for o in sp.opens]
            assert t0_class(validate_topology(sp.points, opens)) == key, (sp, perm)

# -- searches decided per class against the labelled reference ---------------------

CLASSICAL_ROUTES = [
    {"mode": "space"},
    {"mode": "frame", "frame_properties": ("reflexive", "transitive")},
    {"mode": "frame", "frame_properties": ("reflexive", "transitive", "symmetric")},
]
SMALL_KRIPKE_FORMULAS = list(enumerate_formulas(2, ("p", "q")))


def test_space_search_matches_reference_on_small_formulas():
    assert len(SMALL_KRIPKE_FORMULAS) == 1684
    for phi in SMALL_KRIPKE_FORMULAS:
        got = countermodel_search(phi, 3)
        assert repr(got) == repr(reference_search(phi, 3)), phi


@pytest.mark.parametrize("require", REQUIRE_SUBSETS, ids=",".join)
def test_frame_search_matches_reference_on_small_formulas(require):
    """Every formula where the frames are preorders and so are decided
    per class; elsewhere the search is the labelled walk itself, and
    every eighth formula keeps the run short."""
    preorders = {"reflexive", "transitive"} <= set(require)
    for phi in SMALL_KRIPKE_FORMULAS if preorders else SMALL_KRIPKE_FORMULAS[::8]:
        got = countermodel_search(phi, 3, mode="frame", frame_properties=require)
        want = reference_search(phi, 3, mode="frame", frame_properties=require)
        assert repr(got) == repr(want), phi


# The search formulas of benchmark seeds 1-10, then formulas whose first
# countermodel has 3 and 4 points: bounded depth, and (classically)
# bounded cluster width.
FOUR_POINT_SEARCHES = {
    "classical": (
    "[](p -> q) -> ([]p -> []q)", "[]q -> q", "[]p -> [][]p", "q -> <>q",
    "<><>q -> <>q", "!!<>p", "[](q -> <>!q)", "(p -> (!<>q -> <>q))",
    "[]((q & <>q) -> p)", "(![](q | q) -> p)", "!<>((p | p) -> p)", "[](q | q)",
    "[]p -> p", "<><>p -> <>p", "([](p | !p) & p)", "<><>(!q -> (q & q))",
    "([]q | []q)", "([]q -> (q -> p))", "(q | !p)", "(p & []q)", "[](p -> !p)",
    "!<>!<>(!q -> q)", "<>!!!q", "(<>(<>p | q) & <>p)", "(<>q | (p | q))", "!!(!q & p)",
    "[]!<>(!p -> p)", "(<>(<>p | p) -> q)", "p -> <>p", "<>[](!q & p)",
    "<>((p | !q) -> []p)", "<>!<>((q & q) | q)", "[][](!p | !q)", "((!p -> p) | q)",
    "<>([](p | !q) -> p)", "<>[]!q", "[](q -> p) -> ([]q -> []p)", "[]q -> [][]q",
    "![](p | p)", "![]!p", "<><>(p & p)", "<>!<>(p -> !p)", "<>(!<>q | p)",
    "<><>(!q -> q)", "!<>!<>q", "<>(q & p)", "(<>!p -> p)", "(<>p & (p -> q))",
    "<>(p | (p | q))", "([]q -> []!p)", "[](!p -> []q)", "(p & <>q)",
    "!((p & !<>p) | q)", "[](q | (p | <>p))", "!(!<>p | p)", "(([]q & []q) -> p)",
    "(p -> (q | q))", "<>(p | (!q | p))", "(p & (<>[]q | q))", "[]!(<>q -> []q)",
    "(!p -> q)", "(p & <>[]!(p -> p))", "!(!q & ([]q -> q))", "[](q | <>q)",
    "([]<>(q & p) | p)", "[]!<>(q | p)", "(!<>q | p)", "[](q -> ![]p)",
    "[]![](p -> !p)", "<>!!!p", "!((q | !q) | !p)", "[][]!!(q | !p)", "[][]!(q | !q)",
    "<>((q & q) -> !q)", "((p & p) & p)", "(q & (p | (p & p)))", "(<>q & [](p | q))",
    "<>[](q & (q | p))", "(q | []p)",
    "<>([]q & !(<>[]p -> p)) -> q", "(<>(p & q) & <>(p & !q)) -> []p",
    "<>([]r & !(<>([]q & !(<>[]p -> p)) -> q)) -> r",
    "(<>(p & q) & <>(p & !q) & <>(!p & q)) -> [](p | q)",
    ),
    "intuitionistic": (
    "!!(p | !p)", "(!q -> !p) -> (!!p -> !!q)", "(!!p | !!q) -> !(!p & !q)",
    "q -> (q | !p)", "q -> (p -> q)", "(p -> (p -> !q)) -> (p -> !q)",
    "!p -> (!p | !q)", "!p -> (!q -> !p)", "(q & !p) -> q",
    "(q -> (q -> !p)) -> (q -> !p)", "!!!!q -> !!q", "!p -> (q -> !p)", "!!(!q | !!q)",
    "(!q -> p) -> (!p -> !!q)", "(!q | !!p) -> !(q & !p)", "!(!q | p) -> (!!q & !p)",
    "p -> (q -> p)", "!q -> (!q | !p)", "(!!q | !!p) -> !(!q & !p)",
    "!(!p | !q) -> (!!p & !!q)", "(q & p) -> q", "!!!!p -> !!p", "!!(!p | !!p)",
    "!(q | !p) -> (!q & !!p)", "!!!p -> !p", "!!(q | !q)", "!q -> (!q | p)",
    "(!!p | !q) -> !(!p & q)", "q -> !!q", "(!p & q) -> !p", "!p -> !!!p",
    "(p -> q) | (q -> p)", "!p | !!p", "q | (q -> (p | !p))",
    "r | (r -> (q | (q -> (p | !p))))", "(p -> q) | (q -> r) | (r -> p)",
    ),
    "dual": (
    "(q <- p) | ~(q <- p)", "(p & q) | ~(p & q)", "p | ~p", "q | ~q", "~p | ~~p",
    "~q | ~~q", "(p | q) | ~(p | q)", "(p <- q) | ~(p <- q)",
    ),
}
FOUR_POINT_ROUTES = [("classical", kwargs) for kwargs in CLASSICAL_ROUTES] + [
    ("intuitionistic", {"semantics": "intuitionistic"}),
    ("dual", {"semantics": "dual"}),
]


@pytest.mark.parametrize("formulas,kwargs", FOUR_POINT_ROUTES,
                         ids=["space", "s4-frame", "s5-frame", "intuitionistic", "dual"])
def test_search_matches_reference_on_four_points(formulas, kwargs):
    for text in FOUR_POINT_SEARCHES[formulas]:
        phi = parse_formula(text)
        got = countermodel_search(phi, 4, **kwargs)
        assert repr(got) == repr(reference_search(phi, 4, **kwargs)), text


def ladder(n, p, neg, join, imp):
    """Rung n of the Rieger–Nishimura ladder written with these
    templates: R0 = p, R1 = neg(p), R(2k+2) = join(R(2k), R(2k+1)),
    R(2k+3) = imp(R(2k+2), R(2k))."""
    rungs = [p, neg.format(p)]
    while len(rungs) <= n:
        k = len(rungs)
        rungs.append(join.format(rungs[k - 2], rungs[k - 1]) if k % 2 == 0
                     else imp.format(rungs[k - 1], rungs[k - 3]))
    return rungs[n]


# Each formula with the point count of its first countermodel (None when
# it holds on every space of at most 5 points). R8 is first refuted on 5
# points intuitionistically, and so is its Gödel translation into S4
# classically. A dual formula that holds on one point holds on every
# space, so the dual ones hold or fail at once.
FIVE_POINT_SEARCHES = {
    "classical": (("[]p -> [][]p", None), ("[]p -> p", None), ("<>[]p -> []<>p", 3),
                  (ladder(8, "[]p", "[]!({})", "({}) | ({})", "[](({}) -> ({}))"), 5)),
    "intuitionistic": (("p -> !!p", None), (ladder(10, "p", "!({})", "({}) | ({})",
                                                   "({}) -> ({})"), None),
                       ("!!p -> p", 2), ("(p -> q) | (q -> r) | (r -> p)", 4),
                       (ladder(8, "p", "!({})", "({}) | ({})", "({}) -> ({})"), 5)),
    "dual": (("p | ~p", None), ("~~p | ~p", None), ("(p <- q) | ~(p <- q)", None),
             ("~p", 1)),
}


@pytest.mark.parametrize("semantics", sorted(FIVE_POINT_SEARCHES))
def test_space_search_matches_reference_on_five_points(semantics):
    """Space searches run to 5 points, walking class representatives
    alone; the reference walks every labelled preorder."""
    for text, points in FIVE_POINT_SEARCHES[semantics]:
        phi = parse_formula(text)
        got = countermodel_search(phi, 5, semantics=semantics)
        assert repr(got) == repr(reference_search(phi, 5, semantics=semantics)), text
        assert (got and got.structure.points) == points, text


def test_space_searches_walk_no_labelled_space(monkeypatch):
    """Each class representative is the first labelled space of its class,
    so every space route answers with the labelled enumerations gone."""
    cases = [(sem, parse_formula(text)) for sem, searches in FIVE_POINT_SEARCHES.items()
             for text, _ in searches[:1] + searches[-1:]]
    want = [repr(countermodel_search(phi, 5, semantics=sem)) for sem, phi in cases]

    def refuse(*_args):
        raise AssertionError("a labelled enumeration ran")

    topology = importlib.import_module("biheyt.topology")
    monkeypatch.setattr(modal, "enumerate_topologies", refuse)
    monkeypatch.setattr(topology, "enumerate_topologies", refuse)
    monkeypatch.setattr(topology, "enumerate_preorders", refuse)
    topology._space_classes.cache_clear()
    assert [repr(countermodel_search(phi, 5, semantics=sem)) for sem, phi in cases] == want
