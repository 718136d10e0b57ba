from itertools import product

import pytest

from biheyt import (
    NotDistributive,
    UnboundAtom,
    UnknownOption,
    UnsupportedConnective,
    atom,
    boolean_iff_trivial_boundary,
    check_boundary_laws,
    check_dual_de_morgan,
    check_lem,
    closed_lattice,
    closure,
    complement,
    coneg,
    countermodel_search,
    enumerate_distributive_lattices,
    enumerate_formulas,
    enumerate_topologies,
    eval_algebra,
    find_paraconsistent_witness,
    interior,
    neg,
    open_lattice,
    parse_formula,
)


# -- reference evaluators ------------------------------------------------------
# The recursive walkers eval_algebra replaced, kept as its oracle.

INTUITIONISTIC = {"atom", "bot", "top", "not", "and", "or", "imp"}
DUAL = {"atom", "bot", "top", "conot", "and", "or", "coimp"}


def reference_intuitionistic(phi, lat, assignment):
    """Value of phi in the Heyting algebra; ¬φ is φ→⊥."""
    if phi.kind not in INTUITIONISTIC:
        raise UnsupportedConnective(phi.kind, "intuitionistic")
    if phi.kind == "atom":
        if phi.name not in assignment:
            raise UnboundAtom(phi.name)
        return assignment[phi.name]
    if phi.kind == "bot":
        return lat.bottom
    if phi.kind == "top":
        return lat.top
    if phi.kind == "not":
        return lat.neg_table[reference_intuitionistic(phi.args[0], lat, assignment)]
    a = reference_intuitionistic(phi.args[0], lat, assignment)
    b = reference_intuitionistic(phi.args[1], lat, assignment)
    if phi.kind == "and":
        return lat.meet[a][b]
    if phi.kind == "or":
        return lat.join[a][b]
    return lat.implies_table[a][b]


def reference_dual(phi, lat, assignment):
    """Value of phi in the co-Heyting algebra; ∼φ is ⊤←φ."""
    if phi.kind not in DUAL:
        raise UnsupportedConnective(phi.kind, "dual")
    if phi.kind == "atom":
        if phi.name not in assignment:
            raise UnboundAtom(phi.name)
        return assignment[phi.name]
    if phi.kind == "bot":
        return lat.bottom
    if phi.kind == "top":
        return lat.top
    if phi.kind == "conot":
        return lat.conot_table[reference_dual(phi.args[0], lat, assignment)]
    a = reference_dual(phi.args[0], lat, assignment)
    b = reference_dual(phi.args[1], lat, assignment)
    if phi.kind == "and":
        return lat.meet[a][b]
    if phi.kind == "or":
        return lat.join[a][b]
    return lat.minus_table[a][b]


REFERENCES = {"intuitionistic": reference_intuitionistic, "dual": reference_dual}
KINDS = {"intuitionistic": ("not", "and", "or", "imp"),
         "dual": ("conot", "and", "or", "coimp")}


def oracle_lattices():
    """The open and closed set lattices of every space on at most three
    points and every distributive lattice of at most six elements, each
    distinct labelled lattice once."""
    lats = [make(sp) for m in range(1, 4) for sp in enumerate_topologies(m)
            for make in (open_lattice, closed_lattice)]
    return list(dict.fromkeys(lats + enumerate_distributive_lattices(6)))


@pytest.mark.parametrize("logic", ["intuitionistic", "dual"])
def test_eval_algebra_matches_reference(logic):
    reference = REFERENCES[logic]
    formulas = list(enumerate_formulas(2, ("p", "q"), kinds=KINDS[logic]))
    for lat in oracle_lattices():
        for p in range(lat.n):
            for q in range(lat.n):
                v = {"p": p, "q": q}
                for phi in formulas:
                    assert eval_algebra(phi, lat, v, logic) == reference(phi, lat, v), (
                        lat, v, str(phi))


def oracle_search(phi, max_points, logic):
    """countermodel_search's algebra route as a plain loop over the
    reference evaluator."""
    names = sorted(phi.atoms())
    for points in range(1, max_points + 1):
        for space in enumerate_topologies(points):
            lat = open_lattice(space) if logic == "intuitionistic" else closed_lattice(space)
            for choice in product(range(lat.n), repeat=len(names)):
                value = REFERENCES[logic](phi, lat, dict(zip(names, choice)))
                if value != lat.top:
                    found = lat.subsets[value]
                    point = next(x for x in range(points) if not (found >> x) & 1)
                    val = {name: lat.subsets[el] for name, el in zip(names, choice)}
                    return space, val, point
    return None


SEARCH_FORMULAS = {
    "intuitionistic": ("p | !p", "!!p -> p", "(p -> q) | (q -> p)", "p -> (q -> p)",
                       "!(p & q) -> (!p | !q)", "((p -> q) -> p) -> p", "T", "_|_",
                       "!!(r | !r)", "(q -> p) | !p"),
    "dual": ("p | ~p", "~(p & ~p)", "~~p <- p", "(p <- q) | q", "p <- (p | q)",
             "~(p & q) <- (~p | ~q)", "T", "_|_", "~~r | r", "q & ~q"),
}


@pytest.mark.parametrize("logic", ["intuitionistic", "dual"])
def test_algebra_search_matches_oracle_loop(logic):
    for text in SEARCH_FORMULAS[logic]:
        phi = parse_formula(text)
        for max_points in (1, 2, 3):
            result = countermodel_search(phi, max_points, semantics=logic)
            got = None if result is None else (
                result.structure, result.valuation, result.point)
            assert got == oracle_search(phi, max_points, logic), (text, max_points)


def test_deep_formula_evaluates_without_recursion(chain3):
    phi, co = atom("p"), atom("p")
    for _ in range(5000):
        phi, co = neg(phi), coneg(co)
    assert eval_algebra(phi, chain3, {"p": 1}, "intuitionistic") == 2  # ¬¬1 = ⊤
    assert eval_algebra(co, chain3, {"p": 1}, "dual") == 0  # ∼∼1 = ⊥


def test_eval_algebra_refuses_non_distributive_up_front(m3_diamond):
    with pytest.raises(NotDistributive) as exc:
        eval_algebra(parse_formula("p"), m3_diamond, {"p": 1}, "intuitionistic")
    assert str(exc.value).startswith("distributivity fails at (1, 2, 3)")


def test_eval_algebra_rejects_unknown_logic(chain3):
    with pytest.raises(UnknownOption):
        eval_algebra(parse_formula("p"), chain3, {"p": 1}, "classical")


# -- evaluation ----------------------------------------------------------------


def test_lem_fails_intuitionistically(threepoint):
    alg = open_lattice(threepoint)
    v = {"p": alg.subsets.index(0b001)}
    value = eval_algebra(parse_formula("p | !p"), alg, v, "intuitionistic")
    # oracle: {a} ∪ int({b,c}) = {a} ∪ ∅ = {a}
    assert interior(threepoint, 0b110) == 0
    assert alg.subsets[value] == 0b001
    assert value != alg.top


def test_top_evaluates_to_top(chain3):
    alg = chain3
    assert eval_algebra(parse_formula("T"), alg, {}, "intuitionistic") == chain3.top
    assert eval_algebra(parse_formula("_|_"), alg, {}, "intuitionistic") == chain3.bottom


def test_double_negation_on_chain(chain3):
    alg = chain3
    assert eval_algebra(parse_formula("!!p"), alg, {"p": 1}, "intuitionistic") == 2


def test_intuitionistic_rejects_dual_and_modal(chain3):
    alg = chain3
    for text in ("~p", "p <- q", "<>p", "[]p"):
        with pytest.raises(UnsupportedConnective):
            eval_algebra(parse_formula(text), alg, {"p": 1, "q": 1}, "intuitionistic")


def test_unbound_atom(chain3):
    with pytest.raises(UnboundAtom):
        eval_algebra(parse_formula("p & q"), chain3, {"p": 0}, "intuitionistic")
    with pytest.raises(UnboundAtom):
        eval_algebra(parse_formula("p"), chain3, {}, "dual")


def test_dual_lem_holds(threepoint):
    alg = closed_lattice(threepoint)
    phi = parse_formula("p | ~p")
    for el in range(alg.n):
        assert eval_algebra(phi, alg, {"p": el}, "dual") == alg.top


def test_dual_contradiction_nonbottom(threepoint):
    alg = closed_lattice(threepoint)
    el = alg.subsets.index(0b110)
    value = eval_algebra(parse_formula("p & ~p"), alg, {"p": el}, "dual")
    assert alg.subsets[value] == 0b110


def test_self_subtraction_is_bottom(threepoint):
    alg = closed_lattice(threepoint)
    phi = parse_formula("p <- p")
    for el in range(alg.n):
        assert eval_algebra(phi, alg, {"p": el}, "dual") == alg.bottom


def test_dual_rejects_intuitionistic(chain3):
    alg = chain3
    for text in ("!p", "p -> q", "[]p"):
        with pytest.raises(UnsupportedConnective):
            eval_algebra(parse_formula(text), alg, {"p": 1, "q": 1}, "dual")


def test_intuitionistic_noncontradiction(spaces_3):
    # with Heyting negation, a ∧ ¬a is bottom everywhere
    phi = parse_formula("p & !p")
    for sp in spaces_3:
        alg = open_lattice(sp)
        for el in range(alg.n):
            assert eval_algebra(phi, alg, {"p": el}, "intuitionistic") == alg.bottom


def test_monotone_in_assignment(spaces_3):
    # raising the assignment never lowers a {∧,∨,atoms} formula
    phi = parse_formula("p & q | p")
    for sp in spaces_3:
        alg = open_lattice(sp)
        lat = alg
        for p1 in range(lat.n):
            for q1 in range(lat.n):
                v1 = eval_algebra(phi, alg, {"p": p1, "q": q1}, "intuitionistic")
                for p2 in range(lat.n):
                    for q2 in range(lat.n):
                        if lat.leq(p1, p2) and lat.leq(q1, q2):
                            v2 = eval_algebra(phi, alg, {"p": p2, "q": q2}, "intuitionistic")
                            assert lat.leq(v1, v2)


# -- law suites ----------------------------------------------------------------


def test_dual_de_morgan_over_enumeration(spaces_4):
    disj_violations = 0
    for sp in spaces_4:
        alg = closed_lattice(sp)
        conj_rep, disj_rep = check_dual_de_morgan(alg)
        assert conj_rep.ok, (sp, conj_rep)
        disj_violations += len(disj_rep.violations)
    assert disj_violations > 0


def test_disjunctive_violation_in_three_points(spaces_3):
    # oracle: exhaustive scan records a first witness among 3-point spaces
    found = None
    for sp in spaces_3:
        alg = closed_lattice(sp)
        _, disj_rep = check_dual_de_morgan(alg)
        if disj_rep.violations:
            found = (sp, disj_rep.violations[0])
            break
    assert found is not None
    sp, (a, b) = found
    alg = closed_lattice(sp)
    subs = alg.subsets
    lhs = closure(sp, complement(sp, subs[a] | subs[b]))
    rhs = closure(sp, complement(sp, subs[a])) & closure(sp, complement(sp, subs[b]))
    assert lhs != rhs


def test_lem_over_enumeration(spaces_4):
    for sp in spaces_4:
        assert check_lem(closed_lattice(sp)).ok


def test_lem_for_compound_formulas(spaces_3):
    # φ ∨ ∼φ is top for every dual-fragment φ, not just atoms
    from biheyt.formulas import coneg, disj, enumerate_formulas

    kinds = ("conot", "and", "or", "coimp")
    formulas = list(enumerate_formulas(2, ("p",), kinds=kinds))
    for sp in spaces_3:
        alg = closed_lattice(sp)
        for el in range(alg.n):
            for phi in formulas:
                value = eval_algebra(disj(phi, coneg(phi)), alg, {"p": el}, "dual")
                assert value == alg.top


def test_paraconsistency_witnesses(threepoint, discrete2, spaces_4):
    alg = closed_lattice(threepoint)
    witness = find_paraconsistent_witness(alg)
    assert witness is not None
    # first in canonical order is {c}: ∼{c} = cl({a,b}) = X, so ∂{c} = {c}
    assert alg.subsets[witness] == 0b100
    i_bc = alg.subsets.index(0b110)
    assert alg.boundary_table[i_bc] == i_bc  # {b,c} is a witness too
    assert find_paraconsistent_witness(closed_lattice(discrete2)) is None
    assert any(
        find_paraconsistent_witness(closed_lattice(sp)) is not None for sp in spaces_4
    )


def test_boundary_laws_over_enumeration(spaces_4):
    for sp in spaces_4:
        for rep in check_boundary_laws(closed_lattice(sp)):
            assert rep.ok, (sp, rep)


def test_boundary_idempotence_instance(threepoint):
    alg = closed_lattice(threepoint)
    i_bc = alg.subsets.index(0b110)
    assert alg.boundary_table[alg.boundary_table[i_bc]] == alg.boundary_table[i_bc] == i_bc


def test_boundary_laws_on_bottom(threepoint):
    alg = closed_lattice(threepoint)
    bot = alg.bottom
    assert alg.boundary_table[bot] == bot
    assert alg.join[alg.conot_table[alg.conot_table[bot]]][alg.boundary_table[bot]] == bot


def test_boolean_criterion(spaces_4, discrete2, threepoint):
    for sp in spaces_4:
        assert boolean_iff_trivial_boundary(open_lattice(sp)).consistent
    crit = boolean_iff_trivial_boundary(open_lattice(threepoint))
    assert not crit.complemented
    crit = boolean_iff_trivial_boundary(open_lattice(discrete2))
    assert crit.complemented


def test_boolean_both_de_morgan_laws(discrete2):
    for rep in check_dual_de_morgan(closed_lattice(discrete2)):
        assert rep.ok


def test_law_report_strings(threepoint):
    conj_rep, disj_rep = check_dual_de_morgan(closed_lattice(threepoint))
    assert "ok" in str(conj_rep)
    rep = check_lem(closed_lattice(threepoint))
    assert rep.checked == 4
