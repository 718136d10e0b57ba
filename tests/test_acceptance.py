"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured runtime (run with -s to see them).

Value tolerances are exact everywhere. The worked-example criteria
(1-3) bound the check itself, on already-built structures, at 1 ms;
the enumeration suites carry their stated wall-clock budgets."""

import random
import time

from biheyt import (
    agreement_closure,
    boolean_iff_trivial_boundary,
    check_boundary_laws,
    check_dual_de_morgan,
    check_lem,
    classify_frame,
    closed_lattice,
    compose,
    congruence_from_filter,
    congruence_from_ideal,
    enumerate_distributive_lattices,
    enumerate_formulas,
    enumerate_homs,
    enumerate_topologies,
    filters,
    find_paraconsistent_witness,
    ideals,
    induced_map,
    kripke_eval,
    model_from_space,
    open_lattice,
    parse_formula,
    quotient,
    s4_axiom_suite,
    spectrum,
    topo_eval,
    validate_topology,
    verify_stone_embedding,
    worked_examples,
)


def _report(number, name, started, detail):
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.3f}s] {detail}")


def test_criterion_1_double_negation_worked_example():
    space = validate_topology(3, [0b000, 0b001, 0b011, 0b111])
    alg = open_lattice(space)
    alg.neg_table  # tables built here
    started = time.perf_counter()
    a = alg.subsets.index(0b011)  # A = {a, b}
    not_a = alg.neg_table[a]
    not_not_a = alg.neg_table[not_a]
    assert alg.subsets[not_a] == 0b000
    assert alg.subsets[not_not_a] == 0b111
    assert not_not_a != a
    check_time = time.perf_counter() - started
    assert check_time < 0.001
    _report(1, "double negation on the 3-point space", started,
            f"¬A=∅, ¬¬A=X≠A, check {check_time * 1e6:.0f}µs")


def test_criterion_2_first_worked_kripke_model():
    model, _ = worked_examples()
    phi = parse_formula("<>p & <>!p")
    started = time.perf_counter()
    assert kripke_eval(model, 0, phi)
    cls = classify_frame(model.frame)
    assert cls.label == "S4" and not cls.symmetric
    check_time = time.perf_counter() - started
    assert check_time < 0.001
    _report(2, "first Kripke example", started,
            f"w0 ⊨ ◇p∧◇¬p, frame S4-not-S5, check {check_time * 1e6:.0f}µs")


def test_criterion_3_second_worked_kripke_model():
    _, model = worked_examples()
    checks = [
        (0, parse_formula("<>p & <>q")),
        (1, parse_formula("p & !q")),
        (2, parse_formula("q & !p")),
    ]
    started = time.perf_counter()
    for world, phi in checks:
        assert kripke_eval(model, world, phi)
    check_time = time.perf_counter() - started
    assert check_time < 0.001
    _report(3, "second Kripke example", started,
            f"w0 ⊨ ◇p∧◇q, w1 ⊨ p∧¬q, w2 ⊨ q∧¬p, check {check_time * 1e6:.0f}µs")


def _independent_family_count(m):
    full = (1 << m) - 1
    proper = list(range(1, full))
    count = 0
    for bits in range(1 << len(proper)):
        fam = {0, full} | {proper[k] for k in range(len(proper)) if (bits >> k) & 1}
        if all(s & t in fam and s | t in fam for s in fam for t in fam):
            count += 1
    return count


def test_criterion_4_dual_law_suite():
    started = time.perf_counter()
    counts = {}
    paraconsistent = 0
    disjunctive_violations = 0
    for m in range(1, 5):
        spaces = list(enumerate_topologies(m))
        counts[m] = len(spaces)
        for sp in spaces:
            alg = closed_lattice(sp)
            conj_rep, disj_rep = check_dual_de_morgan(alg)
            assert not conj_rep.violations, (sp, conj_rep)
            disjunctive_violations += len(disj_rep.violations)
            assert not check_lem(alg).violations, sp
            for rep in check_boundary_laws(alg):
                assert not rep.violations, (sp, rep)
            if find_paraconsistent_witness(alg) is not None:
                paraconsistent += 1
    # labeled counts, independently re-derived at m <= 3
    for m in (1, 2, 3):
        assert counts[m] == _independent_family_count(m)
    assert counts == {1: 1, 2: 4, 3: 29, 4: 355}
    assert paraconsistent > 0
    assert disjunctive_violations > 0
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(4, "dual-law suite over all topologies ≤4 points", started,
            f"counts {counts}, {paraconsistent} paraconsistent spaces, "
            f"{disjunctive_violations} disjunctive De Morgan violations")


def test_criterion_5_stone_suite():
    started = time.perf_counter()
    lattices = enumerate_distributive_lattices(6)
    for lat in lattices:
        report = verify_stone_embedding(lat)
        assert report.ok, (lat, report.violations)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(5, "Stone isomorphism for all distributive lattices ≤6", started,
            f"{len(lattices)} lattices, zero violations")


def test_criterion_6_boolean_criterion():
    started = time.perf_counter()
    lattices = enumerate_distributive_lattices(7)
    for lat in lattices:
        assert boolean_iff_trivial_boundary(lat).consistent, lat
    spaces = 0
    for m in range(1, 5):
        for sp in enumerate_topologies(m):
            spaces += 1
            assert boolean_iff_trivial_boundary(open_lattice(sp)).consistent, sp
    _report(6, "Boolean ⟺ trivial boundary ⟺ involutive ¬¬", started,
            f"{len(lattices)} lattices ≤7 and {spaces} spaces ≤4 points agree")


def test_criterion_7_functoriality():
    started = time.perf_counter()
    lattices = enumerate_distributive_lattices(5)
    spectra = [spectrum(lat) for lat in lattices]
    homs = {}
    for i, h in enumerate(lattices):
        for j, k in enumerate(lattices):
            homs[(i, j)] = enumerate_homs(h, k)
    identities = 0
    for i, lat in enumerate(lattices):
        ident = next(x for x in homs[(i, i)] if list(x.map) == list(range(lat.n)))
        im = induced_map(ident, spectra[i], spectra[i])
        assert im.point_map == tuple(range(len(spectra[i].points)))
        identities += 1
    beta_checks = 0
    for i in range(len(lattices)):
        for j in range(len(lattices)):
            for phi in homs[(i, j)]:
                im = induced_map(phi, spectra[i], spectra[j])
                assert im.continuous and im.identity_ok, phi
                beta_checks += 1
    compositions = 0
    for i in range(len(lattices)):
        for j in range(len(lattices)):
            for f in homs[(i, j)]:
                i_f = induced_map(f, spectra[i], spectra[j])
                for k in range(len(lattices)):
                    for g in homs[(j, k)]:
                        i_g = induced_map(g, spectra[j], spectra[k])
                        i_gf = induced_map(compose(g, f), spectra[i], spectra[k])
                        assert i_gf.point_map == tuple(
                            i_f.point_map[i_g.point_map[x]]
                            for x in range(len(i_g.point_map))
                        ), (f, g)
                        compositions += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(7, "contravariant functoriality over lattices ≤5", started,
            f"{identities} identities, {beta_checks} β-identities, "
            f"{compositions} compositions, zero violations")


def test_criterion_8_s4_soundness():
    started = time.perf_counter()
    spaces = 0
    valuations = 0
    for m in range(1, 5):
        for sp in enumerate_topologies(m):
            spaces += 1
            for rep in s4_axiom_suite(sp):
                assert not rep.violations, (sp, rep.name)
                valuations += rep.checked
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(8, "S4 schema soundness on all topologies ≤4 points", started,
            f"{spaces} spaces, {valuations} schema-valuation checks, zero violations")


def test_criterion_9_alexandrov_bridge():
    """Membership in topo_eval coincides with kripke_eval over the
    specialization model, certified two ways: (a) breadth-first formula
    enumeration with semantic-value deduplication run to saturation —
    every formula of every depth (in particular ≤3) over {p,q} has its
    value pair visited and checked; (b) a literal per-world sweep of
    all formulas with ≤2 connectives on the 3-point worked space."""
    started = time.perf_counter()
    combos = 0
    checked = 0
    for m in range(1, 4):
        for sp in enumerate_topologies(m):
            for vp in range(1 << sp.points):
                for vq in range(1 << sp.points):
                    result = agreement_closure(sp, {"p": vp, "q": vq})
                    assert result.disagreement is None, (sp, vp, vq)
                    combos += 1
                    checked += result.formulas_checked
    space = validate_topology(3, [0b000, 0b001, 0b011, 0b111])
    kinds = ("not", "box", "dia", "and", "or", "imp")
    formulas = list(enumerate_formulas(2, ("p", "q"), kinds=kinds))
    literal = 0
    for vp in range(1 << 3):
        for vq in range(1 << 3):
            valuation = {"p": vp, "q": vq}
            model = model_from_space(space, valuation)
            for phi in formulas:
                value = topo_eval(space, valuation, phi)
                for w in range(3):
                    assert kripke_eval(model, w, phi) == bool((value >> w) & 1)
                    literal += 1
    _report(9, "Alexandrov bridge", started,
            f"{combos} space/valuation pairs saturated ({checked} formula checks), "
            f"{literal} literal world checks, zero disagreements")


def test_criterion_10_quotient_suite():
    started = time.perf_counter()
    lattices = enumerate_distributive_lattices(5)
    quotients = 0
    for lat in lattices:
        for ideal in ideals(lat):
            cong = congruence_from_ideal(lat, ideal)
            q, proj = quotient(lat, cong)
            assert proj.surjective
            assert cong.blocks[proj.map[lat.bottom]] == ideal.members
            quotients += 1
        for filt in filters(lat):
            cong = congruence_from_filter(lat, filt)
            q, proj = quotient(lat, cong)
            assert proj.surjective
            assert cong.blocks[proj.map[lat.top]] == filt.members
            quotients += 1
    _report(10, "quotient suite over Heyting algebras ≤5", started,
            f"{quotients} quotients, projections surjective, "
            f"ideals collapse exactly to ⊥ and filters to ⊤")


def test_criterion_11_residuation_probes():
    started = time.perf_counter()
    rng = random.Random(20260809)
    pool = list(enumerate_distributive_lattices(7))
    for m in range(1, 4):
        for sp in enumerate_topologies(m):
            pool.append(open_lattice(sp))
            pool.append(closed_lattice(sp))
    probes = 10_000
    for _ in range(probes):
        lat = rng.choice(pool)
        a = rng.randrange(lat.n)
        b = rng.randrange(lat.n)
        x = rng.randrange(lat.n)
        assert lat.leq(lat.meet[a][x], b) == lat.leq(x, lat.implies_table[a][b])
        assert lat.leq(lat.minus_table[a][b], x) == lat.leq(a, lat.join[b][x])
    _report(11, "randomized residuation probes", started,
            f"{probes} seeded probes over {len(pool)} algebras, zero failures")
