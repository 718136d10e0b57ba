"""The labelled loops that deciding per homeomorphism class replaced,
kept as references for the differential tests in test_modal.py and
test_cli.py.

reference_search is the countermodel search that walks the labelled
structures of every point count in enumeration order: every frame
(filtered by classify_frame), every space, and on the algebra routes one
lattice per T0 class met on that walk (t0_class). Option checks are
left out.

reference_agreement_closure is agreement_closure as a round-by-round
loop that checks each candidate where it is built. It calls kripke_eval
through biheyt.modal, so a test that patches it there patches both
routes.

reference_verify_s4 and reference_verify_dual_laws are the bodies of
`verify s4` and `verify dual-laws` as one pass over every labelled
space. They call the suites through biheyt.cli, so a test that patches
a suite there patches both routes.
"""

from itertools import product

import biheyt.cli as cli
import biheyt.modal as modal
from biheyt.bitsets import iter_bits, mask_of, pattern

from biheyt.duallogic import algebra_evaluator
from biheyt.formulas import Formula, atom, box, compile_formula, dia, neg
from biheyt.modal import (
    AgreementResult,
    SearchResult,
    _failures,
    _sweep,
    _witness,
    classify_frame,
    enumerate_frames,
    model_from_space,
    topo_eval,
)
from biheyt.lattice import _lex_min_form
from biheyt.topology import closed_lattice, enumerate_preorders, from_preorder, open_lattice


def t0_class(space):
    """Canonical form of the space's T0 quotient: points with the same
    smallest open neighbourhood merge, and the specialization order of
    the classes goes through lattice._lex_min_form. Spaces with equal
    keys have isomorphic open lattices and isomorphic closed lattices."""
    rows = space.min_open
    index = {row: i for i, row in enumerate(sorted(set(rows)))}
    return _lex_min_form([mask_of(index[rows[y]] for y in iter_bits(row)) for row in index])[0]


def reference_search(phi, max_points, mode="space", semantics="classical",
                     frame_properties=()):
    if mode == "frame":
        prog, names = compile_formula(phi, "kripke")
        reflexive = "reflexive" in frame_properties
        for worlds in range(1, max_points + 1):
            for frame in enumerate_frames(worlds, reflexive=reflexive):
                cls = classify_frame(frame)
                if any(not getattr(cls, prop) for prop in frame_properties):
                    continue
                hit = next(_failures(prog, len(names), *_sweep(frame)), None)
                if hit is not None:
                    return _witness(frame, names, worlds, hit)
        return None
    if semantics == "classical":
        prog, names = compile_formula(phi, "topological")
        for points in range(1, max_points + 1):
            for space in map(from_preorder, enumerate_preorders(points)):
                hit = next(_failures(prog, len(names), *_sweep(space)), None)
                if hit is not None:
                    return _witness(space, names, points, hit)
        return None
    prog, names = compile_formula(phi, semantics)
    lattice = open_lattice if semantics == "intuitionistic" else closed_lattice
    valid = set()  # T0 classes already found valid
    for points in range(1, max_points + 1):
        for space in map(from_preorder, enumerate_preorders(points)):
            key = t0_class(space)
            if key in valid:
                continue
            lat = lattice(space)
            value = algebra_evaluator(prog, lat)
            for choice in product(range(lat.n), repeat=len(names)):
                found = lat.subsets[value(choice)]
                if found != space.full:
                    missing = next(x for x in range(points) if not (found >> x) & 1)
                    val = {name: lat.subsets[el] for name, el in zip(names, choice)}
                    return SearchResult(space, val, missing)
            valid.add(key)
    return None


def reference_agreement_closure(space, valuation):
    model = model_from_space(space, valuation)
    worlds = range(space.points)

    def kripke_set(phi):
        mask = 0
        for w in worlds:
            if modal.kripke_eval(model, w, phi):
                mask |= 1 << w
        return mask

    checked = 0
    seen = {}
    frontier = []

    def consider(phi):
        nonlocal checked
        checked += 1
        t = topo_eval(space, valuation, phi)
        k = kripke_set(phi)
        if t != k:
            return phi
        if t not in seen:
            seen[t] = phi
            frontier.append((t, phi))
        return None

    seeds = [Formula("bot"), Formula("top")] + [atom(name) for name in valuation]
    for phi in seeds:
        bad = consider(phi)
        if bad is not None:
            return AgreementResult(len(seen), checked, bad)
    while frontier:
        new_sources = frontier
        frontier = []
        known = list(seen.items())
        for _, phi in new_sources:
            for wrap in (neg, box, dia):
                bad = consider(wrap(phi))
                if bad is not None:
                    return AgreementResult(len(seen), checked, bad)
            for _, psi in known:
                for combine in ("and", "or", "imp"):
                    for a, b in ((phi, psi), (psi, phi)):
                        bad = consider(Formula(combine, args=(a, b)))
                        if bad is not None:
                            return AgreementResult(len(seen), checked, bad)
    return AgreementResult(len(seen), checked, None)


def _spaces(points):
    return (sp for m in range(1, points + 1)
            for sp in map(from_preorder, enumerate_preorders(m)))


def reference_verify_s4(points, out):
    exit_code = 0
    spaces = 0
    per_schema = {}
    failed = set()
    for sp in _spaces(points):
        spaces += 1
        for rep in cli.s4_axiom_suite(sp):
            per_schema[rep.name] = per_schema.get(rep.name, 0) + rep.checked
            if not rep.ok:
                exit_code = 1
                failed.add(rep.name)
                out.text(f"schema {rep.name} fails on opens="
                         f"{[pattern(o, sp.points) for o in sp.opens]}")
    for name in sorted(per_schema):
        ok = name not in failed
        out.text(f"{name:20} {per_schema[name]:>8} valuations: "
                 f"{'pass' if ok else 'see failures'}")
        out.record(record="s4-schema", schema=name, checked=per_schema[name], ok=ok)
    out.text(f"{spaces} spaces checked")
    return exit_code


def reference_verify_dual_laws(points, out):
    totals = {}
    spaces = 0
    paraconsistent = None
    for sp in _spaces(points):
        spaces += 1
        lat = cli.closed_lattice(sp)
        reports = [*cli.check_dual_de_morgan(lat), cli.check_lem(lat),
                   *cli.check_boundary_laws(lat)]
        for rep in reports:
            slot = totals.setdefault(rep.law, [0, 0, None])
            slot[0] += rep.checked
            slot[1] += len(rep.violations)
            if rep.violations and slot[2] is None:
                slot[2] = (sp, rep.violations[0])
        if paraconsistent is None:
            a = cli.find_paraconsistent_witness(lat)
            if a is not None:
                paraconsistent = (sp, a)
    exit_code = 0
    out.text(f"{'law':38} {'checked':>8} {'violations':>10}  first witness")
    for law in sorted(totals):
        checked, bad, witness = totals[law]
        expected_failure = law == "disjunctive dual De Morgan"
        show = "-"
        if witness is not None:
            sp, w = witness
            show = f"opens={[pattern(o, sp.points) for o in sp.opens]} at {w}"
        out.text(f"{law:38} {checked:>8} {bad:>10}  {show}")
        out.record(record="dual-law", law=law, checked=checked, violations=bad,
                   expected_failure=expected_failure)
        if bad and not expected_failure:
            exit_code = 1
    if paraconsistent:
        sp, a = paraconsistent
        subset = cli.closed_lattice(sp).subsets[a]
        out.text(f"paraconsistency witness: boundary of {pattern(subset, sp.points)} "
                 f"is nonempty in opens={[pattern(o, sp.points) for o in sp.opens]}")
    out.record(record="dual-law-summary", spaces=spaces,
               paraconsistency_witness=paraconsistent is not None)
    out.text(f"{spaces} spaces checked")
    return exit_code
