"""Command line entry point.

Exit codes: 0 = success / property verified, 1 = a countermodel or law
violation was found (a legitimate negative result), 2 = usage or input
error. Output is deterministic: no timestamps, every enumeration in
canonical order. --format json emits one JSON record per line for
harness consumption; the default human mode prints aligned tables.

The environment variable BIHEYT_MAX_POINTS, when set, caps every
--points / --max-points argument; it can only lower the library bounds
(search: DEFAULT_MAX_POINTS spaces, DEFAULT_MAX_WORLDS frames).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bitsets import bit_list, pattern
from .catalog import NAMES
from .duallogic import (
    check_boundary_laws,
    check_dual_de_morgan,
    check_lem,
    eval_algebra,
    find_paraconsistent_witness,
)
from .errors import BiheytError, BoundExceeded
from .formulas import parse_formula
from .lattice import (
    FiniteLattice,
    check_distributive,
    cover_pairs,
    enumerate_distributive_lattices,
    is_boolean,
)
from .modal import (
    classify_frame,
    countermodel_search,
    s4_axiom_suite,
    truth_set,
    valid_in_frame,
    valid_in_model,
    KripkeModel,
)
from .quotient import (
    compose,  # unused here, but bench/spans.py wraps cli.compose by name
    congruence_from_filter,
    congruence_from_ideal,
    enumerate_homs,
    make_filter,
    make_ideal,
    quotient as quotient_by,
)
from .spectrum import induced_map, spectrum, verify_stone_embedding
from .topology import (
    MAX_SUITE_POINTS,
    FiniteSpace,
    closed_lattice,
    enumerate_topologies,  # noqa: F401 -- bench/spans.py wraps it by this name
    open_lattice,
    space_classes,
)
from .textfmt import (
    format_lattice_text,
    format_space_text,
    load_structure,
    parse_int,
    parse_subset,
)


class _Output:
    def __init__(self, fmt: str):
        self.json = fmt == "json"

    def record(self, **fields):
        if self.json:
            print(json.dumps(fields, sort_keys=True))

    def text(self, line=""):
        if not self.json:
            print(line)


def _env_cap() -> int | None:
    raw = os.environ.get("BIHEYT_MAX_POINTS")
    if raw is None:
        return None
    try:
        return parse_int(raw)
    except ValueError:
        raise BiheytError(f"BIHEYT_MAX_POINTS={raw!r} is not an integer") from None


def _capped(parser, value: int, what: str) -> int:
    cap = _env_cap()
    if cap is not None and value > cap:
        parser.error(f"{what} {value} exceeds BIHEYT_MAX_POINTS={cap}")
    return value


def _at_least_one(text: str) -> int:
    """argparse type for sizes and point counts: below 1 the range is
    empty and every check would pass vacuously."""
    try:
        value = parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} gives an empty range; use 1 or more")
    return value


def _elements(text: str) -> list[int]:
    try:
        return [parse_int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise BiheytError(f"bad element list {text!r}") from None


def _need(structure, kind, what):
    if not isinstance(structure, kind):
        raise BiheytError(f"expected a {what}, got {type(structure).__name__}")
    return structure


# --- subcommand bodies -----------------------------------------------------


def _cmd_lattice_check(args, out: _Output) -> int:
    lat = _need(load_structure(args.path), FiniteLattice, "lattice")
    dist = check_distributive(lat)
    boolean = is_boolean(lat) if dist else False
    out.text(f"lattice n={lat.n}: valid")
    out.text(f"distributive: {'yes' if dist else 'no'}")
    out.text(f"boolean: {'yes' if boolean else 'no'}")
    out.record(record="lattice-check", n=lat.n, valid=True,
               distributive=dist, boolean=boolean)
    return 0


def _cmd_lattice_spectrum(args, out: _Output) -> int:
    lat = _need(load_structure(args.path), FiniteLattice, "lattice")
    spec = spectrum(lat)
    if out.json:
        out.record(
            record="spectrum",
            points=[bit_list(p) for p in spec.points],
            opens=[bit_list(o) for o in spec.space.opens],
            beta={h: bit_list(spec.beta[h]) for h in range(lat.n)},
        )
    else:
        sys.stdout.write(format_space_text(spec.space))
        for h in range(lat.n):
            out.text(f"beta {h} {pattern(spec.beta[h], spec.space.points)}")
    return 0


def _cmd_lattice_quotient(args, out: _Output) -> int:
    lat = _need(load_structure(args.path), FiniteLattice, "lattice")
    if args.by_ideal is not None:
        cong = congruence_from_ideal(lat, make_ideal(lat, _elements(args.by_ideal)))
    else:
        cong = congruence_from_filter(lat, make_filter(lat, _elements(args.by_filter)))
    q, proj = quotient_by(lat, cong)
    if out.json:
        out.record(
            record="quotient",
            n=q.n,
            covers=cover_pairs(q),
            projection=list(proj.map),
            blocks=[bit_list(b) for b in cong.blocks],
        )
    else:
        sys.stdout.write(format_lattice_text(q))
        for a in range(lat.n):
            out.text(f"project {a} {proj.map[a]}")
    return 0


def _cmd_space_check(args, out: _Output) -> int:
    space = _need(load_structure(args.path), FiniteSpace, "space")
    if out.json:
        out.record(
            record="space-check",
            m=space.points,
            valid=True,
            opens=[bit_list(o) for o in space.opens],
        )
    else:
        sys.stdout.write(format_space_text(space))
        out.text("valid")
    return 0


def _space_algebra(args, out: _Output, closed: bool) -> int:
    space = _need(load_structure(args.path), FiniteSpace, "space")
    lat = closed_lattice(space) if closed else open_lattice(space)
    if out.json:
        out.record(
            record="closeds" if closed else "opens",
            n=lat.n,
            covers=cover_pairs(lat),
            subsets=[bit_list(s) for s in lat.subsets],
        )
    else:
        sys.stdout.write(format_lattice_text(lat))
        for i, s in enumerate(lat.subsets):
            out.text(f"subset {i} {pattern(s, space.points)}")
    return 0


def _suite_classes(points: int) -> list:
    """One space per homeomorphism class on 1..points points, each with
    its orbit: the number of labelled spaces it stands for. The cap is
    checked before anything is enumerated."""
    if points > MAX_SUITE_POINTS:
        raise BoundExceeded("points", points, MAX_SUITE_POINTS)
    return [c for m in range(1, points + 1) for c in space_classes(m, MAX_SUITE_POINTS)]


def _cmd_verify_dual_laws(args, out: _Output) -> int:
    """The closed lattice, and with it each law's verdict and violation
    count, is fixed by the T0 class, so each class is checked once and
    its counts are weighted by the orbits of the spaces in it. A T0
    class is met first as itself, and its representative is the first
    labelled space of the class, so the first witnesses the classes
    show are those a walk over every labelled space finds."""
    totals: dict[str, list] = {}
    spaces = 0
    paraconsistent = None
    decided: dict[tuple, list] = {}  # T0 class -> its law reports
    for c in _suite_classes(args.points):
        if c.skeleton not in decided:
            lat = closed_lattice(c.space)
            decided[c.skeleton] = [*check_dual_de_morgan(lat), check_lem(lat),
                                   *check_boundary_laws(lat)]
            for rep in decided[c.skeleton]:
                slot = totals.setdefault(rep.law, [0, 0, None])
                if rep.violations and slot[2] is None:
                    slot[2] = (c.space, rep.violations[0])
            if paraconsistent is None:
                a = find_paraconsistent_witness(lat)
                if a is not None:
                    paraconsistent = (c.space, lat.subsets[a])
        spaces += c.orbit
        for rep in decided[c.skeleton]:
            totals[rep.law][0] += rep.checked * c.orbit
            totals[rep.law][1] += len(rep.violations) * c.orbit
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
        sp, subset = paraconsistent
        out.text(f"paraconsistency witness: boundary of {pattern(subset, sp.points)} "
                 f"is nonempty in opens={[pattern(o, sp.points) for o in sp.opens]}")
    out.record(record="dual-law-summary", spaces=spaces,
               paraconsistency_witness=paraconsistent is not None)
    out.text(f"{spaces} spaces checked")
    return exit_code


def _cmd_verify_stone(args, out: _Output) -> int:
    exit_code = 0
    count = 0
    for lat in enumerate_distributive_lattices(args.max_size):
        report = verify_stone_embedding(lat)
        count += 1
        if not report.ok:
            exit_code = 1
            out.text(f"lattice n={lat.n} covers={cover_pairs(lat)}: "
                     f"{len(report.violations)} violations")
            for v in report.violations:
                out.text(f"  {v}")
        out.record(record="stone", n=lat.n, ok=report.ok,
                   violations=report.violations)
    out.text(f"{count} lattices checked, "
             f"{'all embeddings are isomorphisms' if exit_code == 0 else 'violations found'}")
    return exit_code


def _cmd_verify_functoriality(args, out: _Output) -> int:
    """Each hom's induced map is computed once, into a table per lattice
    pair keyed by the hom's map; a composite g∘f is checked by looking
    its map up in the table of its pair. The hom lists are exhaustive,
    so a composite missing from its table is not a hom."""
    lattices = enumerate_distributive_lattices(args.max_size)
    spectra = {id(lat): spectrum(lat) for lat in lattices}
    induced = {}
    exit_code = 0
    identity_checked = composition_checked = beta_checked = 0
    for h in lattices:
        for k in lattices:
            induced[(id(h), id(k))] = {
                phi.map: induced_map(phi, spectra[id(h)], spectra[id(k)])
                for phi in enumerate_homs(h, k)
            }
    for lat in lattices:
        im = induced[(id(lat), id(lat))].get(tuple(range(lat.n)))
        identity_checked += 1
        if im is None or im.point_map != tuple(range(len(spectra[id(lat)].points))):
            exit_code = 1
            out.text(f"identity map violation on n={lat.n}")
    for h in lattices:
        for k in lattices:
            for im in induced[(id(h), id(k))].values():
                beta_checked += 1
                if not (im.continuous and im.identity_ok):
                    exit_code = 1
                    out.text(f"beta identity violation for {im.hom!r}")
    for h in lattices:
        for k in lattices:
            for f, i_f in induced[(id(h), id(k))].items():
                for l in lattices:
                    from_h = induced[(id(h), id(l))]
                    for g, i_g in induced[(id(k), id(l))].items():
                        i_gf = from_h.get(tuple(map(g.__getitem__, f)))
                        composition_checked += 1
                        if i_gf is None:
                            exit_code = 1
                            out.text(f"composition violation: {i_f.hom!r} ; {i_g.hom!r} "
                                     f"composes to no enumerated hom")
                        elif i_gf.point_map != tuple(map(i_f.point_map.__getitem__,
                                                         i_g.point_map)):
                            exit_code = 1
                            out.text(f"composition violation: {i_f.hom!r} ; {i_g.hom!r}")
    out.text(f"identities: {identity_checked}, beta identities: {beta_checked}, "
             f"compositions: {composition_checked}, "
             f"{'all contravariant' if exit_code == 0 else 'violations found'}")
    out.record(record="functoriality", identities=identity_checked,
               beta=beta_checked, compositions=composition_checked,
               ok=exit_code == 0)
    return exit_code


def _cmd_verify_s4(args, out: _Output) -> int:
    """Each schema is decided once per homeomorphism class and counted
    once per labelled space in it; a failure names the class by its
    representative and orbit."""
    exit_code = 0
    spaces = 0
    per_schema: dict[str, int] = {}
    failed: set[str] = set()
    for c in _suite_classes(args.points):
        spaces += c.orbit
        for rep in s4_axiom_suite(c.space, bound=MAX_SUITE_POINTS):
            per_schema[rep.name] = per_schema.get(rep.name, 0) + rep.checked * c.orbit
            if not rep.ok:
                exit_code = 1
                failed.add(rep.name)
                out.text(f"schema {rep.name} fails on opens="
                         f"{[pattern(o, c.space.points) for o in c.space.opens]} "
                         f"and its class of {c.orbit} spaces")
    for name in sorted(per_schema):
        ok = name not in failed
        out.text(f"{name:20} {per_schema[name]:>8} valuations: "
                 f"{'pass' if ok else 'see failures'}")
        out.record(record="s4-schema", schema=name, checked=per_schema[name], ok=ok)
    out.text(f"{spaces} spaces checked")
    return exit_code


def _world_index(text: str, worlds: int) -> int:
    raw = text[1:] if text.startswith("w") else text
    try:
        w = parse_int(raw)
    except ValueError:
        raise BiheytError(f"bad world {text!r}") from None
    if not 0 <= w < worlds:
        raise BiheytError(f"world {text!r} out of range 0..{worlds - 1}")
    return w


def _cmd_modal_eval(args, out: _Output) -> int:
    structure = load_structure(args.model)
    phi = parse_formula(args.formula)
    if isinstance(structure, FiniteSpace):
        if args.world is not None:
            raise BiheytError("--world needs a Kripke model; a space is evaluated as a whole")
        valuation = _assignments(args.assign, lambda raw: _subset_arg(raw, structure.points))
        value = truth_set(structure, phi, valuation)
        out.text(pattern(value, structure.points))
        out.record(record="topo-eval", value=bit_list(value))
        return 0 if value == structure.full else 1
    model = _need(structure, KripkeModel, "model")
    if args.assign:
        raise BiheytError("--assign needs a space; a Kripke model has its own valuation")
    holds = truth_set(model, phi)
    if args.world is not None:
        w = _world_index(args.world, model.frame.worlds)
        value = bool((holds >> w) & 1)
        out.text("true" if value else "false")
        out.record(record="modal-eval", world=w, value=value)
        return 0 if value else 1
    results = {f"w{w}": bool((holds >> w) & 1) for w in range(model.frame.worlds)}
    for name, value in results.items():
        out.text(f"{name} {'true' if value else 'false'}")
    out.record(record="modal-eval", value=results)
    return 0 if all(results.values()) else 1


def _cmd_modal_valid(args, out: _Output) -> int:
    structure = load_structure(args.model)
    model = _need(structure, KripkeModel, "model")
    phi = parse_formula(args.formula)
    if args.alphabet:
        names = args.alphabet.replace(",", " ").split()
        verdict = valid_in_frame(model.frame, phi, names)
        kind = "frame"
    else:
        verdict = valid_in_model(model, phi)
        kind = "model"
    cls = classify_frame(model.frame)
    out.text(f"{kind} validity: {'valid' if verdict else 'invalid'} "
             f"(frame class {cls.label})")
    out.record(record="modal-valid", kind=kind, valid=verdict, frame_class=cls.label)
    return 0 if verdict else 1


def _cmd_modal_search(args, out: _Output) -> int:
    phi = parse_formula(args.formula)
    mode = "frame" if args.semantics == "frame" else "space"
    semantics = "classical" if args.semantics == "frame" else args.semantics
    props = tuple(args.require.replace(",", " ").split()) if args.require else ()
    result = countermodel_search(
        phi, args.max_points, mode=mode, semantics=semantics, frame_properties=props,
    )
    if result is None:
        out.text(f"no countermodel within {args.max_points} points")
        out.record(record="search", found=False)
        return 0
    if isinstance(result.structure, FiniteSpace):
        sys.stdout.write("" if out.json else format_space_text(result.structure))
        desc = {
            "points": result.structure.points,
            "opens": [bit_list(o) for o in result.structure.opens],
        }
    else:
        desc = {
            "worlds": result.structure.worlds,
            "edges": result.structure.edges(),
        }
        if not out.json:
            out.text(f"frame n={result.structure.worlds}")
            for a, b in result.structure.edges():
                out.text(f"edge {a} {b}")
    for name in sorted(result.valuation):
        out.text(f"val {name}: "
                 + " ".join(str(x) for x in bit_list(result.valuation[name])))
    out.text(f"falsified at {result.point}")
    out.record(record="search", found=True, structure=desc,
               valuation={k: bit_list(v) for k, v in result.valuation.items()},
               point=result.point)
    return 1


def _cmd_eval(args, out: _Output) -> int:
    structure = load_structure(args.algebra)
    phi = parse_formula(args.formula)
    logic = args.semantics
    if logic == "auto":
        dual = any(f.kind in ("conot", "coimp") for f in phi.walk())
        logic = "dual" if dual else "intuitionistic"
    if isinstance(structure, FiniteSpace):
        dual = logic == "dual"
        lat = closed_lattice(structure) if dual else open_lattice(structure)
        index = {s: i for i, s in enumerate(lat.subsets)}

        def element(raw):
            mask = _subset_arg(raw, structure.points)
            if mask not in index:
                raise BiheytError(
                    f"{raw!r} is not {'a closed' if dual else 'an open'} set here"
                )
            return index[mask]

        value = eval_algebra(phi, lat, _assignments(args.assign, element), logic)
        out.text(pattern(lat.subsets[value], structure.points))
        out.record(record="algebra-eval", value=bit_list(lat.subsets[value]),
                   top=value == lat.top)
        return 0 if value == lat.top else 1
    lat = _need(structure, FiniteLattice, "lattice or space")

    def element(raw):
        try:
            el = parse_int(raw)
        except ValueError:
            raise BiheytError(f"bad element {raw!r}") from None
        if not 0 <= el < lat.n:
            raise BiheytError(f"element {el} out of range 0..{lat.n - 1}")
        return el

    value = eval_algebra(phi, lat, _assignments(args.assign, element), logic)
    out.text(str(value))
    out.record(record="algebra-eval", value=value, top=value == lat.top)
    return 0 if value == lat.top else 1


def _assignments(items, parse) -> dict:
    """atom -> parse(value) for each ATOM=VALUE item; an atom may be
    assigned only once, and a ValueError from parse is bad input."""
    out = {}
    for item in items or ():
        if "=" not in item:
            raise BiheytError(f"assignment {item!r} is not of the form atom=value")
        name, raw = (part.strip() for part in item.split("=", 1))
        if name in out:
            raise BiheytError(f"atom {name!r} is assigned more than once")
        try:
            out[name] = parse(raw)
        except ValueError as err:
            raise BiheytError(f"bad value in {item!r}: {err}") from None
    return out


def _subset_arg(raw: str, points: int) -> int:
    """A bit pattern or comma/space separated point indices."""
    return parse_subset(raw.replace(",", " ").split(), points)


# --- parser ----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biheyt",
        description="finite Heyting/co-Heyting algebras, Stone spectra, "
                    "and S4 model checking",
    )
    parser.add_argument("--format", choices=("human", "json"), default="human")
    sub = parser.add_subparsers(dest="command", required=True)

    lat = sub.add_parser("lattice", help="lattice file operations")
    lat_sub = lat.add_subparsers(dest="subcommand", required=True)
    p = lat_sub.add_parser("check", help="validate a lattice file")
    p.add_argument("path")
    p.set_defaults(func=_cmd_lattice_check)
    p = lat_sub.add_parser("spectrum", help="prime filter spectrum")
    p.add_argument("path")
    p.set_defaults(func=_cmd_lattice_spectrum)
    p = lat_sub.add_parser("quotient", help="quotient by an ideal or filter")
    p.add_argument("path")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--by-ideal", metavar="ELEMENTS")
    grp.add_argument("--by-filter", metavar="ELEMENTS")
    p.set_defaults(func=_cmd_lattice_quotient)

    spc = sub.add_parser("space", help="topology file operations")
    spc_sub = spc.add_subparsers(dest="subcommand", required=True)
    p = spc_sub.add_parser("check", help="validate a space file")
    p.add_argument("path")
    p.set_defaults(func=_cmd_space_check)
    p = spc_sub.add_parser("opens", help="open-set Heyting algebra")
    p.add_argument("path")
    p.set_defaults(func=lambda a, o: _space_algebra(a, o, closed=False))
    p = spc_sub.add_parser("closeds", help="closed-set co-Heyting algebra")
    p.add_argument("path")
    p.set_defaults(func=lambda a, o: _space_algebra(a, o, closed=True))

    ver = sub.add_parser("verify", help="exhaustive law suites")
    ver_sub = ver.add_subparsers(dest="subcommand", required=True)
    p = ver_sub.add_parser("dual-laws", help="De Morgan, LEM, boundary laws")
    p.add_argument("--points", type=_at_least_one, default=3)
    p.set_defaults(func=_cmd_verify_dual_laws, cap_field="points")
    p = ver_sub.add_parser("stone", help="spectra are isomorphisms")
    p.add_argument("--max-size", type=_at_least_one, default=5)
    p.set_defaults(func=_cmd_verify_stone)
    p = ver_sub.add_parser("functoriality", help="induced maps compose contravariantly")
    p.add_argument("--max-size", type=_at_least_one, default=4)
    p.set_defaults(func=_cmd_verify_functoriality)
    p = ver_sub.add_parser("s4", help="the five S4 schemas on all small spaces")
    p.add_argument("--points", type=_at_least_one, default=3)
    p.set_defaults(func=_cmd_verify_s4, cap_field="points")

    mod = sub.add_parser("modal", help="Kripke / topological evaluation")
    mod_sub = mod.add_subparsers(dest="subcommand", required=True)
    p = mod_sub.add_parser("eval", help="evaluate at a world")
    p.add_argument("--model", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--world")
    p.add_argument("--assign", action="append", metavar="ATOM=SUBSET",
                   help="atom values when the input is a space")
    p.set_defaults(func=_cmd_modal_eval)
    p = mod_sub.add_parser("valid", help="validity in a model or frame")
    p.add_argument("--model", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--alphabet", help="check frame validity over these atoms")
    p.set_defaults(func=_cmd_modal_valid)

    def add_search(parent, name):
        p = parent.add_parser(name, help="bounded countermodel search")
        p.add_argument("--formula", required=True)
        p.add_argument(
            "--semantics",
            choices=("classical", "intuitionistic", "dual", "frame"),
            default="classical",
        )
        p.add_argument("--max-points", type=_at_least_one, default=3)
        p.add_argument("--require", help="frame properties, e.g. reflexive,transitive")
        p.set_defaults(func=_cmd_modal_search, cap_field="max_points")
        return p

    add_search(mod_sub, "search")
    add_search(sub, "search")

    p = sub.add_parser("eval", help="algebra-valued formula evaluation")
    p.add_argument("--algebra", required=True,
                   help=f"lattice/space file or one of {', '.join(NAMES)}")
    p.add_argument("--formula", required=True)
    p.add_argument("--assign", action="append", metavar="ATOM=VALUE")
    p.add_argument("--semantics", choices=("auto", "intuitionistic", "dual"),
                   default="auto")
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    for name, value in vars(args).items():
        # argparse drops an option value that is exactly "--" (`--world=--`)
        # and stores [] where the string would be
        if isinstance(value, list) and (value == [] or [] in value):
            parser.error(f"argument --{name.replace('_', '-')}: '--' is not a value")
    cap_field = getattr(args, "cap_field", None)
    out = _Output(args.format)
    try:
        if cap_field is not None:
            _capped(parser, getattr(args, cap_field), cap_field.replace("_", "-"))
        code = args.func(args, out)
        sys.stdout.flush()  # a closed pipe shows up here, not at interpreter exit
        return code
    except BiheytError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout; what is still buffered goes to devnull,
        # so the flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
