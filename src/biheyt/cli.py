"""Command line entry point: `run` for a process, `main(argv)`, which
returns the exit code, for a caller in the same process.

Exit codes: 0 = success / property verified, 1 = a countermodel or law
violation was found (a legitimate negative result), 2 = usage or input
error. Output is deterministic: no timestamps, every enumeration in
canonical order. --format json emits one JSON record per line for
harness consumption; the default human mode prints aligned tables.

The environment variable BIHEYT_MAX_POINTS, when set, caps every
--points / --max-points argument; it can only lower the library bounds
(search: topology.MAX_SUITE_POINTS spaces, modal.DEFAULT_MAX_WORLDS
frames).
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from .bitsets import bit_list, pattern, translate_table
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
from . import topology
from .topology import (
    FiniteSpace,
    closed_lattice,
    enumerate_topologies,  # noqa: F401 -- bench/spans.py wraps it by this name
    open_lattice,
    space_classes,
)
from .textfmt import (
    BUILTINS,
    format_lattice_text,
    format_space_text,
    load_structure,
    parse_int,
    parse_subset,
)


_ESCAPES = {ch: "\\" + letter for ch, letter in zip('"\\\n\r\t\b\f', '"\\nrtbf')}


def _json_char(ch: str) -> str:
    code = ord(ch)
    if code > 0xFFFF:  # a surrogate pair: 0xD800 + (code - 0x10000 >> 10), then the low bits
        return "\\u%04x\\u%04x" % (0xD7C0 + (code >> 10), 0xDC00 | code & 0x3FF)
    return _ESCAPES.get(ch) or (ch if " " <= ch <= "~" else "\\u%04x" % code)


def _json(value) -> str:
    """json.dumps(value, sort_keys=True), byte for byte, for what records
    hold: str, int, bool, None, lists, tuples, and dicts with str or int
    keys (int keys sort as numbers). It spares every run `import json`."""
    if isinstance(value, str):
        return '"' + "".join(map(_json_char, value)) + '"'
    if value is None or isinstance(value, bool):
        return {None: "null", True: "true", False: "false"}[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(_json, value)) + "]"
    if isinstance(value, dict) and all(type(key) in (str, int) for key in value):
        return "{" + ", ".join(f"{_json(str(key))}: {_json(item)}"
                               for key, item in sorted(value.items())) + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


class _Output:
    def __init__(self, fmt: str):
        self.json = fmt == "json"

    def record(self, **fields):
        if self.json:
            print(_json(fields))

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


def _capped(value: int, what: str) -> int:
    cap = _env_cap()
    if cap is not None and value > cap:
        _argparser().error(f"{what} {value} exceeds BIHEYT_MAX_POINTS={cap}")
    return value


def _at_least_one(text: str) -> int:
    """argparse type for sizes and point counts: below 1 the range is
    empty and every check would pass vacuously. argparse is imported only
    to word a bad value."""
    try:
        value = parse_int(text)
    except ValueError:
        value = None
    if value is not None and value >= 1:
        return value
    from argparse import ArgumentTypeError
    raise ArgumentTypeError(f"invalid int value: {text!r}" if value is None
                            else f"{value} gives an empty range; use 1 or more")


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
    dist = lat.distributive_failure is None
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
    if points > topology.MAX_SUITE_POINTS:
        raise BoundExceeded("points", points, topology.MAX_SUITE_POINTS)
    return [c for m in range(1, points + 1) for c in space_classes(m)]


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


# The certificate keeps hom maps and prime filters as bytes below 128. A
# tag byte 128 + i in front of a map names its source lattice i, and _SEP
# stands between tagged maps; a bitsets.translate_table of fewer than 128
# values fixes each byte from 128 up, so tags and separators pass through
# translate as they are. So elements, points and the lattice count stay
# below 128.
_SEP = b"\xff"


def _compositions_certified(spectra, induced) -> bool:
    """Whether two bulk checks pass that together imply the per-pair
    check of every composable pair.

    C1, once per hom f: its point map is its preimage map. Translating
    f by the 0/1 membership table of each point y of its target's
    spectrum gives f⁻¹(y), which must be the point Spec f(y).
    C2, once per hom g ∈ Hom(j, l): every hom into j, from any source
    i, is tagged with 128 + i, and all are joined into one bytes, so one
    translate by g's table gives every composite g∘f, tagged. Each must
    be an enumerated hom of its pair: one set test per g.

    Then for each composable pair, g∘f is enumerated (C2), and by C1
    its point map sends x to (g∘f)⁻¹(x) = f⁻¹(g⁻¹(x)), the point
    Spec f(Spec g(x)); the points of a spectrum are distinct filters,
    so the two point maps agree."""
    indices = range(len(spectra))
    # members[i][x]: the translate table of point x of Spec(L_i), e ↦ [e ∈ x]
    members = [[translate_table((p >> e) & 1 for e in range(spec.base.n)) for p in spec.points]
               for spec in spectra]
    # points[i]: the index of each point of Spec(L_i), by its membership bytes
    points = [{table[:spec.base.n]: x for x, table in enumerate(tables)}
              for spec, tables in zip(spectra, members)]
    for (i, j), ims in induced.items():
        for f, im in ims.items():
            if tuple(map(points[i].get, map(bytes(f).translate, members[j]))) != im.point_map:
                return False
    homs = [_SEP.join(bytes([128 + i]) + bytes(f) for i in indices for f in induced[(i, j)])
            for j in indices]
    enumerated = [{bytes([128 + i]) + bytes(h) for i in indices for h in induced[(i, l)]}
                  for l in indices]
    for (j, l), ims in induced.items():
        if homs[j] and not all(
                enumerated[l].issuperset(homs[j].translate(translate_table(g)).split(_SEP))
                for g in ims):
            return False
    return True


def _cmd_verify_functoriality(args, out: _Output) -> int:
    """Each hom's induced map is computed once, into a table per lattice
    pair keyed by the hom's map, and checked against the identity and
    the β identity. The compositions are first certified in bulk, one
    bytes.translate per hom g for all its composites g∘f
    (_compositions_certified). Only when the certificate fails are they
    walked pair by pair: g∘f is built as a tuple and looked up in the
    table of (source of f, target of g), and its point map is compared
    with Spec f ∘ Spec g. The hom lists are exhaustive, so a composite
    missing from its table is not a hom. `compositions:` counts every
    composable pair either way."""
    lattices = enumerate_distributive_lattices(args.max_size)
    spectra = [spectrum(lat) for lat in lattices]
    indices = range(len(lattices))
    induced = {
        (i, j): {phi.map: induced_map(phi, spectra[i], spectra[j])
                 for phi in enumerate_homs(lattices[i], lattices[j])}
        for i in indices for j in indices
    }
    exit_code = 0
    identity_checked = beta_checked = 0
    for i, lat in enumerate(lattices):
        im = induced[(i, i)].get(tuple(range(lat.n)))
        identity_checked += 1
        if im is None or im.point_map != tuple(range(len(spectra[i].points))):
            exit_code = 1
            out.text(f"identity map violation on n={lat.n}")
    for ims in induced.values():
        for im in ims.values():
            beta_checked += 1
            if not (im.continuous and im.identity_ok):
                exit_code = 1
                out.text(f"beta identity violation for {im.hom!r}")
    composition_checked = sum(len(induced[(i, j)]) * len(induced[(j, l)])
                              for i in indices for j in indices for l in indices)
    if not _compositions_certified(spectra, induced):
        for (i, j), ims in induced.items():
            for f, i_f in ims.items():
                for l in indices:
                    from_i = induced[(i, l)]
                    for g, i_g in induced[(j, l)].items():
                        i_gf = from_i.get(tuple(map(g.__getitem__, f)))
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
        for rep in s4_axiom_suite(c.space):
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
    if args.alphabet is not None:
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
    """atom -> parse(value) for each ATOM=VALUE item; an atom is named
    and assigned only once, and a ValueError from parse is bad input."""
    out = {}
    for item in items or ():
        name, raw = (part.strip() for part in item.partition("=")[::2])
        if "=" not in item or not name:
            raise BiheytError(f"assignment {item!r} is not of the form atom=value")
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


# --- the command table ------------------------------------------------------
#
# words -> (help, options, defaults), parents first; () is the top level,
# with the description as its help, and a row without a "func" default is
# a group. `options` maps each argument to its argparse keywords: "path" is
# the positional, a pair of flags a required mutually exclusive group.
# "cap_field" names the option BIHEYT_MAX_POINTS caps. _read reads a
# well-formed argv from here; argparse, built by _argparser, the rest.

_PATH = {"path": {}}
_POINTS = {"--points": {"type": _at_least_one, "default": 3}}
_MODEL = {"--model": {"required": True}, "--formula": {"required": True}}
_COMMANDS = {
    (): ("finite Heyting/co-Heyting algebras, Stone spectra, and S4 model checking",
         {"--format": {"choices": ("human", "json"), "default": "human"}}, {}),
    ("lattice",): ("lattice file operations", {}, {}),
    ("lattice", "check"): ("validate a lattice file", _PATH, {"func": _cmd_lattice_check}),
    ("lattice", "spectrum"): ("prime filter spectrum", _PATH, {"func": _cmd_lattice_spectrum}),
    ("lattice", "quotient"): ("quotient by an ideal or filter", {
        **_PATH, ("--by-ideal", "--by-filter"): {"metavar": "ELEMENTS"}},
        {"func": _cmd_lattice_quotient}),
    ("space",): ("topology file operations", {}, {}),
    ("space", "check"): ("validate a space file", _PATH, {"func": _cmd_space_check}),
    ("space", "opens"): ("open-set Heyting algebra", _PATH,
                         {"func": lambda a, o: _space_algebra(a, o, closed=False)}),
    ("space", "closeds"): ("closed-set co-Heyting algebra", _PATH,
                           {"func": lambda a, o: _space_algebra(a, o, closed=True)}),
    ("verify",): ("exhaustive law suites", {}, {}),
    ("verify", "dual-laws"): ("De Morgan, LEM, boundary laws", _POINTS,
                              {"func": _cmd_verify_dual_laws, "cap_field": "points"}),
    ("verify", "stone"): ("spectra are isomorphisms", {
        "--max-size": {"type": _at_least_one, "default": 5}}, {"func": _cmd_verify_stone}),
    ("verify", "functoriality"): ("induced maps compose contravariantly", {
        "--max-size": {"type": _at_least_one, "default": 4}}, {"func": _cmd_verify_functoriality}),
    ("verify", "s4"): ("the five S4 schemas on all small spaces", _POINTS,
                       {"func": _cmd_verify_s4, "cap_field": "points"}),
    ("modal",): ("Kripke / topological evaluation", {}, {}),
    ("modal", "eval"): ("evaluate at a world", {**_MODEL, "--world": {}, "--assign": {
        "action": "append", "metavar": "ATOM=SUBSET",
        "help": "atom values when the input is a space"}}, {"func": _cmd_modal_eval}),
    ("modal", "valid"): ("validity in a model or frame", {
        **_MODEL, "--alphabet": {"help": "check frame validity over these atoms"}},
        {"func": _cmd_modal_valid}),
    ("search",): ("bounded countermodel search", {
        "--formula": {"required": True},
        "--semantics": {"choices": ("classical", "intuitionistic", "dual", "frame"),
                        "default": "classical"},
        "--max-points": {"type": _at_least_one, "default": 3},
        "--require": {"help": "frame properties, e.g. reflexive,transitive"}},
        {"func": _cmd_modal_search, "cap_field": "max_points"}),
    ("eval",): ("algebra-valued formula evaluation", {
        "--algebra": {"required": True,
                      "help": f"lattice/space file or one of {', '.join(BUILTINS)}"},
        "--formula": {"required": True},
        "--assign": {"action": "append", "metavar": "ATOM=VALUE"},
        "--semantics": {"choices": ("auto", "intuitionistic", "dual"), "default": "auto"}},
        {"func": _cmd_eval}),
}


def _read(argv):
    """argparse's namespace for a well-formed argv, read from _COMMANDS:
    words and exact flags, each with a value not starting with "-". Help,
    abbreviated, `=`-joined, repeated or missing options and bad values
    give None; argparse reads or words those."""
    ns, words, at = {}, (), 0
    while True:
        _, options, defaults = _COMMANDS[words]
        leaf = "func" in defaults
        flags = {flag: kw for key, kw in options.items() if key != "path"
                 for flag in (key if isinstance(key, tuple) else (key,))}
        ns.update((flag[2:].replace("-", "_"), kw.get("default")) for flag, kw in flags.items())
        given, positionals = set(), []
        # a group's own options come before its next word; a leaf's take the rest
        while at < len(argv) and (leaf or argv[at].startswith("-")):
            token, at = argv[at], at + 1
            if not token.startswith("-"):
                positionals.append(token)
                continue
            kw = flags.get(token)
            if kw is None or at == len(argv) or argv[at].startswith("-"):
                return None
            value, dest, at = argv[at], token[2:].replace("-", "_"), at + 1
            if kw.get("action") == "append":
                ns[dest] = (ns[dest] or []) + [value]
                continue
            if token in given or "choices" in kw and value not in kw["choices"]:
                return None
            given.add(token)
            try:
                ns[dest] = kw.get("type", str)(value)
            except Exception:
                return None
        if not leaf:
            if at == len(argv) or words + (argv[at],) not in _COMMANDS:
                return None
            ns["subcommand" if words else "command"] = argv[at]
            words, at = words + (argv[at],), at + 1
            continue
        if len(positionals) != ("path" in options) or any(
                len(given.intersection(key)) != 1 if isinstance(key, tuple)
                else kw.get("required") and key not in given for key, kw in options.items()):
            return None
        return SimpleNamespace(**ns, **dict(zip(("path",), positionals)), **defaults)


def _argparser():
    """The argparse parser of _COMMANDS. It reads what _read leaves, and
    words help and usage errors."""
    import argparse

    class Parser(argparse.ArgumentParser):
        """argparse ignores an OSError from writing help or usage; a closed
        stdout is let through, so it exits 2 like any other command."""

        def _print_message(self, message, file=None):
            if file is sys.stdout:
                file.write(message)
            else:
                super()._print_message(message, file)

    parsers, groups = {}, {}
    for words, (text, options, defaults) in _COMMANDS.items():
        up = words[:-1]
        if words and up not in groups:
            groups[up] = parsers[up].add_subparsers(dest="subcommand" if up else "command",
                                                    required=True)
        p = parsers[words] = (groups[up].add_parser(words[-1], help=text) if words
                              else Parser(prog="biheyt", description=text))
        for key, kw in options.items():
            if isinstance(key, tuple):
                group = p.add_mutually_exclusive_group(required=True)
                for flag in key:
                    group.add_argument(flag, **kw)
            else:
                p.add_argument(key, **kw)
        p.set_defaults(**defaults)
    return parsers[()]


def main(argv=None) -> int:
    """Run one command and return its exit code (2 if stdout's reader has
    gone). The process and its file descriptors stay the caller's."""
    args = _read(sys.argv[1:] if argv is None else argv)
    if args is None:
        parser = _argparser()
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
            _capped(getattr(args, cap_field), cap_field.replace("_", "-"))
        code = args.func(args, out)
        sys.stdout.flush()  # a closed pipe shows up here, not at interpreter exit
        return code
    except BiheytError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 2


def run() -> None:
    """The process entry point (`python -m biheyt.cli`, the installed
    `biheyt`), and the one place that ends the process: the exit code is
    that of `main`, of argparse's SystemExit for `--help` and usage
    errors, or 2 when argparse's unbuffered help write finds stdout
    closed. Then stdout and stderr are flushed; a stream whose reader has
    gone is pointed at devnull and makes the exit code 2. `os._exit`
    skips module teardown and the final collection; the CLI has no
    atexit hooks and no open files left by then."""
    try:
        code = main()
    except SystemExit as exit_:
        code = exit_.code or 0
    except BrokenPipeError:
        code = 2
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
            code = 2
    os._exit(code)


if __name__ == "__main__":
    run()
