"""Kripke frames and models, frame classification, topological
semantics, and bounded countermodel search.

Reference routes. kripke_eval uses classical base clauses at each
world (per-world boolean recursion); □ quantifies over accessible
worlds, ◇ asks for one. topo_eval interprets the same classical
connectives as set operations with □ = interior and ◇ = closure,
uniformly at every nesting depth. On a finite space the two semantics
coincide through the specialization preorder (model_from_space);
agreement_closure certifies that equivalence for every formula over
given atoms by exhausting the reachable pairs of values. These
per-valuation walkers serve only as the independent references that
the sliced core below is tested against; no command runs them.

Sliced core. The valuation sweeps (s4_axiom_suite, valid_in_frame,
and countermodel_search on the frame route and the classical space
route) compile a formula once with formulas.compile_formula and check
every valuation at once. truth_set and valid_in_model run the same
core on one valuation, as a one-bit slice: truth_set takes a model, or
a space with a valuation. A point's truth value is one int with one
bit per valuation: with k atoms in sweep order over n points,
valuation index v = Σ masks[j] << n·(k−1−j), which is the
lexicographic order of itertools.product over the atoms' subset
masks. Every sweep takes the point count and □ from _sweep, the one
place that tells a frame from a space. On a frame, □ at w is the AND
of its successors' vectors. On a space, □ at x is the OR, over the
opens containing x, of the AND of the open's vectors; the closeds
and the specialization preorder are never consulted, so the space
route stays independent of the frame route. On both structures ◇ is
¬□¬, computed in one place from the structure's □; kripke_eval (some
successor) and topo_eval (closure) still compute ◇ directly, so the
reference sweeps check the duality too. A slice holds at most
2**SLICE_BITS valuations and wider sweeps run slice by slice in
ascending order. The lowest zero bit names the first failing
valuation, so witnesses and violation lists come out in the order of a
per-valuation loop.

← and ∼ get no Kripke clauses; they belong to the algebra evaluator,
and the compiler rejects them before any sweep starts. The algebra
route of countermodel_search compiles once per search too and runs
duallogic.algebra_evaluator on the open (or closed) set lattice of a
space.

Search by class. Whether a point count holds a countermodel does not
change when points are relabelled, so countermodel_search decides each
count on one space per homeomorphism class (topology.space_classes):
the classical space route on every class, a frame search whose
properties include reflexive and transitive on the classes whose
preorder classify_frame keeps, and the algebra routes on the T0 classes
alone, since a space's open and closed lattices are those of its T0
quotient and every smaller quotient has been decided already. On at
most 5 points that is 185 classes, or 87 T0 classes, against 7,331
labelled spaces. One loop over the point counts serves every route: per
count a route gives its class representatives, its labelled walk and
how one structure is refuted. The space routes walk the classes (the
algebra routes the T0 ones) as their labelled walk: each representative
is the first labelled space of its class, and the classes come in the
order that the labelled walk first meets them, so the first failing
representative is the first failing labelled space. Frame order is not
that order, so on the frame routes a count on which some class fails
is walked labelled, and the first witness is the one a scan finds.

Decided on one point. In a co-Heyting algebra x ↦ ∼∼x is a
homomorphism onto the Boolean algebra of the regular elements, and
∼∼x ≤ x, so a formula is ⊤ under every valuation in every closed-set
algebra once it is a classical tautology: the order dual of Glivenko's
theorem, by which ¬ψ is intuitionistically valid once it is classically
valid. The one-point space is the two-element Boolean algebra, so the
dual route, and the intuitionistic route on a formula ¬ψ, sweep one
point only: a formula that fails there fails on the first structure
the search walks, and one that holds there holds everywhere. The
valuation-bit bound is still checked for every point count.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Mapping, Optional, Sequence

from .bitsets import iter_bits, transpose
from .errors import BiheytError, BoundExceeded, UnboundAtom, UnknownOption, UnsupportedConnective
from .formulas import KRIPKE, Formula, atom, box, compile_formula, dia, neg, parse_formula
from .duallogic import algebra_evaluator
from .records import Record
from . import topology
from .topology import (
    FiniteSpace,
    closed_lattice,
    closure,
    complement,
    enumerate_topologies,  # noqa: F401 -- bench/spans.py wraps it by this name
    interior,
    open_lattice,
    space_classes,
    specialization_preorder,
)

DEFAULT_MAX_WORLDS = 4
MAX_VALUATION_BITS = 22  # most points × atoms valid_in_frame and a search sweep
FRAME_PROPERTIES = ("reflexive", "transitive", "symmetric")
SLICE_BITS = 12  # a slice holds at most 2**SLICE_BITS valuations


class KripkeFrame(Record):
    """Worlds 0..worlds-1 and one row of successors per world."""

    __slots__ = ()
    worlds: int
    rel: tuple[int, ...]  # rel[w] = mask of successors

    @classmethod
    def from_edges(cls, worlds: int, edges) -> "KripkeFrame":
        rel = [0] * worlds
        for a, b in edges:
            if not (0 <= a < worlds and 0 <= b < worlds):
                raise ValueError(f"edge ({a}, {b}) outside 0..{worlds - 1}")
            rel[a] |= 1 << b
        return cls(worlds, tuple(rel))

    def edges(self) -> list[tuple[int, int]]:
        return [(w, u) for w in range(self.worlds) for u in iter_bits(self.rel[w])]


class KripkeModel(Record):
    """A frame and a valuation (atom -> world mask), kept as given."""

    __slots__ = ()
    frame: KripkeFrame
    valuation: dict[str, int]


class FrameClass(Record):
    __slots__ = ()
    reflexive: bool
    transitive: bool
    symmetric: bool

    @property
    def label(self) -> str:
        if self.reflexive and self.transitive:
            return "S5" if self.symmetric else "S4"
        return "T" if self.reflexive else "K"


def classify_frame(frame: KripkeFrame) -> FrameClass:
    rel = frame.rel
    n = frame.worlds
    reflexive = all((rel[w] >> w) & 1 for w in range(n))
    transitive = all(
        not (rel[u] & ~rel[w]) for w in range(n) for u in iter_bits(rel[w])
    )
    symmetric = all(
        (rel[u] >> w) & 1 for w in range(n) for u in iter_bits(rel[w])
    )
    return FrameClass(reflexive, transitive, symmetric)


def kripke_eval(model: KripkeModel, world: int, phi: Formula) -> bool:
    """Truth at a world: classical boolean clauses, □ = all successors,
    ◇ = some successor."""
    kind = phi.kind
    if kind not in KRIPKE:
        raise UnsupportedConnective(kind, "kripke")
    if kind == "atom":
        if phi.name not in model.valuation:
            raise UnboundAtom(phi.name)
        return bool((model.valuation[phi.name] >> world) & 1)
    if kind == "bot":
        return False
    if kind == "top":
        return True
    if kind == "not":
        return not kripke_eval(model, world, phi.args[0])
    if kind == "and":
        return kripke_eval(model, world, phi.args[0]) and kripke_eval(
            model, world, phi.args[1]
        )
    if kind == "or":
        return kripke_eval(model, world, phi.args[0]) or kripke_eval(
            model, world, phi.args[1]
        )
    if kind == "imp":
        return (not kripke_eval(model, world, phi.args[0])) or kripke_eval(
            model, world, phi.args[1]
        )
    succ = model.frame.rel[world]
    if kind == "box":
        return all(kripke_eval(model, u, phi.args[0]) for u in iter_bits(succ))
    return any(kripke_eval(model, u, phi.args[0]) for u in iter_bits(succ))


def truth_set(
    structure, phi: Formula, valuation: Optional[Mapping[str, int]] = None
) -> int:
    """Mask of the worlds of a KripkeModel, or of the points of a
    FiniteSpace under valuation (atom -> subset mask), where phi holds:
    the sliced core on one valuation, as a one-bit slice. Unlike
    kripke_eval and topo_eval it rejects an unsupported connective or
    unbound atom anywhere in phi before evaluating."""
    logic = "topological"
    if isinstance(structure, KripkeModel):
        if valuation is not None:
            raise TypeError("a Kripke model carries its own valuation")
        structure, valuation, logic = structure.frame, structure.valuation, "kripke"
    n, box = _sweep(structure)
    prog, names = compile_formula(phi, logic, sorted(valuation))
    atoms = [[(valuation[name] >> w) & 1 for w in range(n)] for name in names]
    vec = _evaluate(prog, atoms, 1, n, box)
    return sum(bit << w for w, bit in enumerate(vec))


def valid_in_model(model: KripkeModel, phi: Formula) -> bool:
    return truth_set(model, phi) == (1 << model.frame.worlds) - 1


def valid_in_frame(frame: KripkeFrame, phi: Formula, alphabet: Sequence[str]) -> bool:
    """Validity under every valuation of the alphabet over the frame,
    where a repeated atom is one atom, also for the valuation-bit bound."""
    names = list(dict.fromkeys(alphabet))
    _check_valuation_bits(frame.worlds, len(names))
    prog, names = compile_formula(phi, "kripke", names)
    return next(_failures(prog, len(names), *_sweep(frame)), None) is None


# --- sliced core ----------------------------------------------------------


def _slices(points: int, natoms: int) -> Iterator[tuple[int, int, list[list[int]]]]:
    """(base, full, atom vectors) for each slice of the valuation space,
    ascending. Bit v of atoms[j][x] is set iff atom j holds at point x
    under valuation base + v; full has one bit per valuation in the
    slice."""
    total = points * natoms
    width_bits = min(total, SLICE_BITS)
    full = (1 << (1 << width_bits)) - 1
    # bit b of the valuation index, over the indices of one slice
    periodic = [
        (((1 << (1 << b)) - 1) << (1 << b)) * (full // ((1 << (2 << b)) - 1))
        for b in range(width_bits)
    ]
    for base in range(0, 1 << total, 1 << width_bits):
        column = [
            periodic[b] if b < width_bits else (full if (base >> b) & 1 else 0)
            for b in range(total)
        ]
        atoms = [
            column[points * (natoms - 1 - j) : points * (natoms - j)]
            for j in range(natoms)
        ]
        yield base, full, atoms


def _evaluate(prog, atoms, full: int, points: int, box) -> list[int]:
    """Per-point vectors of the compiled formula over one slice; box
    maps a vector to its □, and ◇ is ¬□¬."""
    vals: list[list[int]] = []
    for node in prog:
        kind = node[0]
        if kind == "atom":
            value = atoms[node[1]]
        elif kind == "bot":
            value = [0] * points
        elif kind == "top":
            value = [full] * points
        elif kind == "not":
            value = [full ^ a for a in vals[node[1]]]
        elif kind == "and":
            value = [a & b for a, b in zip(vals[node[1]], vals[node[2]])]
        elif kind == "or":
            value = [a | b for a, b in zip(vals[node[1]], vals[node[2]])]
        elif kind == "imp":
            value = [(full ^ a) | b for a, b in zip(vals[node[1]], vals[node[2]])]
        elif kind == "box":
            value = box(vals[node[1]], full)
        else:
            value = [full ^ a for a in box([full ^ a for a in vals[node[1]]], full)]
        vals.append(value)
    return vals[-1]


def _failures(prog, natoms: int, points: int, box) -> Iterator[tuple[int, list[int]]]:
    """(valuation index, points where the formula fails), for every
    failing valuation in ascending order."""
    for base, full, atoms in _slices(points, natoms):
        vec = _evaluate(prog, atoms, full, points, box)
        held = full
        for x in vec:
            held &= x
        bad = full ^ held
        while bad:
            low = bad & -bad
            yield base + low.bit_length() - 1, [
                x for x in range(points) if not vec[x] & low
            ]
            bad ^= low


def _masks(v: int, natoms: int, points: int) -> tuple[int, ...]:
    """The atoms' subset masks of valuation index v."""
    row = (1 << points) - 1
    return tuple((v >> points * (natoms - 1 - j)) & row for j in range(natoms))


def _meet(vec: list[int], idx, full: int) -> int:
    acc = full
    for i in idx:
        acc &= vec[i]
    return acc


def _join(vec: list[int], idx) -> int:
    acc = 0
    for i in idx:
        acc |= vec[i]
    return acc


def _sweep(structure) -> tuple:
    """(point count, □ on per-point vectors) of a KripkeFrame or a
    FiniteSpace. On a frame □ is the AND over the successors; on a space
    x is in the interior iff some open around x lies inside, so □ is the
    OR, over the opens around x, of the AND over the open."""
    if isinstance(structure, KripkeFrame):
        succ = [list(iter_bits(r)) for r in structure.rel]

        def box(vec, full):
            return [_meet(vec, ws, full) for ws in succ]

        return structure.worlds, box
    opens = [list(iter_bits(o)) for o in structure.opens]
    around = [list(iter_bits(col)) for col in transpose(structure.opens, structure.points)]

    def box(vec, full):
        inside = [_meet(vec, o, full) for o in opens]
        return [_join(inside, os) for os in around]

    return structure.points, box


def topo_eval(space: FiniteSpace, valuation: Mapping[str, int], phi: Formula) -> int:
    """Set-valued semantics on a finite space: classical connectives as
    set operations, □ = interior, ◇ = closure (both at any nesting)."""
    kind = phi.kind
    if kind not in KRIPKE:
        raise UnsupportedConnective(kind, "topological")
    if kind == "atom":
        if phi.name not in valuation:
            raise UnboundAtom(phi.name)
        return valuation[phi.name]
    if kind == "bot":
        return 0
    if kind == "top":
        return space.full
    if kind == "not":
        return complement(space, topo_eval(space, valuation, phi.args[0]))
    if kind == "and":
        return topo_eval(space, valuation, phi.args[0]) & topo_eval(
            space, valuation, phi.args[1]
        )
    if kind == "or":
        return topo_eval(space, valuation, phi.args[0]) | topo_eval(
            space, valuation, phi.args[1]
        )
    if kind == "imp":
        return complement(space, topo_eval(space, valuation, phi.args[0])) | topo_eval(
            space, valuation, phi.args[1]
        )
    inner = topo_eval(space, valuation, phi.args[0])
    if kind == "box":
        return interior(space, inner)
    return closure(space, inner)


def model_from_space(space: FiniteSpace, valuation: Mapping[str, int]) -> KripkeModel:
    """Worlds = points, accessibility = specialization preorder, so the
    frame is always reflexive and transitive (at least S4)."""
    pre = specialization_preorder(space)
    return KripkeModel(KripkeFrame(space.points, pre.rel), dict(valuation))


S4_SCHEMAS: tuple[tuple[str, Formula], ...] = (
    ("K distribution", parse_formula("[](p -> q) -> ([]p -> []q)")),
    ("T reflection", parse_formula("[]p -> p")),
    ("4 transitivity", parse_formula("[]p -> [][]p")),
    ("dual reflection", parse_formula("p -> <>p")),
    ("dual transitivity", parse_formula("<><>p -> <>p")),
)
_S4_PROGRAMS = [compile_formula(phi, "kripke", ("p", "q"))[0] for _, phi in S4_SCHEMAS]


class SchemaReport(Record):
    __slots__ = ()
    name: str
    formula: Formula
    checked: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def s4_axiom_suite(structure) -> list[SchemaReport]:
    """Check the five schemas over every valuation of {p, q}, with the
    sliced core: on a space through its opens, on a frame at every
    world. Violations are (vp, vq) on a space and (vp, vq, w) on a
    frame, in valuation order. At most topology.MAX_SUITE_POINTS points."""
    if not isinstance(structure, (FiniteSpace, KripkeFrame)):
        raise TypeError("expected a FiniteSpace or a KripkeFrame")
    per_world = isinstance(structure, KripkeFrame)
    points, box = _sweep(structure)
    if points > topology.MAX_SUITE_POINTS:
        raise BoundExceeded("worlds" if per_world else "points", points,
                            topology.MAX_SUITE_POINTS)
    reports = []
    for (name, phi), prog in zip(S4_SCHEMAS, _S4_PROGRAMS):
        bad = []
        for v, missing in _failures(prog, 2, points, box):
            masks = _masks(v, 2, points)
            if per_world:
                bad.extend((*masks, w) for w in missing)
            else:
                bad.append(masks)
        reports.append(SchemaReport(name, phi, 1 << (2 * points), tuple(bad)))
    return reports


def enumerate_frames(worlds: int, reflexive: bool = False) -> Iterator[KripkeFrame]:
    """All frames on a labeled world set, by ascending relation bits
    (row w holds bits w·worlds up to (w+1)·worlds). With reflexive=True,
    only the reflexive ones in the same order: the diagonal bits are
    fixed and only the other worlds²−worlds bits are walked."""
    row = (1 << worlds) - 1
    if not reflexive:
        for bits in range(1 << (worlds * worlds)):
            yield KripkeFrame(
                worlds, tuple((bits >> (w * worlds)) & row for w in range(worlds))
            )
        return
    free = max(worlds - 1, 0)
    off = (1 << free) - 1
    for bits in range(1 << (worlds * free)):
        rel = []
        for w in range(worlds):
            r = (bits >> (w * free)) & off
            below = r & ((1 << w) - 1)
            rel.append(below | (1 << w) | ((r ^ below) << 1))
        yield KripkeFrame(worlds, tuple(rel))


class SearchResult(Record):
    __slots__ = ()
    structure: object  # FiniteSpace or KripkeFrame
    valuation: dict
    point: int


def countermodel_search(
    phi: Formula,
    max_points: int,
    mode: str = "space",
    semantics: str = "classical",
    frame_properties: tuple[str, ...] = (),
) -> Optional[SearchResult]:
    """First falsifying structure in canonical order: increasing point
    count, then structure enumeration order, then lexicographic
    valuation order; the reported point is the lowest falsifying one.

    mode 'space' with semantics 'classical' refutes with the sliced core
    on each space; 'intuitionistic' evaluates in the open-set algebra
    (valuations range over opens); 'dual' in the closed-set algebra
    (over closeds). mode 'frame' (classical only) sweeps every frame
    with the sliced core, keeping those with frame_properties ⊆
    {reflexive, transitive, symmetric}. One loop runs over the point
    counts: per count a route gives its class representatives (frame
    routes only) and its labelled walk, walked only when some
    representative fails; the sliced core refutes a frame or a space,
    _algebra_witness a lattice (see the module docstring). max_points is
    at least 1 and at most DEFAULT_MAX_WORLDS in frame mode or
    topology.MAX_SUITE_POINTS in space mode, and each point count is
    checked against MAX_VALUATION_BITS, as points × atoms, before it is
    swept. frame_properties need mode 'frame'. The dual route, and the
    intuitionistic route on a formula ¬ψ, sweep one point only (Glivenko,
    see the module docstring).
    """
    _choose("mode", mode, ("space", "frame"))
    allowed = ("classical",) if mode == "frame" else ("classical", "intuitionistic", "dual")
    _choose(f"{mode}-mode semantics", semantics, allowed)
    for prop in frame_properties:
        _choose("frame property", prop, FRAME_PROPERTIES)
    if frame_properties and mode != "frame":
        raise BiheytError(
            f"frame properties need frame semantics (mode 'frame'), not mode {mode!r}")
    what, bound = (("worlds", DEFAULT_MAX_WORLDS) if mode == "frame"
                   else ("points", topology.MAX_SUITE_POINTS))
    if max_points < 1:
        raise BiheytError(f"{what} range 1..{max_points} is empty")
    if max_points > bound:
        raise BoundExceeded(what, max_points, bound)

    def sliced(structure) -> Optional[SearchResult]:
        points, box = _sweep(structure)
        hit = next(_failures(prog, len(names), points, box), None)
        return None if hit is None else _witness(structure, names, points, hit)

    if mode == "frame":
        logic, refute = "kripke", sliced
        reflexive = "reflexive" in frame_properties
        # reflexive, transitive frames are preorders, so they come in classes
        by_class = reflexive and "transitive" in frame_properties

        def kept(frame: KripkeFrame) -> bool:
            cls = classify_frame(frame)
            return all(getattr(cls, prop) for prop in frame_properties)

        def count(worlds: int) -> tuple:
            reps = filter(kept, (KripkeFrame(worlds, c.space.min_open)
                                 for c in space_classes(worlds))) if by_class else None
            return reps, filter(kept, enumerate_frames(worlds, reflexive=reflexive))
    elif semantics == "classical":
        logic, refute = "topological", sliced
    else:
        logic = semantics
        lattice = open_lattice if semantics == "intuitionistic" else closed_lattice

        def refute(space: FiniteSpace) -> Optional[SearchResult]:
            return _algebra_witness(prog, names, lattice(space), space)
    if mode == "space":
        def count(points: int) -> tuple:
            # each representative is the first labelled space of its class
            return None, (c.space for c in space_classes(points)
                          if semantics == "classical" or len(c.skeleton) == points)
    # decided on one point, by Glivenko's theorem (see the module docstring)
    one_point = semantics == "dual" or semantics == "intuitionistic" and phi.kind == "not"
    prog, names = compile_formula(phi, logic)
    for points in range(1, max_points + 1):
        _check_valuation_bits(points, len(names))
        if one_point and points > 1:
            continue
        reps, labelled = count(points)
        if reps is not None and all(refute(rep) is None for rep in reps):
            continue
        for structure in labelled:
            found = refute(structure)
            if found is not None:
                return found
    return None


def _check_valuation_bits(points: int, natoms: int) -> None:
    """Refuse a sweep of more than 2^MAX_VALUATION_BITS valuations of
    natoms atoms over the points. This bounds the algebra routes too: a
    lattice of subsets of the points has at most 2^points elements."""
    bits = points * natoms
    if bits > MAX_VALUATION_BITS:
        raise BoundExceeded("valuation space bits", bits, MAX_VALUATION_BITS)


def _algebra_witness(prog, names: list[str], lat, space: FiniteSpace) -> Optional[SearchResult]:
    """The first assignment of elements of lat, in product order, under
    which the compiled formula is not the top, with the lowest point
    outside its value; None if the formula holds in lat."""
    value = algebra_evaluator(prog, lat)
    for choice in product(range(lat.n), repeat=len(names)):
        found = lat.subsets[value(choice)]
        if found != space.full:
            missing = next(x for x in range(space.points) if not (found >> x) & 1)
            val = {name: lat.subsets[el] for name, el in zip(names, choice)}
            return SearchResult(space, val, missing)
    return None


def _choose(what: str, value: str, choices: tuple[str, ...]) -> None:
    if value not in choices:
        raise UnknownOption(what, value, choices)


def _witness(structure, names: list[str], points: int, hit) -> SearchResult:
    v, missing = hit
    masks = _masks(v, len(names), points)
    return SearchResult(structure, dict(zip(names, masks)), missing[0])


def worked_examples() -> tuple[KripkeModel, KripkeModel]:
    """Two small three-world models used by the golden tests.

    The first is reflexive and transitive with w0 seeing w1 and w2,
    V(p) = {w1}; it satisfies ◇p ∧ ◇¬p at w0. The second has
    R = {(w0,w1), (w0,w2), (w1,w1), (w2,w2)} and V(p) = {w1},
    V(q) = {w2}, reproduced edge for edge."""
    frame1 = KripkeFrame.from_edges(
        3, [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2)]
    )
    model1 = KripkeModel(frame1, {"p": 0b010})
    frame2 = KripkeFrame.from_edges(3, [(0, 1), (0, 2), (1, 1), (2, 2)])
    model2 = KripkeModel(frame2, {"p": 0b010, "q": 0b100})
    return model1, model2


# --- Alexandrov agreement -------------------------------------------------


class AgreementResult(Record):
    __slots__ = ()
    distinct_values: int
    formulas_checked: int
    disagreement: Optional[Formula]


def agreement_closure(space: FiniteSpace, valuation: Mapping[str, int]) -> AgreementResult:
    """Certify kripke_eval ∘ model_from_space ≡ membership in topo_eval
    for every formula over the valuation's atoms.

    Breadth-first enumeration by connective count with semantic value
    deduplication: each new formula is evaluated by both routes and the
    pair (kripke world-set, topo subset) must agree; only formulas
    realizing a new value spawn further combinations. The value space
    is finite, so the closure saturates — afterwards any formula of
    any depth evaluates inside the checked set."""
    model = model_from_space(space, valuation)
    seen: dict[int, Formula] = {}
    fresh: list[Formula] = []  # realised a new value, not yet combined

    def candidates() -> Iterator[Formula]:
        yield from (Formula("bot"), Formula("top"), *map(atom, valuation))
        while fresh:
            sources, known = fresh[:], list(seen.values())
            fresh.clear()
            for phi in sources:
                for wrap in (neg, box, dia):
                    yield wrap(phi)
                for psi in known:
                    for combine in ("and", "or", "imp"):
                        yield Formula(combine, args=(phi, psi))
                        yield Formula(combine, args=(psi, phi))

    for checked, phi in enumerate(candidates(), 1):
        t = topo_eval(space, valuation, phi)
        if t != sum(1 << w for w in range(space.points) if kripke_eval(model, w, phi)):
            return AgreementResult(len(seen), checked, phi)
        if t not in seen:
            seen[t] = phi
            fresh.append(phi)
    return AgreementResult(len(seen), checked, None)
