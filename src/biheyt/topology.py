"""Finite topological spaces and the preorder correspondence.

A finite space is a point count plus the family of open subsets (as
bitmasks, canonically sorted by size then bit pattern). Finite spaces
are all Alexandrov: opens are closed under arbitrary intersections, so
every point has a smallest open neighbourhood and the space is
interchangeable with its specialization preorder. The opens are the
unions of those neighbourhoods (bitsets.unions), so no construction
here scans all 2^n subsets. Topology enumeration goes through
preorders, which is exact and far smaller than scanning subset families.
A space built from a preorder keeps its rows as min_open.

space_classes lists the spaces up to homeomorphism instead, one
representative per class with the number of labelled spaces in the
class (its orbit). A preorder is a poset of clusters (the points with
the same smallest open neighbourhood), each cluster with a size. The
classes on m points grow from those on m-1: one cluster gets a point
more, or a new one-point cluster goes below an up-set of the clusters,
as enumerate_distributive_lattices grows its posets. Children are kept
once each under the lex-min canonical form of the cluster poset with
its sizes (lattice._lex_min_form): the least preorder in row order
with these clusters as blocks of consecutive points, which also counts
the automorphisms. Twin clusters (the same strict up-set, strict
down-set and size) can swap places, so the form branches once per
group of twins and weights the count by the group's size. So each
representative is the first labelled space of its class, and the
labelled enumeration stays only as the reference.

The open sets form a Heyting algebra under inclusion and the closed
sets a co-Heyting algebra under inclusion (∅ bottom, X top, ∧=∩, ∨=∪).
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import factorial, prod
from typing import Iterable, Iterator

from .bitsets import iter_bits, mask_of, pattern, subset_key, transpose, unions
from .errors import (
    BoundExceeded,
    MissingEmptyOrFull,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
)
from .lattice import (
    FiniteLattice,
    _downsets,
    _lex_min_form,
    lattice_of_subsets,
)
from .records import Record

# Most points the exhaustive suites, searches and enumerations sweep:
# 6,942 spaces on 5, 209,527 on 6.
MAX_SUITE_POINTS = 5


class FiniteSpace:
    def __init__(self, points: int, opens: tuple[int, ...]):
        self.points = points
        self.opens = opens
        self.full = (1 << points) - 1

    def __eq__(self, other):
        if not isinstance(other, FiniteSpace):
            return NotImplemented
        return self.points == other.points and self.opens == other.opens

    def __hash__(self):
        return hash((self.points, self.opens))

    def __repr__(self):
        shown = ",".join(pattern(o, self.points) or "-" for o in self.opens)
        return f"FiniteSpace(points={self.points}, opens=[{shown}])"

    @cached_property
    def closeds(self) -> tuple[int, ...]:
        return tuple(sorted((self.full & ~o for o in self.opens), key=subset_key))

    @cached_property
    def min_open(self) -> tuple[int, ...]:
        """Smallest open neighbourhood of each point, worked out from the
        opens on first read unless from_preorder set it."""
        return _smallest_around(self.points, self.opens)

    @cached_property
    def min_closed(self) -> tuple[int, ...]:
        """Smallest closed set around each point, its closure: the points
        whose smallest open neighbourhood holds it."""
        return tuple(transpose(self.min_open, self.points))

    @cached_property
    def earlier_comparable(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """For each point x, the earlier points in min_open(x), and the
        earlier points whose min_open holds x."""
        rows = self.min_open
        return tuple((tuple(p for p in range(x) if (row >> p) & 1),
                      tuple(p for p in range(x) if (rows[p] >> x) & 1))
                     for x, row in enumerate(rows))


def _smallest_around(points: int, family: Iterable[int]) -> tuple[int, ...]:
    """For each point, the intersection of the full set and the members
    of the family around it. Raises ValueError for a member with points
    outside 0..points-1."""
    out = [(1 << points) - 1] * points
    for s in family:
        if s >> points:
            raise ValueError(f"set {s:#b} uses points outside 0..{points - 1}")
        for x in iter_bits(s):
            out[x] &= s
    return tuple(out)


class Preorder(Record):
    """A preorder on 0..points-1, one row per point."""

    __slots__ = ()
    points: int
    rel: tuple[int, ...]  # rel[x] = mask of y with x R y

    def symmetric(self) -> bool:
        return all(
            ((self.rel[y] >> x) & 1)
            for x in range(self.points)
            for y in iter_bits(self.rel[x])
        )


def validate_topology(points: int, opens: Iterable[int]) -> FiniteSpace:
    """Check the family is a topology on 0..points-1 and canonicalize."""
    full = (1 << points) - 1
    fam = sorted(set(opens), key=subset_key)
    for s in fam:
        if s & ~full:
            raise ValueError(f"open {s:#b} uses points outside 0..{points - 1}")
    if 0 not in fam or full not in fam:
        raise MissingEmptyOrFull("topology must contain the empty set and the full set")
    have = set(fam)
    for i, s in enumerate(fam):
        for t in fam[i + 1 :]:
            if s & t not in have:
                raise NotClosedUnderIntersection(s, t)
            if s | t not in have:
                raise NotClosedUnderUnion(s, t)
    return FiniteSpace(points, tuple(fam))


def interior(space: FiniteSpace, subset: int) -> int:
    """Union of the opens contained in the subset."""
    acc = 0
    for o in space.opens:
        if o & ~subset == 0:
            acc |= o
    return acc


def closure(space: FiniteSpace, subset: int) -> int:
    """Intersection of the closed sets containing the subset."""
    acc = space.full
    for c in space.closeds:
        if subset & ~c == 0:
            acc &= c
    return acc


def complement(space: FiniteSpace, subset: int) -> int:
    return space.full & ~subset


def open_lattice(space: FiniteSpace) -> FiniteLattice:
    """The opens under inclusion, with →(A,B) = ⋁{open C | A∩C ⊆ B}
    (= interior of Aᶜ∪B). Element i stands for subset subsets[i]."""
    return lattice_of_subsets(space.opens)


def closed_lattice(space: FiniteSpace) -> FiniteLattice:
    """The closeds under inclusion (∅ bottom, X top), with
    A←B = ⋀{closed C | A ⊆ B∪C} (= closure of A∩Bᶜ)."""
    return lattice_of_subsets(space.closeds)


def generate_from_basis(points: int, basis: Iterable[int]) -> FiniteSpace:
    """Coarsest topology containing the family, treated as a subbasis.
    The finite intersections of its members around a point give the
    point's smallest open neighbourhood, and the opens are the unions of
    those. Raises ValueError for a member outside 0..points-1."""
    return from_preorder(Preorder(points, _smallest_around(points, basis)))


def specialization_preorder(space: FiniteSpace) -> Preorder:
    """x R y iff every open containing x contains y, i.e. y lies in the
    smallest open neighbourhood of x."""
    return Preorder(space.points, space.min_open)


def from_preorder(pre: Preorder) -> FiniteSpace:
    """Opens = the up-closed sets of the preorder (Alexandrov): the
    unions of the principal up-sets pre.rel[x], which must be closed
    and are the points' smallest open neighbourhoods (min_open)."""
    space = FiniteSpace(pre.points, tuple(sorted(unions(pre.rel), key=subset_key)))
    space.min_open = tuple(pre.rel)
    return space


def count_continuous_maps(source: FiniteSpace, target: FiniteSpace) -> int:
    """How many maps source → target are continuous: y ∈ min_open(x)
    must force f(y) ∈ min_open(f(x)). The points get their images one at
    a time, each tested only against the earlier points it is comparable
    with (source.earlier_comparable). A space with no points has one map
    into any space, the empty one."""
    onto, under = target.min_open, target.min_closed
    maps = [()]
    for inside, around in source.earlier_comparable:
        grown = []
        for f in maps:
            # f(x) ∈ under[f(p)] if p ∈ min_open(x),
            # and f(x) ∈ onto[f(p)] if x ∈ min_open(p)
            allowed = target.full
            for p in inside:
                allowed &= under[f[p]]
            for p in around:
                allowed &= onto[f[p]]
            while allowed:
                grown.append(f + ((allowed & -allowed).bit_length() - 1,))
                allowed &= allowed - 1
        maps = grown
    return len(maps)


def enumerate_preorders(points: int) -> Iterator[Preorder]:
    """Every preorder on 0..points-1, in lexicographic row order. Rows
    are fixed one point at a time; row i holds i and is transitive with
    each row j fixed before it (j in row i => row j ⊆ row i, and back)."""

    def extend(rows: tuple[int, ...]) -> Iterator[Preorder]:
        i = len(rows)
        if i == points:
            yield Preorder(points, rows)
            return
        for ri in range(1 << points):
            if not (ri >> i) & 1:
                continue
            for j, rj in enumerate(rows):
                if (ri >> j) & 1 and rj & ~ri or (rj >> i) & 1 and ri & ~rj:
                    break
            else:
                yield from extend(rows + (ri,))

    return extend(())


def enumerate_topologies(points: int) -> Iterator[FiniteSpace]:
    """Every topology on the labeled point set 0..points-1, exactly once,
    via the preorder correspondence, in a deterministic order. At most
    MAX_SUITE_POINTS points: map from_preorder over enumerate_preorders
    for more."""
    if points > MAX_SUITE_POINTS:
        raise BoundExceeded("points", points, MAX_SUITE_POINTS)
    for pre in enumerate_preorders(points):
        yield from_preorder(pre)


class SpaceClass(Record):
    """One homeomorphism class of spaces on a given number of points."""

    __slots__ = ()
    space: FiniteSpace  # a representative
    orbit: int  # labelled spaces in the class: points! / automorphisms
    skeleton: tuple[int, ...]  # canonical rows of the cluster poset (the T0 quotient)
    sizes: tuple[int, ...]  # cluster sizes, in the representative's point order


def space_classes(points: int) -> tuple[SpaceClass, ...]:
    """One space per homeomorphism class on exactly `points` points
    (OEIS A001930: 1, 3, 9, 33, 139 on 1..5), ordered by canonical form.
    The orbits sum to the labelled count (A000798), and the classes with
    skeletons of `points` clusters are the T0 ones (A000112). Each
    representative is the first space of its class that
    enumerate_topologies yields, and the classes come in the order that
    enumeration first meets them. At most MAX_SUITE_POINTS points; a
    negative count raises ValueError, and 0 gives the empty space."""
    if points < 0:
        raise ValueError(f"point count {points} is negative")
    if points > MAX_SUITE_POINTS:
        raise BoundExceeded("points", points, MAX_SUITE_POINTS)
    return _space_classes(points)


@lru_cache(maxsize=None)
def _space_classes(points: int) -> tuple[SpaceClass, ...]:
    if points == 0:
        return (SpaceClass(FiniteSpace(0, (0,)), 1, (), ()),)
    grown: dict[tuple[int, ...], int] = {}  # canonical form -> automorphisms
    # growing a cluster keeps the T0 quotient, and reaches every class that is not T0
    skeletons: dict[tuple[int, ...], tuple[int, ...]] = {}
    for parent in _space_classes(points - 1):
        rows, sizes = _clusters(parent.space.min_open)
        k = len(rows)
        for c in range(k):
            form, automorphisms = _lex_min_form(rows, sizes[:c] + (sizes[c] + 1,) + sizes[c + 1 :])
            grown[form], skeletons[form] = automorphisms, parent.skeleton
        for down in _downsets(rows):
            form, automorphisms = _lex_min_form(
                rows + ((1 << k) | (((1 << k) - 1) & ~down),), sizes + (1,))
            grown[form] = automorphisms
    out = []
    for form in sorted(grown):
        sizes = _clusters(form)[1]
        orbit = factorial(points) // (grown[form] * prod(map(factorial, sizes)))
        skeleton = skeletons.get(form, form)
        out.append(SpaceClass(from_preorder(Preorder(points, form)), orbit, skeleton, sizes))
    return tuple(out)


def _clusters(rows: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The cluster poset and the cluster sizes of preorder rows whose
    clusters are blocks of consecutive points, in point order."""
    starts = [x for x, row in enumerate(rows) if not x or row != rows[x - 1]]
    return (tuple(mask_of(d for d, s in enumerate(starts) if (rows[t] >> s) & 1) for t in starts),
            tuple(b - a for a, b in zip(starts, starts[1:] + [len(rows)])))
