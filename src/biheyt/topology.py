"""Finite topological spaces and the preorder correspondence.

A finite space is a point count plus the family of open subsets (as
bitmasks, canonically sorted by size then bit pattern). Finite spaces
are all Alexandrov: opens are closed under arbitrary intersections, so
every point has a smallest open neighbourhood and the space is
interchangeable with its specialization preorder. The opens are the
unions of those neighbourhoods (bitsets.unions), so no construction
here scans all 2^n subsets. Topology enumeration goes through
preorders, which is exact and far smaller than scanning subset families.

The open sets form a Heyting algebra under inclusion and the closed
sets a co-Heyting algebra under inclusion (∅ bottom, X top, ∧=∩, ∨=∪).
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator

from .bitsets import iter_bits, subset_key, unions
from .errors import (
    BoundExceeded,
    MissingEmptyOrFull,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
)
from .lattice import FiniteLattice, lattice_of_subsets

DEFAULT_MAX_POINTS = 4
# Most points the exhaustive suites sweep: 6,942 spaces on 5, 209,527 on 6.
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
        shown = ",".join(
            "".join("1" if (o >> i) & 1 else "0" for i in range(self.points)) or "-"
            for o in self.opens
        )
        return f"FiniteSpace(points={self.points}, opens=[{shown}])"

    @cached_property
    def closeds(self) -> tuple[int, ...]:
        return tuple(sorted((self.full & ~o for o in self.opens), key=subset_key))

    @cached_property
    def min_open(self) -> tuple[int, ...]:
        """Smallest open neighbourhood of each point."""
        return _smallest_around(self.points, self.opens)


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


class Preorder:
    def __init__(self, points: int, rel: tuple[int, ...]):
        self.points = points
        self.rel = rel  # rel[x] = mask of y with x R y

    def __eq__(self, other):
        if not isinstance(other, Preorder):
            return NotImplemented
        return self.points == other.points and self.rel == other.rel

    def __hash__(self):
        return hash((self.points, self.rel))

    def __repr__(self):
        return f"Preorder(points={self.points}, rel={self.rel})"

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
    unions of the principal up-sets pre.rel[x], which must be closed."""
    return FiniteSpace(pre.points, tuple(sorted(unions(pre.rel), key=subset_key)))


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


def enumerate_topologies(
    points: int, bound: int = DEFAULT_MAX_POINTS
) -> Iterator[FiniteSpace]:
    """Every topology on the labeled point set 0..points-1, exactly once,
    via the preorder correspondence. Deterministic order."""
    if points > bound:
        raise BoundExceeded("points", points, bound)
    for pre in enumerate_preorders(points):
        yield from_preorder(pre)
