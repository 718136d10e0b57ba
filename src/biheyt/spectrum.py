"""Stone spectra of finite distributive lattices.

The points of the spectrum are the prime filters; each element h is
sent to β(h) = the set of prime filters containing h, and those images
generate the spectral topology. In the finite distributive case β is
an isomorphism onto the opens, which verify_stone_embedding checks
equation by equation. The open-set implication U → V is computed in
the space itself, as the interior of (X∖U) ∪ V read off the smallest
open neighbourhoods (open_implication), so it does not share code with
the lattice's implies_table. Lattice homs induce continuous point maps
in the opposite direction (preimage of a prime filter), and each
continuous map of spectra comes from exactly one hom (Birkhoff
duality), so `verify functoriality` counts the homs A → B as the
continuous maps Spec B → Spec A. induced_map reads its sets as 0/1
bytes, from tables built once per spectrum and cached by the lattice's
size and the points: each φ⁻¹(P) is a column of the rows β(φ(a)),
looked up among the points of the source spectrum instead of checked
again as a prime filter (a preimage that is no point of the source
spectrum raises WrongKind), and the preimage of each β(h) along the
point map is one bytes.translate. spectrum() and verify_stone_embedding
build no such table. open_map_criterion takes its preimages with
bitsets.pullback.
"""

from __future__ import annotations

from typing import Sequence

from .bitsets import iter_bits, pullback, translate_table, transpose
from .errors import BoundExceeded, WrongKind
from . import lattice
from .lattice import FiniteLattice
from .quotient import FilterOrIdeal, LatticeHom, filters
from .records import Record
# open_lattice is unused here, but bench/spans.py wraps spectrum.open_lattice by name
from .topology import FiniteSpace, generate_from_basis, interior, open_lattice  # noqa: F401


def is_prime_filter(lat: FiniteLattice, filt: FilterOrIdeal) -> bool:
    """a∨b ∈ F forces a ∈ F or b ∈ F. The complement of an up-set F is a
    down-set, closed under ∨ exactly when it holds its own join, so F is
    prime iff F = L or ⋁(L∖F) ∉ F: one fold over the join table."""
    if filt.kind != "filter":
        raise WrongKind("primality is asked of filters, got an ideal")
    rest = ((1 << lat.n) - 1) & ~filt.members
    return not rest or not (filt.members >> lat._join_of(rest)) & 1


def prime_filters(lat: FiniteLattice) -> list[FilterOrIdeal]:
    """The proper filters that pass is_prime_filter. Each candidate is
    tested on the lattice's join table rather than read off the
    join-irreducibles, so β stays an independent check (in M3 the
    atoms are join-irreducible, yet no filter is prime)."""
    return [f for f in filters(lat) if is_prime_filter(lat, f)]


class SpectralSpace(Record):
    """Spectrum of a lattice: prime filter points, the generated space,
    and the element → point-set map beta."""

    __slots__ = ()
    base: FiniteLattice
    points: tuple[int, ...]  # prime-filter member masks
    space: FiniteSpace
    beta: tuple[int, ...]  # beta[h] = mask of point indices whose filter contains h


def spectrum(lat: FiniteLattice) -> SpectralSpace:
    """The spectrum of a distributive lattice of at most
    lattice.MAX_ENUMERATION_SIZE elements."""
    lat.require_distributive()
    if lat.n > lattice.MAX_ENUMERATION_SIZE:
        raise BoundExceeded("lattice size", lat.n, lattice.MAX_ENUMERATION_SIZE)
    pts = tuple(f.members for f in prime_filters(lat))
    beta = transpose(pts, lat.n)
    space = generate_from_basis(len(pts), beta)
    return SpectralSpace(lat, pts, space, tuple(beta))


def open_implication(space: FiniteSpace, u: int, v: int) -> int:
    """U → V: the points whose smallest open neighbourhood misses U∖V."""
    return sum(1 << x for x, m in enumerate(space.min_open) if not m & u & ~v)


class StoneReport(Record):
    __slots__ = ()
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_stone_embedding(lat: FiniteLattice) -> StoneReport:
    """Check β is injective, turns ∧/∨ into ∩/∪, hits every open
    (finite case), and carries → to the spectral open-set implication."""
    spec = spectrum(lat)
    beta = spec.beta
    violations = []
    if len(set(beta)) != lat.n:
        violations.append("beta is not injective")
    if beta[lat.bottom] != 0:
        violations.append("beta(bottom) is not empty")
    if beta[lat.top] != spec.space.full:
        violations.append("beta(top) is not the whole spectrum")
    for a in range(lat.n):
        for b in range(lat.n):
            if beta[lat.meet[a][b]] != beta[a] & beta[b]:
                violations.append(f"beta(meet) != intersection at ({a}, {b})")
            if beta[lat.join[a][b]] != beta[a] | beta[b]:
                violations.append(f"beta(join) != union at ({a}, {b})")
    if set(beta) != set(spec.space.opens):
        violations.append("beta is not onto the opens of the spectrum")
    else:
        pairs = {u & ~v: (u, v) for u in beta for v in beta}  # U → V depends on U∖V only
        spectral = {gap: open_implication(spec.space, u, v) for gap, (u, v) in pairs.items()}
        for a in range(lat.n):
            for b in range(lat.n):
                if beta[lat.implies_table[a][b]] != spectral[beta[a] & ~beta[b]]:
                    violations.append(f"beta(a→b) != spectral implication at ({a}, {b})")
    return StoneReport(violations)


class InducedMap(Record):
    """Point map Spec(target) → Spec(source) induced by a hom, with the
    continuity verdict and the β-preimage identity check. Its repr
    leaves out the hom and the two spectra."""

    __slots__ = ()
    hom: LatticeHom
    source_spec: SpectralSpace
    target_spec: SpectralSpace
    point_map: tuple[int, ...]  # index into source_spec.points per target point
    continuous: bool
    identity_ok: bool

    def __repr__(self):
        return (
            f"InducedMap(point_map={self.point_map}, continuous={self.continuous}, "
            f"identity_ok={self.identity_ok})"
        )


# the tables induced_map reads of each spectrum, keyed by its lattice's
# size and its points (see _spectrum_tables)
_TABLES: dict[tuple[int, tuple[int, ...]], tuple] = {}


def _spectrum_tables(spec: SpectralSpace) -> tuple:
    """What induced_map reads of a spectrum, built on the first call
    that meets it. A set of points is written as 0/1 bytes over the
    points, a filter as 0/1 bytes over the elements. The tables: the
    index of each point by its filter; for each element h, the translate
    table sending each point to 1 inside β(h) and to 0 outside it; each
    β(h) as bytes; and the set of the opens as bytes. The points and the
    lattice's size fix them all, as spectrum() builds β from the points
    and the opens from β: the opens are exactly the β(h), which are
    closed under ∩ and ∪."""
    key = (spec.base.n, spec.points)
    tables = _TABLES.get(key)
    if tables is None:
        n, points = key
        beta = [bytes((p >> h) & 1 for p in points) for h in range(n)]
        tables = _TABLES[key] = (
            {bytes((p >> a) & 1 for a in range(n)): x for x, p in enumerate(points)},
            list(map(translate_table, beta)), beta, set(beta))
    return tables


def induced_map(
    phi: LatticeHom, source_spec: SpectralSpace, target_spec: SpectralSpace
) -> InducedMap:
    """Send a prime filter P of φ's target to φ⁻¹(P), looked up among
    the points of source_spec, the spectrum of φ's source; target_spec
    is the spectrum of φ's target. Verify the map is continuous and that
    the preimage of β(h) is β(φ(h)) for every h.

    Every set is read as bytes (_spectrum_tables). The rows β(φ(a)), one
    per element a of the source, are joined, and the column of a point P
    is φ⁻¹(P): a holds it when P holds φ(a). The preimage of each β(h)
    along the point map is the point map, as bytes, translated by β(h)'s
    table: one translate per element of the source. Those β(h) are the
    opens of the source spectrum, so the map is continuous when each
    preimage is an open of the target spectrum. On spectra that
    spectrum() built both verdicts follow from the point lookup, and
    they stay: they test _spectrum_tables' bytes against the spectrum,
    and they are what `verify functoriality` counts as beta
    identities."""
    index, members, _, _ = _spectrum_tables(source_spec)
    _, _, beta, opens = _spectrum_tables(target_spec)
    k = len(target_spec.points)
    betas = [beta[v] for v in phi.map]
    rows = b"".join(betas)
    point_map = tuple([index.get(rows[x::k]) for x in range(k)])
    if None in point_map:
        raise WrongKind("preimage of a prime filter is not a point of the source spectrum")
    pulled = bytes(point_map)
    preimages = [pulled.translate(table) for table in members]
    continuous = opens.issuperset(preimages)
    identity_ok = preimages == betas
    return InducedMap(phi, source_spec, target_spec, point_map, continuous, identity_ok)


def open_map_criterion(
    f: Sequence[int], source: FiniteSpace, target: FiniteSpace
) -> dict:
    """Classify a point map: continuity (preimages of opens are open),
    openness (images of opens are open), and whether U ↦ f⁻¹(U)
    preserves implication between the open-set algebras. Also reports
    whether the last agrees with (continuous and open). They agree
    whenever both spaces are T0; without T0 they need not (the one-point
    space into the indiscrete two-point space is continuous, not open,
    and still induces a Heyting hom)."""
    f = tuple(f)
    if len(f) != source.points or any(not 0 <= y < target.points for y in f):
        raise ValueError("map is not total on the points")

    def image(subset: int) -> int:
        mask = 0
        for x in iter_bits(subset):
            mask |= 1 << f[x]
        return mask

    src_opens = set(source.opens)
    tgt_opens = set(target.opens)
    continuous = all(pullback(f, u) in src_opens for u in target.opens)
    open_map = all(image(u) in tgt_opens for u in source.opens)
    induces = False
    if continuous:
        induces = all(  # U → V is the interior of ~U | V on each side
            pullback(f, interior(target, ~u | v))
            == interior(source, ~pullback(f, u) | pullback(f, v))
            for u in target.opens
            for v in target.opens
        )
    return {
        "continuous": continuous,
        "open": open_map,
        "induces_heyting_hom": induces,
        "agrees_with_criterion": induces == (continuous and open_map),
    }
