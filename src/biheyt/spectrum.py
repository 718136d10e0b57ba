"""Stone spectra of finite distributive lattices.

The points of the spectrum are the prime filters; each element h is
sent to β(h) = the set of prime filters containing h, and those images
generate the spectral topology. In the finite distributive case β is
an isomorphism onto the opens, which verify_stone_embedding checks
equation by equation. The open-set implication U → V is computed in
the space itself, as the interior of (X∖U) ∪ V, so it does not share
code with the lattice's implies_table. Lattice homs induce continuous
point maps in the opposite direction (preimage of a prime filter),
giving the instance level functoriality exercised by the test suites.
induced_map re-verifies each preimage as a prime filter, so `verify
functoriality` calls it once per hom and checks compositions on the
point maps.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .bitsets import iter_bits
from .errors import BoundExceeded, WrongKind
from .lattice import MAX_ENUMERATION_SIZE, FiniteLattice
from .quotient import FilterOrIdeal, LatticeHom, filters, _is_filter_mask
# open_lattice is unused here, but bench/spans.py wraps spectrum.open_lattice by name
from .topology import FiniteSpace, generate_from_basis, interior, open_lattice  # noqa: F401

DEFAULT_MAX_SPECTRUM = MAX_ENUMERATION_SIZE


def is_prime_filter(lat: FiniteLattice, filt: FilterOrIdeal) -> bool:
    """a∨b ∈ F forces a ∈ F or b ∈ F."""
    if filt.kind != "filter":
        raise WrongKind("primality is asked of filters, got an ideal")
    members = filt.members
    for a in range(lat.n):
        for b in range(lat.n):
            if (members >> lat.join[a][b]) & 1 and not (
                (members >> a) & 1 or (members >> b) & 1
            ):
                return False
    return True


def prime_filters(lat: FiniteLattice) -> list[FilterOrIdeal]:
    """The proper filters that pass is_prime_filter. Each candidate is
    tested on the lattice's join table rather than read off the
    join-irreducibles, so β stays an independent check (in M3 the
    atoms are join-irreducible, yet no filter is prime)."""
    return [f for f in filters(lat) if is_prime_filter(lat, f)]


class SpectralSpace:
    """Spectrum of a lattice: prime filter points, the generated space,
    and the element → point-set map beta."""

    def __init__(self, base, points, space, beta):
        self.base = base
        self.points = points  # tuple of prime-filter member masks
        self.space = space
        self.beta = beta  # beta[h] = mask of point indices whose filter contains h

    def __repr__(self):
        return f"SpectralSpace(points={len(self.points)}, base_n={self.base.n})"


def spectrum(lat: FiniteLattice, bound: int = DEFAULT_MAX_SPECTRUM) -> SpectralSpace:
    lat.require_distributive()
    if lat.n > bound:
        raise BoundExceeded("lattice size", lat.n, bound)
    pts = tuple(f.members for f in prime_filters(lat))
    beta = []
    for h in range(lat.n):
        mask = 0
        for k, p in enumerate(pts):
            if (p >> h) & 1:
                mask |= 1 << k
        beta.append(mask)
    space = generate_from_basis(len(pts), beta)
    return SpectralSpace(lat, pts, space, tuple(beta))


class StoneReport:
    def __init__(self, violations: list[str]):
        self.violations = violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def __repr__(self):
        return f"StoneReport(ok={self.ok}, violations={self.violations})"


def verify_stone_embedding(lat: FiniteLattice, bound: int = DEFAULT_MAX_SPECTRUM) -> StoneReport:
    """Check β is injective, turns ∧/∨ into ∩/∪, hits every open
    (finite case), and carries → to the spectral open-set implication."""
    spec = spectrum(lat, bound)
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
        # ~U | V stands for (X∖U) ∪ V: interior only reads it inside X
        for a in range(lat.n):
            for b in range(lat.n):
                spectral = interior(spec.space, ~beta[a] | beta[b])
                if beta[lat.implies_table[a][b]] != spectral:
                    violations.append(
                        f"beta(a→b) != spectral implication at ({a}, {b})"
                    )
    return StoneReport(violations)


class InducedMap:
    """Point map Spec(target) → Spec(source) induced by a hom, with the
    continuity verdict and the β-preimage identity check."""

    def __init__(self, hom, source_spec, target_spec, point_map, continuous, identity_ok):
        self.hom = hom
        self.source_spec = source_spec
        self.target_spec = target_spec
        self.point_map = point_map  # index into source_spec.points per target point
        self.continuous = continuous
        self.identity_ok = identity_ok

    def __repr__(self):
        return (
            f"InducedMap(point_map={self.point_map}, continuous={self.continuous}, "
            f"identity_ok={self.identity_ok})"
        )


def induced_map(
    phi: LatticeHom,
    source_spec: Optional[SpectralSpace] = None,
    target_spec: Optional[SpectralSpace] = None,
) -> InducedMap:
    """Send a prime filter P of the target to φ⁻¹(P), a prime filter of
    the source; verify the map is continuous and that the preimage of
    β(h) is β(φ(h)) for every h."""
    H, K = phi.source, phi.target
    sh = source_spec if source_spec is not None else spectrum(H)
    sk = target_spec if target_spec is not None else spectrum(K)
    point_map = []
    for p in sk.points:
        pre = 0
        for a in range(H.n):
            if (p >> phi.map[a]) & 1:
                pre |= 1 << a
        if not _is_filter_mask(H, pre) or not is_prime_filter(
            H, FilterOrIdeal(H, pre, "filter")
        ):
            raise WrongKind("preimage of a prime filter is not a prime filter")
        point_map.append(sh.points.index(pre))
    point_map = tuple(point_map)

    def preimage(subset: int) -> int:
        mask = 0
        for k in range(len(sk.points)):
            if (subset >> point_map[k]) & 1:
                mask |= 1 << k
        return mask

    target_opens = set(sk.space.opens)
    continuous = all(preimage(o) in target_opens for o in sh.space.opens)
    identity_ok = all(
        preimage(sh.beta[h]) == sk.beta[phi.map[h]] for h in range(H.n)
    )
    return InducedMap(phi, sh, sk, point_map, continuous, identity_ok)


def open_map_criterion(
    f: Sequence[int], source: FiniteSpace, target: FiniteSpace
) -> dict:
    """Classify a point map: continuity (preimages of opens are open),
    openness (images of opens are open), and whether U ↦ f⁻¹(U)
    preserves implication between the open-set algebras. Also reports
    whether the last agrees with (continuous and open)."""
    f = tuple(f)
    if len(f) != source.points or any(not 0 <= y < target.points for y in f):
        raise ValueError("map is not total on the points")

    def preimage(subset: int) -> int:
        mask = 0
        for x in range(source.points):
            if (subset >> f[x]) & 1:
                mask |= 1 << x
        return mask

    def image(subset: int) -> int:
        mask = 0
        for x in iter_bits(subset):
            mask |= 1 << f[x]
        return mask

    src_opens = set(source.opens)
    tgt_opens = set(target.opens)
    continuous = all(preimage(u) in src_opens for u in target.opens)
    open_map = all(image(u) in tgt_opens for u in source.opens)
    induces = False
    if continuous:
        induces = all(  # U → V is the interior of ~U | V on each side
            preimage(interior(target, ~u | v))
            == interior(source, ~preimage(u) | preimage(v))
            for u in target.opens
            for v in target.opens
        )
    return {
        "continuous": continuous,
        "open": open_map,
        "induces_heyting_hom": induces,
        "agrees_with_criterion": induces == (continuous and open_map),
    }
