"""The routes that `verify functoriality` replaced or counts against,
kept as references for test_cli.py, test_spectrum.py and
test_topology.py.

reference_induced_map is induced_map as it was before it read its sets
as bytes: each φ⁻¹(P) by bitsets.pullback, and each open's preimage
along the point map by a pullback loop, tested against the target's
opens and, through a dict of the opens, against β.

reference_count_continuous_maps counts the continuous maps between two
finite spaces by trying every map, itertools.product over the points,
and pulling back each open. It shares no code with
topology.count_continuous_maps, which reads only the smallest open
neighbourhoods.

reference_compositions_certified is the composite certificate the hom
count replaced. C1 is as in cli._cmd_verify_functoriality. C2 translates
every composite g∘f and tests it against the enumerated homs of its
pair, so it shows that the hom lists are closed under composition, but
not that they are complete.
"""

from itertools import product

from biheyt import WrongKind
from biheyt.bitsets import pullback, translate_table
from biheyt.spectrum import InducedMap


def reference_induced_map(phi, source_spec, target_spec) -> InducedMap:
    """Send a prime filter P of φ's target to φ⁻¹(P), looked up among
    the points of source_spec; verify the map is continuous and that the
    preimage of β(h) is β(φ(h)) for every h."""
    index = {p: i for i, p in enumerate(source_spec.points)}
    point_map = []
    for p in target_spec.points:
        pre = pullback(phi.map, p)
        if pre not in index:
            raise WrongKind("preimage of a prime filter is not a point of the source spectrum")
        point_map.append(index[pre])
    point_map = tuple(point_map)
    preimages = {o: pullback(point_map, o) for o in source_spec.space.opens}
    target_opens = set(target_spec.space.opens)
    continuous = all(pre in target_opens for pre in preimages.values())
    # spectrum() generates the space from the β(h), so each is an open
    identity_ok = all(preimages[b] == target_spec.beta[v]
                      for b, v in zip(source_spec.beta, phi.map))
    return InducedMap(phi, source_spec, target_spec, point_map, continuous, identity_ok)


def reference_count_continuous_maps(source, target) -> int:
    """The maps f: source → target under which the preimage of every
    open of target is an open of source."""
    opens = set(source.opens)
    return sum(
        all(sum(1 << x for x, y in enumerate(f) if (o >> y) & 1) in opens for o in target.opens)
        for f in product(range(target.points), repeat=source.points))


# The certificate keeps hom maps and prime filters as bytes below 128. A
# tag byte 128 + i in front of a map names its source lattice i, and _SEP
# stands between tagged maps; a bitsets.translate_table of fewer than 128
# values fixes each byte from 128 up, so tags and separators pass through
# translate as they are. So elements, points and the lattice count stay
# below 128.
_SEP = b"\xff"


def reference_compositions_certified(spectra, induced) -> bool:
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
