"""Brute-force hom oracle: homs and composable pairs among the small
distributive lattices, counted without the biheyt package.

jobs.py takes the functoriality pins from here, and run.py runs this file
as its calibration process, so it imports nothing from the program:

    python3 bench/oracle.py     # prints calibration_seconds()
"""

from itertools import permutations, product
from time import perf_counter


def _posets(k: int):
    """Every labelled partial order on k points, by brute force over all
    reflexive relations; rows up[i] = mask of j with i <= j."""
    off = [(i, j) for i in range(k) for j in range(k) if i != j]
    for bits in range(1 << len(off)):
        up = [1 << i for i in range(k)]
        for b, (i, j) in enumerate(off):
            if (bits >> b) & 1:
                up[i] |= 1 << j
        if any((up[i] >> j) & 1 and (up[j] >> i) & 1 for i, j in off):
            continue
        if any((up[i] >> j) & 1 and up[j] & ~up[i] for i, j in off):
            continue
        yield tuple(up)


def _poset_key(up: tuple[int, ...]) -> tuple:
    """Smallest relabelling of the order rows: equal for isomorphic posets."""
    k = len(up)
    best = None
    for perm in permutations(range(k)):
        rows = [0] * k
        for i in range(k):
            rows[perm[i]] = sum(1 << perm[j] for j in range(k) if (up[i] >> j) & 1)
        if best is None or tuple(rows) < best:
            best = tuple(rows)
    return best


def _down_sets(up: tuple[int, ...]) -> list[int]:
    k = len(up)
    return [s for s in range(1 << k)
            if all(not (s >> j) & 1 or all((s >> i) & 1 for i in range(k)
                                           if (up[i] >> j) & 1)
                   for j in range(k))]


def distributive_lattices(max_size: int) -> list[list[int]]:
    """One lattice per isomorphism class with at most max_size elements,
    as the down-set lattice of its poset of join-irreducibles
    (Birkhoff); each lattice is its list of down-sets, ordered by ⊆.
    Posets are found by brute force, which is quick up to 5 elements."""
    out = []
    for k in range(max_size):
        seen = set()
        for up in _posets(k):
            downs = _down_sets(up)
            key = _poset_key(up)
            if len(downs) <= max_size and key not in seen:
                seen.add(key)
                out.append(downs)
    return out


def _hom_count(src: list[int], dst: list[int]) -> int:
    """Maps src -> dst that keep ⊥, ⊤, ∩ and ∪, tried over every map that
    keeps the bounds. Down-sets of a poset are closed under ∩ and ∪, so
    the lattice operations are the set operations on the masks."""
    n = len(src)
    if n == 1:
        return int(len(dst) == 1)
    pos = {s: i for i, s in enumerate(src)}
    meet = [[pos[a & b] for b in src] for a in src]
    join = [[pos[a | b] for b in src] for a in src]
    bot, top = pos[0], pos[max(src)]
    free = [i for i in range(n) if i not in (bot, top)]
    count = 0
    for images in product(dst, repeat=len(free)):
        f = [0] * n
        f[top] = max(dst)
        for a, v in zip(free, images):
            f[a] = v
        if all(f[meet[a][b]] == f[a] & f[b] and f[join[a][b]] == f[a] | f[b]
               for a in range(n) for b in range(n)):
            count += 1
    return count


def hom_oracle(max_size: int) -> tuple[int, int]:
    """(homs over all ordered pairs, composable pairs f;g) for the
    distributive lattices with at most max_size elements."""
    lats = distributive_lattices(max_size)
    homs = [[_hom_count(a, b) for b in lats] for a in lats]
    r = range(len(lats))
    return (sum(homs[i][j] for i in r for j in r),
            sum(homs[i][j] * homs[j][k] for i in r for j in r for k in r))


def calibration_seconds() -> float:
    """Seconds for a fixed amount of pure-Python work: the oracle at size
    5, a mix of bit operations, tuples, dicts and generators like the
    program's own. Its time tracks the host's speed."""
    t0 = perf_counter()
    for _ in range(4):
        hom_oracle(5)
    return perf_counter() - t0


if __name__ == "__main__":
    print(calibration_seconds())
