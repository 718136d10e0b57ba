"""Subsets of {0..n-1} encoded as Python int bitmasks.

Bit i set means element i is a member. All enumeration loops in the
package sort subsets by (size, mask value); that order is the canonical
one used for stable output and golden tests.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def mask_of(members: Iterable[int]) -> int:
    m = 0
    for i in members:
        m |= 1 << i
    return m


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_list(mask: int) -> list[int]:
    return list(iter_bits(mask))


def pullback(f, mask: int) -> int:
    """The preimage of mask along the map f (f[x] is the image of x):
    the mask of every x with f[x] in mask."""
    pre = 0
    for x, y in enumerate(f):
        if (mask >> y) & 1:
            pre |= 1 << x
    return pre


def transpose(rows: Iterable[int], width: int) -> list[int]:
    """The transposed bit matrix: column j is the mask of every i with
    bit j set in rows[i]. width bounds the set bits of every row."""
    cols = [0] * width
    for i, row in enumerate(rows):
        bit = 1 << i
        while row:  # iter_bits inlined: the enumerators call this per poset
            low = row & -row
            cols[low.bit_length() - 1] |= bit
            row ^= low
    return cols


_IDENTITY = bytes(range(256))


def translate_table(values) -> bytes:
    """The bytes.translate table sending byte i to values[i] for i below
    len(values), and every other byte to itself. Every value must be a
    byte, and there are at most 256 of them."""
    head = bytes(values)
    return head + _IDENTITY[len(head):]


def subset_key(mask: int) -> tuple[int, int]:
    """Canonical sort key: size first, then raw bit pattern."""
    return (mask.bit_count(), mask)


def unions(rows: Iterable[int]) -> set[int]:
    """Every union of some of the given sets, the empty union 0 included.

    After each row the family is closed under union, so a row that is
    already a member adds nothing and is skipped."""
    family = {0}
    for row in rows:
        if row not in family:
            family |= {s | row for s in family}
    return family


def closed_relation(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Reflexive-transitive closure of the pairs (i, j) on 0..n-1, as
    rows: row i is the mask of every j reachable from i (Warshall)."""
    rows = [1 << i for i in range(n)]
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"pair ({a}, {b}) references elements outside 0..{n-1}")
        rows[a] |= 1 << b
    for k in range(n):
        rk = rows[k]
        for i in range(n):
            if (rows[i] >> k) & 1:
                rows[i] |= rk
    return rows


def pattern(mask: int, width: int) -> str:
    """Bit-pattern string, position i = element i (e.g. {0,2} -> '101')."""
    return "".join("1" if (mask >> i) & 1 else "0" for i in range(width))


def from_pattern(text: str) -> int:
    m = 0
    for i, ch in enumerate(text):
        if ch == "1":
            m |= 1 << i
        elif ch != "0":
            raise ValueError(f"bad bit pattern {text!r}")
    return m
