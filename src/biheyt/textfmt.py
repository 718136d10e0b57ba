"""Text formats for lattices, spaces, and Kripke models.

Lattice files:      `lattice n=<N>` then one `le <i> <j>` line per
                    covering pair (any order pairs are accepted; the
                    canonical emitted form lists covers sorted).
Space files:        `space m=<M>` then `open <bits|points...>` lines,
                    or `preorder <i> <j>` lines (the space is then the
                    up-set topology of the reflexive-transitive
                    closure). Canonical form emits bit patterns,
                    position i = point i.
Frame/model files:  `frame n=<N>`, `edge <i> <j>` lines, and
                    `val <atom>: <worlds...>` lines, at most one per atom.

Blank lines and `#` comments are ignored everywhere. load_structure
dispatches on the header keyword and accepts, in place of a path, the
name of a built-in structure, so the regression commands need no
fixture files:

    chain3      the three-element chain 0 < 1 < 2
    threepoint  the space on {0,1,2} with opens ∅, {0}, {0,1}, X —
                the smallest space where ¬¬A = A fails (A = {0,1})
    sierpinski  two points, opens ∅, {0}, X (0 open, 1 closed)
    example1    reflexive-transitive 3-world model, V(p) = {w1};
                satisfies ◇p ∧ ◇¬p at w0
    example2    3-world model with R = {(0,1),(0,2),(1,1),(2,2)},
                V(p) = {w1}, V(q) = {w2}
"""

from __future__ import annotations

import os
from typing import Union

from .bitsets import bit_list, closed_relation, from_pattern, mask_of, pattern
from .errors import ParseError
from .lattice import FiniteLattice, build_lattice, chain, cover_pairs
from .modal import KripkeFrame, KripkeModel, worked_examples
from .topology import FiniteSpace, Preorder, from_preorder, validate_topology

Structure = Union[FiniteLattice, FiniteSpace, KripkeModel]


def _meaningful_lines(text: str):
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line


def parse_int(text: str) -> int:
    """int(text) for ASCII digits after an optional '-'. int() alone
    would also take '+', '_', spaces and non-ASCII digits."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def _body(text: str, keyword: str, field: str) -> tuple[int, list]:
    """The count in the header line `<keyword> <field>=<count>` and the
    (line number, line) pairs after it."""
    lines = list(_meaningful_lines(text))
    if not lines:
        raise ParseError(None, f"empty {keyword} file")
    no, line = lines[0]
    parts = line.split()
    if len(parts) != 2 or parts[0] != keyword or not parts[1].startswith(field + "="):
        raise ParseError(no, f"expected header '{keyword} {field}=<count>'")
    try:
        value = parse_int(parts[1][len(field) + 1 :])
    except ValueError:
        raise ParseError(no, f"bad count in {parts[1]!r}") from None
    if value < 0:
        raise ParseError(no, "count must be nonnegative")
    return value, lines[1:]


def _pair(no: int, line: str, n: int, noun: str) -> tuple[int, int]:
    """The two indices in 0..n-1 that follow the keyword of a three-word line."""
    parts = line.split()
    try:
        a, b = parse_int(parts[1]), parse_int(parts[2])
    except ValueError:
        raise ParseError(no, f"bad {noun} index in {line!r}") from None
    if not (0 <= a < n and 0 <= b < n):
        raise ParseError(no, f"{noun} out of range in {line!r}")
    return a, b


def parse_lattice_text(text: str) -> FiniteLattice:
    n, body = _body(text, "lattice", "n")
    pairs = []
    for no, line in body:
        parts = line.split()
        if parts[0] != "le" or len(parts) != 3:
            raise ParseError(no, f"expected 'le <i> <j>', got {line!r}")
        pairs.append(_pair(no, line, n, "element"))
    return build_lattice(n, pairs)


def format_lattice_text(lat: FiniteLattice) -> str:
    lines = [f"lattice n={lat.n}"]
    lines += [f"le {a} {b}" for a, b in cover_pairs(lat)]
    return "\n".join(lines) + "\n"


def parse_subset(parts: list[str], m: int) -> int:
    """A subset of 0..m-1 given as one bit pattern of length m (m > 1,
    position i = point i) or as point indices. Raises ValueError."""
    if len(parts) == 1 and set(parts[0]) <= {"0", "1"} and len(parts[0]) == m and m > 1:
        return from_pattern(parts[0])
    points = []
    for tok in parts:
        try:
            x = parse_int(tok)
        except ValueError:
            raise ValueError(f"bad point {tok!r}") from None
        if not 0 <= x < m:
            raise ValueError(f"point {x} out of range 0..{m - 1}")
        points.append(x)
    return mask_of(points)


def parse_space_text(text: str) -> FiniteSpace:
    m, body = _body(text, "space", "m")
    opens = []
    preorder_pairs = []
    for no, line in body:
        parts = line.split()
        if parts[0] == "open":
            try:
                opens.append(parse_subset(parts[1:], m))
            except ValueError as err:
                raise ParseError(no, str(err)) from None
        elif parts[0] == "preorder" and len(parts) == 3:
            preorder_pairs.append(_pair(no, line, m, "point"))
        else:
            raise ParseError(no, f"expected 'open ...' or 'preorder <i> <j>', got {line!r}")
    if preorder_pairs and opens:
        raise ParseError(body[0][0], "mix of open and preorder lines")
    if preorder_pairs:
        return from_preorder(Preorder(m, tuple(closed_relation(m, preorder_pairs))))
    return validate_topology(m, opens)


def format_space_text(space: FiniteSpace) -> str:
    lines = [f"space m={space.points}"]
    for o in space.opens:
        if space.points > 1:
            lines.append(f"open {pattern(o, space.points)}")
        else:
            # single-point spaces: a bit pattern is ambiguous with a point index
            lines.append("open" + ("" if o == 0 else " 0"))
    return "\n".join(lines) + "\n"


def parse_model_text(text: str) -> KripkeModel:
    n, body = _body(text, "frame", "n")
    edges = []
    valuation = {}
    for no, line in body:
        parts = line.split()
        if parts[0] == "edge" and len(parts) == 3:
            edges.append(_pair(no, line, n, "world"))
        elif parts[0] == "val" and len(parts) >= 2 and parts[1].endswith(":"):
            name = parts[1][:-1]
            if not name:
                raise ParseError(no, "missing atom name in val line")
            if name in valuation:
                raise ParseError(no, f"atom {name!r} has more than one val line")
            worlds = []
            for tok in parts[2:]:
                digits = tok[1:] if tok.startswith("w") else tok
                # ASCII only: str.isdigit also accepts '²', which int() refuses
                if not (digits.isascii() and digits.isdigit()) or not 0 <= int(digits) < n:
                    raise ParseError(no, f"bad world {tok!r} in val line")
                worlds.append(int(digits))
            valuation[name] = mask_of(worlds)
        else:
            raise ParseError(no, f"expected 'edge <i> <j>' or 'val <atom>: ...', got {line!r}")
    return KripkeModel(KripkeFrame.from_edges(n, edges), valuation)


def format_model_text(model: KripkeModel) -> str:
    lines = [f"frame n={model.frame.worlds}"]
    lines += [f"edge {a} {b}" for a, b in model.frame.edges()]
    for name in sorted(model.valuation):
        worlds = " ".join(str(w) for w in bit_list(model.valuation[name]))
        lines.append(f"val {name}: {worlds}".rstrip())
    return "\n".join(lines) + "\n"


# name -> builder of each built-in structure, in the order help text lists them
BUILTINS = {
    "chain3": lambda: chain(3),
    "threepoint": lambda: validate_topology(3, [0b000, 0b001, 0b011, 0b111]),
    "sierpinski": lambda: validate_topology(2, [0b00, 0b01, 0b11]),
    "example1": lambda: worked_examples()[0],
    "example2": lambda: worked_examples()[1],
}


def load_structure(path_or_name: str) -> Structure:
    """Parse a structure file, dispatching on its header keyword; the
    built-in names resolve without touching the filesystem."""
    if path_or_name in BUILTINS:
        return BUILTINS[path_or_name]()
    if not os.path.exists(path_or_name):
        raise ParseError(None, f"no such file or built-in structure: {path_or_name!r}")
    try:
        with open(path_or_name, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ParseError(None, f"cannot read {path_or_name!r}: {err}") from None
    for no, line in _meaningful_lines(text):
        keyword = line.split()[0]
        if keyword == "lattice":
            return parse_lattice_text(text)
        if keyword == "space":
            return parse_space_text(text)
        if keyword == "frame":
            return parse_model_text(text)
        raise ParseError(no, f"unknown structure header {keyword!r}")
    raise ParseError(None, "empty structure file")
