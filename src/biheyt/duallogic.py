"""Algebra-valued formula evaluation and the dual-intuitionistic law
suites.

eval_algebra reads one finite distributive lattice two ways: logic
"intuitionistic" interprets {⊥,⊤,¬,∧,∨,→} in it as a Heyting algebra
(¬φ = φ→⊥), logic "dual" interprets {⊥,⊤,∼,∧,∨,←} as a co-Heyting
algebra (∼φ = ⊤←φ). compile_formula rejects the other fragment's
connectives (and the modal ones) instead of coercing, because the two
negations mean different things; each node is then looked up in the
lattice's cached tables. algebra_evaluator keeps one compiled formula
for sweeps over many assignments.

The law suites scan whole operation tables and report every violation
with a witness; over lattices of closed sets the conjunctive De Morgan
law, the excluded middle, and the four boundary identities hold, while
the disjunctive De Morgan law and the law of noncontradiction fail in
general — that failure is the point, so suites never stop early.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Sequence

from .errors import UnknownOption
from .formulas import Formula, compile_formula
from .lattice import FiniteLattice, is_boolean
from .records import Record

LOGICS = ("intuitionistic", "dual")
# connective -> the FiniteLattice table that interprets it
_TABLES = {"not": "neg_table", "conot": "conot_table", "and": "meet",
           "or": "join", "imp": "implies_table", "coimp": "minus_table"}


def eval_algebra(
    phi: Formula, lat: FiniteLattice, assignment: Mapping[str, int], logic: str
) -> int:
    """Value of phi in lat under assignment (atom -> element), read in
    the given logic. A non-distributive lattice is refused up front."""
    if logic not in LOGICS:
        raise UnknownOption("logic", logic, LOGICS)
    lat.require_distributive()
    prog, names = compile_formula(phi, logic, sorted(assignment))
    return algebra_evaluator(prog, lat)([assignment[name] for name in names])


def algebra_evaluator(
    prog: list[tuple], lat: FiniteLattice
) -> Callable[[Sequence[int]], int]:
    """Evaluator of a compiled formula in lat: it maps the atoms'
    elements, in the compiled atom order, to the formula's value."""
    tables = {node[0]: getattr(lat, _TABLES[node[0]])
              for node in prog if node[0] in _TABLES}
    constants = {"bot": lat.bottom, "top": lat.top}

    def value(elements: Sequence[int]) -> int:
        vals: list[int] = []
        for node in prog:
            kind = node[0]
            if kind == "atom":
                vals.append(elements[node[1]])
            elif kind in constants:
                vals.append(constants[kind])
            elif len(node) == 2:
                vals.append(tables[kind][vals[node[1]]])
            else:
                vals.append(tables[kind][vals[node[1]]][vals[node[2]]])
        return vals[-1]

    return value


class LawReport(Record):
    __slots__ = ()
    law: str
    checked: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        state = "ok" if self.ok else f"{len(self.violations)} violations"
        first = f", first witness {self.violations[0]}" if self.violations else ""
        return f"{self.law}: {state} over {self.checked} cases{first}"


def check_dual_de_morgan(lat: FiniteLattice) -> list[LawReport]:
    """The conjunctive law ∼(a∧b) = ∼a∨∼b (a theorem here) and the
    disjunctive law ∼(a∨b) = ∼a∧∼b (which fails in general)."""
    n, meet, join, conot = lat.n, lat.meet, lat.join, lat.conot_table
    conj_bad = []
    disj_bad = []
    for a in range(n):
        for b in range(n):
            if conot[meet[a][b]] != join[conot[a]][conot[b]]:
                conj_bad.append((a, b))
            if conot[join[a][b]] != meet[conot[a]][conot[b]]:
                disj_bad.append((a, b))
    return [
        LawReport("conjunctive dual De Morgan", n * n, tuple(conj_bad)),
        LawReport("disjunctive dual De Morgan", n * n, tuple(disj_bad)),
    ]


def check_lem(lat: FiniteLattice) -> LawReport:
    """a ∨ ∼a = ⊤ for every a."""
    conot = lat.conot_table
    bad = tuple((a,) for a in range(lat.n) if lat.join[a][conot[a]] != lat.top)
    return LawReport("excluded middle", lat.n, bad)


def find_paraconsistent_witness(lat: FiniteLattice) -> Optional[int]:
    """Some a with ∂a ≠ ⊥, or None (None exactly on Boolean algebras)."""
    for a in range(lat.n):
        if lat.boundary_table[a] != lat.bottom:
            return a
    return None


def check_boundary_laws(lat: FiniteLattice) -> list[LawReport]:
    """The four boundary identities:
    1. ∂(a∧b) = (∂a∧b) ∨ (a∧∂b)
    2. ∂a ∨ ∂b = ∂(a∨b) ∨ ∂(a∧b)
    3. ∂∂a = ∂a
    4. a = ∼∼a ∨ ∂a
    """
    n, meet, join = lat.n, lat.meet, lat.join
    bd, conot = lat.boundary_table, lat.conot_table
    leibniz = []
    join_split = []
    for a in range(n):
        for b in range(n):
            if bd[meet[a][b]] != join[meet[bd[a]][b]][meet[a][bd[b]]]:
                leibniz.append((a, b))
            if join[bd[a]][bd[b]] != join[bd[join[a][b]]][bd[meet[a][b]]]:
                join_split.append((a, b))
    idem = tuple((a,) for a in range(n) if bd[bd[a]] != bd[a])
    decomp = tuple((a,) for a in range(n) if join[conot[conot[a]]][bd[a]] != a)
    return [
        LawReport("boundary of a meet", n * n, tuple(leibniz)),
        LawReport("boundary join split", n * n, tuple(join_split)),
        LawReport("boundary idempotence", n, idem),
        LawReport("co-negation decomposition", n, decomp),
    ]


class BooleanCriterion(Record):
    __slots__ = ()
    complemented: bool
    boundary_trivial: bool
    double_negation: bool

    @property
    def consistent(self) -> bool:
        return self.complemented == self.boundary_trivial == self.double_negation


def boolean_iff_trivial_boundary(lat: FiniteLattice) -> BooleanCriterion:
    """Three independently computed sides of the Boolean criterion:
    complement search, ∂a = ⊥ for all a, and ¬¬a = a for all a."""
    complemented = is_boolean(lat)
    boundary_trivial = all(lat.boundary_table[a] == lat.bottom for a in range(lat.n))
    double_negation = all(
        lat.neg_table[lat.neg_table[a]] == a for a in range(lat.n)
    )
    return BooleanCriterion(complemented, boundary_trivial, double_negation)
