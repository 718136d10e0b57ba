"""Job lists, known answers and verdict checks for the biheyt benchmark.

A job is one `python -m biheyt.cli ...` command with the exit code and
the counts it must report. Every expected value comes from outside the
program:

- lattice counts from OEIS A006982 (unlabelled distributive lattices);
- space counts from OEIS A000798 (labelled topologies);
- hom and composition counts from the benchmark's brute-force oracle
  (oracle.py);
- formula verdicts from logic (a substitution instance of a theorem is a
  theorem) or from this file's own two-point S4 evaluator.

A reported countermodel is checked with the route the job did not use:
a space witness with Kripke semantics on its specialization preorder, a
frame witness with topological semantics on its Alexandrov space.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from itertools import product

from biheyt import (
    BiheytError,
    KripkeFrame,
    Preorder,
    from_preorder,
    kripke_eval,
    model_from_space,
    parse_formula,
    topo_eval,
    validate_topology,
)
from oracle import hom_oracle

# OEIS A006982: unlabelled distributive lattices with n elements, n >= 1.
DISTRIBUTIVE_LATTICES = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 5, 7: 8, 8: 15, 9: 26}
# OEIS A000798: topologies on n labelled points, n >= 1.
TOPOLOGIES = {1: 1, 2: 4, 3: 29, 4: 355}

S4_SCHEMAS = (
    "[](P -> Q) -> ([]P -> []Q)",
    "[]P -> P",
    "[]P -> [][]P",
    "P -> <>P",
    "<><>P -> <>P",
)
INTUITIONISTIC_THEOREMS = (
    "P -> (Q -> P)",
    "(P & Q) -> P",
    "P -> (P | Q)",
    "P -> !!P",
    "!!!P -> !P",
    "(P -> Q) -> (!Q -> !P)",
    "!(P | Q) -> (!P & !Q)",
    "(!P | !Q) -> !(P & Q)",
    "(P -> (P -> Q)) -> (P -> Q)",
    "!!(P | !P)",
)
# Instances of P | ~P, which holds in every co-Heyting algebra.
DUAL_SUBSTITUTES = ("p", "q", "~p", "~q", "(p & q)", "(p | q)", "(p <- q)", "(q <- p)")

# Jobs of each kind in one pass of the modal workload.
RANDOM_FORMULAS = 7
INTUITIONISTIC_JOBS = 4
DUAL_JOBS = 4


@dataclass(frozen=True)
class Scale:
    """Bounds of the three workloads; all stay inside the library caps."""

    stone: int = 8
    functoriality: int = 5
    points: int = 4


FULL = Scale()
TINY = Scale(stone=5, functoriality=4, points=3)


@dataclass
class Job:
    argv: tuple[str, ...]
    rc: int  # expected exit code
    kind: str  # stone | functoriality | s4 | dual-laws | search
    pins: dict = field(default_factory=dict)
    formula: str = ""
    route: str = ""  # search jobs: space | frame | algebra
    pair: int = -1  # classical search jobs: shared by the space and frame route


# --- job lists ------------------------------------------------------------------


def lattice_count(max_size: int) -> int:
    return sum(DISTRIBUTIVE_LATTICES[n] for n in range(1, max_size + 1))


def stone_jobs(scale: Scale) -> list[Job]:
    n = scale.stone
    return [Job(("verify", "stone", "--max-size", str(n)), 0, "stone",
                {"lattices": lattice_count(n)})]


def functoriality_jobs(scale: Scale) -> list[Job]:
    n = scale.functoriality
    homs, compositions = hom_oracle(n)
    return [Job(("verify", "functoriality", "--max-size", str(n)), 0, "functoriality",
                {"identities": lattice_count(n), "homs": homs,
                 "compositions": compositions})]


def modal_jobs(scale: Scale, seed: int) -> list[Job]:
    """The S4 and dual-law suites, then a seeded batch of searches.

    Classical formulas run on both the space route and the S4-frame route:
    one renaming of each S4 schema (valid, so every structure is scanned;
    negated instances would move the cost of a full scan by up to a third
    from seed to seed) and random formulas of modal depth <= 2 that the
    two-point evaluator refutes (so the searches stop early).
    Intuitionistic theorem instances and instances of p | ~p run once
    each, on the algebra route."""
    m = str(scale.points)
    spaces = sum(TOPOLOGIES[k] for k in range(1, scale.points + 1))
    valuations = sum(TOPOLOGIES[k] * 4 ** k for k in range(1, scale.points + 1))
    jobs = [
        Job(("verify", "s4", "--points", m), 0, "s4",
            {"spaces": spaces, "valuations": valuations}),
        Job(("verify", "dual-laws", "--points", m), 0, "dual-laws", {"spaces": spaces}),
    ]
    rng = random.Random(seed)
    classical = [(_substitute(s, rng, ("{}",)), 0) for s in S4_SCHEMAS]
    classical += [(f, 1) for f in _refuted_formulas(rng, RANDOM_FORMULAS)]
    search = ("--format", "json", "search", "--formula")
    for pair, (text, rc) in enumerate(classical):
        jobs.append(Job((*search, text, "--max-points", m), rc, "search",
                        formula=text, route="space", pair=pair))
        jobs.append(Job((*search, text, "--semantics", "frame", "--require",
                         "reflexive,transitive", "--max-points", m), rc, "search",
                        formula=text, route="frame", pair=pair))
    for schema in rng.sample(INTUITIONISTIC_THEOREMS, INTUITIONISTIC_JOBS):
        text = _substitute(schema, rng, ("{}", "!{}"))
        jobs.append(Job((*search, text, "--semantics", "intuitionistic",
                         "--max-points", m), 0, "search", formula=text, route="algebra"))
    for sub in rng.sample(DUAL_SUBSTITUTES, DUAL_JOBS):
        text = f"{sub} | ~{sub}"
        jobs.append(Job((*search, text, "--semantics", "dual", "--max-points", m),
                        0, "search", formula=text, route="algebra"))
    return jobs


def _substitute(schema: str, rng: random.Random, literals) -> str:
    """Replace P and Q by literals over distinct atoms, so every instance
    of a schema has the same atom count and a similar size."""
    a, b = rng.sample(("p", "q"), 2)
    return (schema.replace("P", rng.choice(literals).format(a))
                  .replace("Q", rng.choice(literals).format(b)))


# --- random formulas and the two-point S4 evaluator ------------------------------

# Every preorder on one and on two labelled points, as successor masks.
_SMALL_PREORDERS = (((1,),), ((1, 2), (1, 3), (3, 2), (3, 3)))


def _random_formula(rng: random.Random, size: int, modal_depth: int):
    if size <= 1:
        return ("atom", rng.choice("pq"))
    unary = ["not"] + (["box", "dia"] if modal_depth else [])
    op = rng.choice(unary + (["and", "or", "imp"] if size >= 3 else []))
    if op in unary:
        return (op, _random_formula(rng, size - 1, modal_depth - (op != "not")))
    left = rng.randint(1, size - 2)
    return (op, _random_formula(rng, left, modal_depth),
            _random_formula(rng, size - 1 - left, modal_depth))


def render(f) -> str:
    op = f[0]
    if op == "atom":
        return f[1]
    if op in ("not", "box", "dia"):
        return {"not": "!", "box": "[]", "dia": "<>"}[op] + render(f[1])
    sym = {"and": "&", "or": "|", "imp": "->"}[op]
    return f"({render(f[1])} {sym} {render(f[2])})"


def _value(f, rel, val, full: int) -> int:
    """World set of f in the S4 model (rel, val): □S = {w | R[w] ⊆ S}."""
    op = f[0]
    if op == "atom":
        return val[f[1]]
    if op in ("not", "box", "dia"):
        s = _value(f[1], rel, val, full)
        if op == "not":
            return full & ~s
        worlds = range(len(rel))
        if op == "box":
            return sum(1 << w for w in worlds if not rel[w] & ~s)
        return sum(1 << w for w in worlds if rel[w] & s)
    a = _value(f[1], rel, val, full)
    b = _value(f[2], rel, val, full)
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    return (full & ~a) | b


def refuted_on_two_points(f) -> bool:
    for preorders in _SMALL_PREORDERS:
        for rel in preorders:
            full = (1 << len(rel)) - 1
            for vp, vq in product(range(full + 1), repeat=2):
                if _value(f, rel, {"p": vp, "q": vq}, full) != full:
                    return True
    return False


def _refuted_formulas(rng: random.Random, count: int) -> list[str]:
    out: list[str] = []
    while len(out) < count:
        f = _random_formula(rng, rng.randint(4, 8), 2)
        text = render(f)
        if text not in out and refuted_on_two_points(f):
            out.append(text)
    return out


# --- verdict checks -------------------------------------------------------------


def check_pass(job_list: list[Job], results: list[tuple[int, str]]) -> dict[int, str]:
    """Failure reason by job index, for one pass of (exit code, stdout)."""
    failures = {}
    found: dict[int, dict[str, bool]] = {}
    for i, (job, (rc, out)) in enumerate(zip(job_list, results)):
        reason = None if rc == job.rc else f"exit code {rc}, expected {job.rc}"
        if reason is None:
            try:
                reason = _CHECKS[job.kind](job, out)
            except (BiheytError, ValueError, KeyError, TypeError, IndexError) as err:
                reason = f"unreadable output: {err!r}"
        if job.pair >= 0 and rc in (0, 1):
            found.setdefault(job.pair, {})[job.route] = rc == 1
            if len(set(found[job.pair].values())) > 1 and reason is None:
                reason = "space and frame routes disagree on " + job.formula
        if reason is not None:
            failures[i] = f"{' '.join(job.argv)}: {reason}"
    return failures


def _check_stone(job: Job, out: str):
    want = f"{job.pins['lattices']} lattices checked, all embeddings are isomorphisms"
    return None if want in out.splitlines() else f"missing {want!r}"


def _check_functoriality(job: Job, out: str):
    p = job.pins
    want = (f"identities: {p['identities']}, beta identities: {p['homs']}, "
            f"compositions: {p['compositions']}, all contravariant")
    return None if want in out.splitlines() else f"missing {want!r}"


def _check_spaces(job: Job, out: str):
    want = f"{job.pins['spaces']} spaces checked"
    return None if want in out.splitlines() else f"missing {want!r}"


def _check_s4(job: Job, out: str):
    counts = re.findall(r"^.+?\s(\d+) valuations: pass$", out, re.M)
    if len(counts) != len(S4_SCHEMAS) or {int(c) for c in counts} != {job.pins["valuations"]}:
        return f"schema lines {counts}, expected {len(S4_SCHEMAS)} x {job.pins['valuations']}"
    return _check_spaces(job, out)


def _check_search(job: Job, out: str):
    rec = json.loads(out.splitlines()[-1])
    if rec["record"] != "search" or rec["found"] != (job.rc == 1):
        return f"search record {rec}"
    if not rec["found"]:
        return None
    phi = parse_formula(job.formula)
    val = {name: _mask(bits) for name, bits in rec["valuation"].items()}
    point, shape = rec["point"], rec["structure"]
    if job.route == "space":
        space = validate_topology(shape["points"], [_mask(o) for o in shape["opens"]])
        if kripke_eval(model_from_space(space, val), point, phi):
            return "space countermodel holds under Kripke semantics"
    elif job.route == "frame":
        frame = KripkeFrame.from_edges(shape["worlds"], shape["edges"])
        if not _is_preorder(frame.rel):
            return "frame countermodel is not reflexive and transitive"
        space = from_preorder(Preorder(frame.worlds, frame.rel))
        if (topo_eval(space, val, phi) >> point) & 1:
            return "frame countermodel holds on its Alexandrov space"
    return None


def _is_preorder(rel) -> bool:
    worlds = range(len(rel))
    return all((rel[w] >> w) & 1
               and all(not rel[u] & ~rel[w] for u in worlds if (rel[w] >> u) & 1)
               for w in worlds)


def _mask(bits) -> int:
    return sum(1 << b for b in bits)


_CHECKS = {
    "stone": _check_stone,
    "functoriality": _check_functoriality,
    "s4": _check_s4,
    "dual-laws": _check_spaces,
    "search": _check_search,
}
