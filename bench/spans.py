"""In-process spans around the public calls of each biheyt layer.

`instrument(tracer)` swaps the module attributes that the CLI and the
library look their callees up by for wrappers that record a span per
call, and puts the originals back on exit. Nothing in the package is
edited; the wrappers only see calls from outside.

Calls made once per frame or per space (frame classification, the
enumerator generators) would cost more to record one by one than the
work they time, so they are summed per parent span instead
("rollups"). A span's self time is its duration minus its child spans
and rollups.
"""

from __future__ import annotations

import contextlib
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

import biheyt.cli
import biheyt.modal
from biheyt import build_lattice, cover_pairs

# The package re-exports a function named `spectrum`, which hides the module.
_SPECTRUM = importlib.import_module("biheyt.spectrum")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.rollups: dict[tuple[int, str], list] = defaultdict(lambda: [0.0, 0])
        self.counts: Counter = Counter()
        self.lattices: list = []
        self._stack = [-1]

    def call(self, name: str, fn, *args, **kwargs):
        rec = [name, 0.0, 0.0, self._stack[-1]]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def add(self, name: str, seconds: float):
        slot = self.rollups[(self._stack[-1], name)]
        slot[0] += seconds
        slot[1] += 1

    def iterate(self, name: str, items, counter: str):
        """Yield from items, summing the time spent producing them."""
        it = iter(items)
        while True:
            t0 = perf_counter()
            try:
                item = next(it)
            except StopIteration:
                self.add(name, perf_counter() - t0)
                return
            self.add(name, perf_counter() - t0)
            self.counts[counter] += 1
            yield item

    def seconds(self) -> dict[str, float]:
        """Inclusive seconds per name, spans and rollups together."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        for (_, name), (secs, _) in self.rollups.items():
            out[name] += secs
        return out

    def self_seconds(self) -> dict[str, float]:
        """Seconds per name that no child span or rollup covers."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for (parent, _), (secs, _) in self.rollups.items():
            if parent >= 0:
                covered[parent] += secs
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, covered):
            out[name] += end - start - inner
        for (_, name), (secs, _) in self.rollups.items():
            out[name] += secs
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({
                "spans": self.spans,
                "rollups": [[name, parent, secs, calls]
                            for (parent, name), (secs, calls) in self.rollups.items()],
                "self_seconds": self.self_seconds(),
                "counts": self.counts,
            }, fh)


def _spanned(tracer: Tracer, name: str, fn, after=None):
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, *args, **kwargs)
        if after is not None:
            after(result, *args, **kwargs)
        return result
    return wrapper


def _hom_candidates(source, target) -> int:
    """Maps enumerate_homs tries: every map fixing ⊥ and ⊤."""
    return 1 if source.n == 1 else target.n ** (source.n - 2)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    t, c = tracer, tracer.counts
    cli, modal, spectrum = biheyt.cli, biheyt.modal, _SPECTRUM

    def lattices_made(result, *_a, **_k):
        c["lattice.enum_count"] += len(result)
        t.lattices.extend(result)

    def homs_found(result, source, target, *_a, **_k):
        c["quotient.hom_candidates"] += _hom_candidates(source, target)
        c["quotient.homs_found"] += len(result)

    def law_cases(result, *_a, **_k):
        reports = result if isinstance(result, list) else [result]
        c["duallogic.cases"] += sum(r.checked for r in reports)

    def s4_valuations(result, *_a, **_k):
        c["modal.s4_valuations"] += sum(r.checked for r in result)

    required: tuple[str, ...] = ()  # frame properties of the running search

    def search(fn):
        def wrapper(phi, max_points, mode="space", semantics="classical",
                    frame_properties=(), **kwargs):
            nonlocal required
            required = frame_properties
            route = "frame" if mode == "frame" else (
                "space" if semantics == "classical" else "algebra")
            result = t.call(f"modal.search_{route}", fn, phi, max_points, mode=mode,
                            semantics=semantics, frame_properties=frame_properties,
                            **kwargs)
            c["modal.searches"] += 1
            c["modal.search_found"] += result is not None
            return result
        return wrapper

    def classify(fn):
        def wrapper(frame):
            t0 = perf_counter()
            cls = fn(frame)
            t.add("modal.frames_enum", perf_counter() - t0)
            c["modal.frames_kept"] += all(getattr(cls, p) for p in required)
            return cls
        return wrapper

    def counted(name, counter):
        return lambda fn: _spanned(t, name, fn, lambda *_a, **_k: c.update([counter]))

    def layer(name, after=None):
        return lambda fn: _spanned(t, name, fn, after)

    def generator(name, counter):
        return lambda fn: lambda *a, **k: t.iterate(name, fn(*a, **k), counter)

    plan = {
        (cli, "enumerate_distributive_lattices"): layer("lattice.enum", lattices_made),
        (cli, "verify_stone_embedding"): layer("spectrum.stone"),
        (cli, "spectrum"): layer("spectrum.spectrum"),
        (spectrum, "spectrum"): layer("spectrum.spectrum"),
        (spectrum, "prime_filters"): layer("spectrum.prime_filters"),
        (spectrum, "open_lattice"): layer("topology.algebra"),
        (cli, "induced_map"): counted("spectrum.induced", "spectrum.induced_calls"),
        (cli, "compose"): counted("quotient.compose", "quotient.compose_calls"),
        (cli, "enumerate_homs"): layer("quotient.homs", homs_found),
        (cli, "enumerate_topologies"): generator("topology.enum", "topology.enum_count"),
        (modal, "enumerate_topologies"): generator("topology.enum", "topology.enum_count"),
        (cli, "open_lattice"): layer("topology.algebra"),
        (cli, "closed_lattice"): layer("topology.algebra"),
        (modal, "open_lattice"): layer("topology.algebra"),
        (modal, "closed_lattice"): layer("topology.algebra"),
        (cli, "check_dual_de_morgan"): layer("duallogic.laws", law_cases),
        (cli, "check_lem"): layer("duallogic.laws", law_cases),
        (cli, "check_boundary_laws"): layer("duallogic.laws", law_cases),
        (cli, "find_paraconsistent_witness"): layer("duallogic.laws"),
        (cli, "s4_axiom_suite"): layer("modal.s4_suite", s4_valuations),
        (cli, "countermodel_search"): search,
        (modal, "enumerate_frames"): generator("modal.frames_enum", "modal.frames_seen"),
        (modal, "classify_frame"): classify,
        (cli, "parse_formula"): layer("formulas.parse"),
    }
    originals = {key: getattr(*key) for key in plan}
    try:
        for (module, attr), wrap in plan.items():
            setattr(module, attr, wrap(originals[(module, attr)]))
        yield tracer
    finally:
        for (module, attr), fn in originals.items():
            setattr(module, attr, fn)


def force_tables(tracer: Tracer) -> None:
    """Time forcing the →, ←, ¬, ∼ and ∂ tables on fresh copies of the
    lattices the enumerator returned (the copies start with none cached)."""
    for lat in tracer.lattices:
        fresh = build_lattice(lat.n, cover_pairs(lat))
        tracer.call("lattice.tables", _tables, fresh)


def _tables(lat) -> None:
    for table in ("implies_table", "minus_table", "neg_table", "conot_table",
                  "boundary_table"):
        getattr(lat, table)
