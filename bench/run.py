"""Benchmark for biheyt: time to an exhaustive verdict, as users see it.

    python3 bench/run.py --workload stone|functoriality|modal \
        --seed N --seconds S --trace 0|1

Each job is one fresh `python -m biheyt.cli ...` process. One client runs
the workload's job list in a closed loop, one child at a time, pass after
pass, until S seconds have gone (at least one pass). Each child's exit
code and stdout are checked against known answers after its pass, outside
the timed region. Every CHECKPOINT_EVERY_S, between two jobs, a checkpoint
times a calibration process (oracle.py) and a fresh
`biheyt --help` (the set-up); end_to_end explains how the calibration
steadies the time metrics.

With --trace 1 the same job list runs in this process instead, through
`biheyt.cli.main`, in pairs of passes: one plain, one with spans around
the public calls of each layer (see spans.py). The per-layer numbers come
from the traced passes; the plain ones give the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed
and the metrics that BENCHMARK.json names for the chosen --trace. The line
before it holds the run's environment and the percentile behind
verdict_tail_s. Both, and the spans of the last traced pass, are also
written under bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path[:0] = [str(SRC), str(BENCH)]

# Without sources in this checkout the imports fail and the run exits 1.
import biheyt  # noqa: E402
import biheyt.cli  # noqa: E402
import jobs  # noqa: E402
import spans  # noqa: E402

JOB_LIMIT_S = 150.0
# Times are scaled to a host on which a calibration process starts and
# exits in REFERENCE_START_S and does its work in REFERENCE_WORK_S.
REFERENCE_START_S = 0.06
REFERENCE_WORK_S = 0.25
CHECKPOINT_EVERY_S = 2.0
MIN_PASSES = 3
TAIL_LADDER = (99, 95, 90, 75)
TAIL_BEYOND = 10


@dataclass
class Child:
    seconds: float
    cpu_s: float
    rss_mb: float
    rc: int
    out: str
    err: str


def child_env() -> dict[str, str]:
    """This environment without BIHEYT_* caps or PYTHON* settings, with the
    checkout's sources on the path and a fixed hash seed."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("BIHEYT_")
           and not (k.startswith("PYTHON") and k != "PYTHONHOME")}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    return env


class Launcher:
    """launcher.py, which runs the CLI jobs one at a time in child_env()."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(BENCH / "launcher.py"), str(JOB_LIMIT_S)],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)

    def _run(self, args) -> Child:
        self.proc.stdin.write(json.dumps(args) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher exited")
        return Child(**json.loads(reply))

    def cli(self, argv) -> Child:
        return self._run(["-m", "biheyt.cli", *argv])

    def calibrate(self) -> tuple[float, float]:
        """(start-up, work) seconds of one calibration process: the
        oracle's fixed work as it times itself, and the rest of the
        process's life."""
        child = self._run([str(BENCH / "oracle.py")])
        work = float(child.out)
        return child.seconds - work, work

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def tail(samples: list[float]) -> tuple[int, float]:
    """(p, value) for the highest p of the ladder with at least ten samples
    above the nearest-rank p-th value; the median when no p has."""
    xs = sorted(samples)
    n = len(xs)
    for p in TAIL_LADDER:
        rank = -(-p * n // 100)
        if n - rank >= TAIL_BEYOND:
            return p, xs[rank - 1]
    return 50, statistics.median(xs)


def run_processes(job_list, seconds: float, launcher):
    """Passes of fresh processes until the time is up. Before a job,
    whenever CHECKPOINT_EVERY_S have gone since the last checkpoint, a
    checkpoint times the calibration and a fresh `--help`. At least
    MIN_PASSES passes run, so that the modal workload has the hundred
    jobs that its p90 tail needs."""
    passes, calibrations, setups = [], [], []
    launcher.cli(("--help",))  # fills the bytecode cache, as an install has it
    start = perf_counter()
    checkpoint = start - CHECKPOINT_EVERY_S
    while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
        children = []
        for job in job_list:
            if perf_counter() - checkpoint >= CHECKPOINT_EVERY_S:
                calibrations.append(launcher.calibrate())
                setups.append(launcher.cli(("--help",)))
                checkpoint = perf_counter()
            children.append(launcher.cli(job.argv))
        failures = jobs.check_pass(job_list, [(c.rc, c.out) for c in children])
        passes.append((children, failures))
    return passes, calibrations, setups


def end_to_end(job_list, seconds: float):
    """The host's speed drifts by a fifth over minutes, and process
    start-up and compute drift apart. Each job's time (and CPU time) up
    to the run's median set-up is scaled by REFERENCE_START_S over the
    median start-up of the calibration processes; the rest is scaled by
    REFERENCE_WORK_S over their median work. The raw values go in info."""
    with Launcher() as launcher:
        passes, calibrations, setups = run_processes(job_list, seconds, launcher)
    setup = statistics.median(c.seconds for c in setups)
    setup_cpu = statistics.median(c.cpu_s for c in setups)
    start_scale = REFERENCE_START_S / statistics.median(s for s, _ in calibrations)
    work_scale = REFERENCE_WORK_S / statistics.median(w for _, w in calibrations)

    def steady(value, start_up):
        return (min(value, start_up) * start_scale
                + max(value - start_up, 0.0) * work_scale)

    times = [steady(c.seconds, setup) for children, _ in passes for c in children]
    p, tail_value = tail(times)
    values = {
        "setup_s": setup * start_scale,
        "wall_s": statistics.median(sum(steady(c.seconds, setup) for c in children)
                                    for children, _ in passes),
        "verdict_p50_s": statistics.median(times),
        "verdict_tail_s": tail_value,
        "cpu_s": statistics.median(sum(steady(c.cpu_s, setup_cpu) for c in children)
                                   for children, _ in passes),
        "peak_rss_mb": max(c.rss_mb for children, _ in passes for c in children),
    }
    raw = [c.seconds for children, _ in passes for c in children]
    failures = [r for _, f in passes for r in f.values()]
    failures += [f"--help: exit code {c.rc}, stdout {c.out[:40]!r}" for c in setups
                 if c.rc != 0 or not c.out.startswith("usage: biheyt")]
    info = {"passes": len(passes), "jobs_per_pass": len(job_list),
            "verdict_samples": len(times), "tail_percentile": p,
            "setup_launches": len(setups), "calibrations": len(calibrations),
            "calibration_start_s": statistics.median(s for s, _ in calibrations),
            "calibration_work_s": statistics.median(w for _, w in calibrations),
            "calibration_samples": calibrations,
            "raw": {"setup_s": setup,
                    "wall_s": statistics.median(sum(c.seconds for c in children)
                                                for children, _ in passes),
                    "verdict_p50_s": statistics.median(raw),
                    "verdict_tail_s": tail(raw)[1],
                    "cpu_s": statistics.median(sum(c.cpu_s for c in children)
                                               for children, _ in passes)},
            "job_seconds": {" ".join(job.argv): [cs[i].seconds for cs, _ in passes]
                            for i, job in enumerate(job_list)}}
    return values, len(times) + len(setups), failures, info


def run_inprocess(job_list, tracer=None):
    """One pass through biheyt.cli.main in this process; (seconds, results)."""
    total = 0.0
    results = []
    for job in job_list:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            t0 = perf_counter()
            try:
                if tracer is None:
                    rc = biheyt.cli.main(list(job.argv))
                else:
                    rc = tracer.call("cli.main", biheyt.cli.main, list(job.argv))
            except SystemExit as stop:
                rc = stop.code if isinstance(stop.code, int) else 2
            total += perf_counter() - t0
        results.append((rc, out.getvalue()))
    return total, results


def layer_values(tracer) -> dict[str, float]:
    secs, c = tracer.seconds(), tracer.counts
    candidates = c["quotient.hom_candidates"]
    return {
        "lattice.enum_s": secs["lattice.enum"],
        "lattice.enum_count": c["lattice.enum_count"],
        "lattice.tables_s": secs["lattice.tables"],
        "spectrum.stone_s": secs["spectrum.stone"],
        "spectrum.prime_filters_s": secs["spectrum.prime_filters"],
        "spectrum.induced_s": secs["spectrum.induced"],
        "spectrum.induced_calls": c["spectrum.induced_calls"],
        "quotient.compose_s": secs["quotient.compose"],
        "quotient.compose_calls": c["quotient.compose_calls"],
        "quotient.homs_s": secs["quotient.homs"],
        "quotient.hom_candidates": candidates,
        "quotient.homs_found": c["quotient.homs_found"],
        "quotient.hom_yield": c["quotient.homs_found"] / candidates if candidates else 0.0,
        "topology.enum_s": secs["topology.enum"],
        "topology.enum_count": c["topology.enum_count"],
        "topology.algebra_s": secs["topology.algebra"],
        "duallogic.laws_s": secs["duallogic.laws"],
        "duallogic.cases": c["duallogic.cases"],
        "modal.s4_suite_s": secs["modal.s4_suite"],
        "modal.s4_valuations": c["modal.s4_valuations"],
        "modal.frames_enum_s": secs["modal.frames_enum"],
        "modal.frames_kept": c["modal.frames_kept"],
        "modal.search_space_s": secs["modal.search_space"],
        "modal.search_frame_s": secs["modal.search_frame"],
        "modal.search_algebra_s": secs["modal.search_algebra"],
        "modal.search_found": (c["modal.search_found"] / c["modal.searches"]
                               if c["modal.searches"] else 0.0),
        "formulas.parse_s": secs["formulas.parse"],
        "cli.self_s": tracer.self_seconds()["cli.main"],
        "trace.inprocess_s": secs["cli.main"],
    }


def per_layer(job_list, seconds: float, spans_path: Path):
    """Pairs of plain and traced in-process passes until the time is up."""
    for key in [k for k in os.environ if k.startswith("BIHEYT_")]:
        del os.environ[key]
    plain, traced, layers, failures = [], [], [], []
    tracer = None
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        total, results = run_inprocess(job_list)
        plain.append(total)
        failures += jobs.check_pass(job_list, results).values()
        tracer = spans.Tracer()
        with spans.instrument(tracer):
            total, results = run_inprocess(job_list, tracer)
        spans.force_tables(tracer)
        traced.append(total)
        failures += jobs.check_pass(job_list, results).values()
        layers.append(layer_values(tracer))
    values = {name: statistics.median(v[name] for v in layers) for name in layers[0]}
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    tracer.dump(spans_path)
    share = {
        "lattice.enum": values["lattice.enum_s"],
        "spectrum.induced+quotient.compose":
            values["spectrum.induced_s"] + values["quotient.compose_s"],
        "modal": sum(values[k] for k in ("modal.s4_suite_s", "modal.search_space_s",
                                         "modal.search_frame_s", "modal.search_algebra_s")),
    }
    info = {"pairs": len(traced), "jobs_per_pass": len(job_list),
            "share_of_inprocess": {k: v / values["trace.inprocess_s"]
                                   for k, v in share.items()}}
    return values, 2 * len(traced) * len(job_list), failures, info


def environment(workload: str, seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": workload, "seed": seed, "python": platform.python_version(),
            "git_sha": sha, "src_sha256": digest.hexdigest(), "nproc": os.cpu_count(),
            "cpu_model": cpu}


def make_jobs(workload: str, seed: int, scale):
    if workload == "stone":
        return jobs.stone_jobs(scale)
    if workload == "functoriality":
        return jobs.functoriality_jobs(scale)
    return jobs.modal_jobs(scale, seed)


def emit(values: dict, section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None, scale=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("stone", "functoriality", "modal"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if Path(biheyt.__file__).resolve().parent != SRC / "biheyt":
        print(f"bench: biheyt imported from {biheyt.__file__}, not {SRC}", file=sys.stderr)
        return 2
    job_list = make_jobs(args.workload, args.seed, scale or jobs.FULL)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        values, attempted, failures, info = per_layer(
            job_list, args.seconds, stem.with_suffix(".spans.json"))
        metrics = emit(values, "per_layer")
    else:
        values, attempted, failures, info = end_to_end(job_list, args.seconds)
        metrics = emit(values, "end_to_end")
    meta = {**environment(args.workload, args.seed), **info,
            "fail_frac": len(failures) / attempted, "failures": failures[:20]}
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    stem.with_suffix(".json").write_text(json.dumps({"meta": meta, **result}, indent=1))
    print(json.dumps({"meta": {k: v for k, v in meta.items()
                               if k not in ("job_seconds", "calibration_samples")}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
