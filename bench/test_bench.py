"""Self-test of the benchmark at tiny bounds: stone 5, functoriality 4,
S4 on 3 points.

    python3 -m pytest bench/test_bench.py
"""

import io
import json
import sys
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (puts the checkout's src/ on the path first)
import jobs  # noqa: E402
import oracle  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main([*argv, "--seed", "0", "--seconds", "0"], scale=jobs.TINY) == 0
    meta, result = (json.loads(line) for line in out.getvalue().splitlines()[-2:])
    return meta["meta"], result


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace, section):
    meta, result = _bench("--workload", workload, "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert meta["fail_frac"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("tamper", [
    lambda job: replace(job, pins={**job.pins, "lattices": job.pins["lattices"] + 1}),
    lambda job: replace(job, rc=1),
])
def test_wrong_pin_or_exit_code_raises_fail_frac(monkeypatch, tamper):
    good = jobs.stone_jobs(jobs.TINY)
    monkeypatch.setattr(run, "make_jobs", lambda *_: [good[0], tamper(good[0])])
    meta, result = _bench("--workload", "stone", "--trace", "0")
    assert not result["correct"]
    assert result["failed"] == meta["passes"]  # the tampered job, once per pass
    assert meta["fail_frac"] == result["failed"] / result["attempted"] > 0


def test_false_witness_and_route_disagreement_are_failures():
    modal = jobs.modal_jobs(jobs.TINY, 0)
    schema_frame = next(job for job in modal if job.route == "frame" and job.rc == 0)
    fake = {"record": "search", "found": True, "point": 0,
            "structure": {"worlds": 1, "edges": [[0, 0]]},
            "valuation": {"p": [], "q": []}}
    failures = jobs.check_pass([replace(schema_frame, rc=1)], [(1, json.dumps(fake))])
    assert "countermodel holds" in failures[0]

    space, frame = next((a, b) for a, b in zip(modal, modal[1:])
                        if a.route == "space" and a.rc == 1 and b.pair == a.pair)
    _, results = run.run_inprocess([space, frame])
    assert jobs.check_pass([space, frame], results) == {}
    not_found = (0, json.dumps({"record": "search", "found": False}))
    failures = jobs.check_pass([replace(space, rc=0), frame], [not_found, results[1]])
    assert list(failures) == [1] and "disagree" in failures[1]


def test_same_seed_gives_the_same_modal_jobs():
    assert jobs.modal_jobs(jobs.TINY, 7) == jobs.modal_jobs(jobs.TINY, 7)
    assert jobs.modal_jobs(jobs.TINY, 7) != jobs.modal_jobs(jobs.TINY, 8)


def test_hom_oracle_matches_known_counts():
    assert [len(lats) for lats in map(oracle.distributive_lattices, (4, 5))] == [5, 8]
    assert oracle.hom_oracle(5) == (381, 24508)
