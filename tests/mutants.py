"""A standing catalogue of mutants, each of which named tests must kill.

Usage: python tests/mutants.py [ID ...]   (every mutant when no ID is given)

For each mutant the runner copies src/ to a temporary directory, replaces
the entry's old text, which must occur exactly once in its file, with the
new text, and runs

    python -m pytest -x -q -p no:cacheprovider <nodes>

from the repository root with the copy first on PYTHONPATH. The mutant is
killed only when pytest exits 1, that is, when a test failed. A pass, an
error at collection time (exit 2) or a node that does not exist (exit 4)
is a survivor, and old text that no longer occurs once is stale. The run
exits 0 when every mutant selected is killed, and 1 otherwise.

The file has no test_ prefix, so the tier-1 suite does not collect it.
Each entry records a mutation check that a change made, so that a later
refactor cannot make its test vacuous unseen.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    id: str
    src: str  # path under src/
    old: str
    new: str
    nodes: tuple[str, ...]  # pytest node ids, from the repository root


MUTANTS = (
    Mutant(
        "residuals-without-up-closure",
        "biheyt/lattice.py",
        "memo[gap] = element[irr & ~upper]",
        "memo[gap] = element[irr & ~gap]",
        ("tests/test_lattice.py::test_residual_tables_match_the_fold",),
    ),
    Mutant(
        "prime-test-folds-the-filter",
        "biheyt/spectrum.py",
        "(filt.members >> lat._join_of(rest)) & 1",
        "(filt.members >> lat._join_of(filt.members)) & 1",
        ("tests/test_spectrum.py::test_prime_test_matches_the_pair_loop",),
    ),
    Mutant(
        "open-implication-reads-the-interior-argument",
        "biheyt/spectrum.py",
        "if not m & u & ~v)",
        "if not m & (~u | v))",
        ("tests/test_spectrum.py::test_open_implication_matches_the_interior",),
    ),
    Mutant(
        "closure-queues-only-meets",
        "biheyt/quotient.py",
        "            work += zip(lat.join[a], lat.join[b])\n",
        "",
        ("tests/test_quotient.py::test_worklist_closure_matches_the_sweep",),
    ),
    Mutant(
        "from-preorder-keeps-transposed-rows",
        "biheyt/topology.py",
        "space.min_open = tuple(pre.rel)",
        "space.min_open = tuple(sum(((r >> x) & 1) << y for y, r in enumerate(pre.rel))"
        " for x in range(pre.points))",
        ("tests/test_topology.py::test_min_open_is_the_smallest_open_neighbourhood",),
    ),
)


def run_mutant(mutant: Mutant) -> tuple[bool, str]:
    """Apply one mutant to a copy of src/ and run its nodes; (killed, note)."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / mutant.src
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return False, f"stale: old text occurs {text.count(mutant.old)} times in {mutant.src}"
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.nodes],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
    if proc.returncode == 1:
        return True, "killed"
    tail = proc.stdout.strip().splitlines()[-1:] or [""]
    return False, f"survived: pytest exited {proc.returncode} ({tail[0]})"


def main(argv: list[str]) -> int:
    known = {m.id for m in MUTANTS}
    unknown = [a for a in argv if a not in known]
    if unknown:
        print(f"unknown mutant id(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    survivors = 0
    for mutant in MUTANTS:
        if argv and mutant.id not in argv:
            continue
        start = time.perf_counter()
        killed, note = run_mutant(mutant)
        survivors += not killed
        print(f"{mutant.id}: {note} ({time.perf_counter() - start:.1f} s)", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
