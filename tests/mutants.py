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
    Mutant(
        "diamond-without-inner-complement",
        "biheyt/modal.py",
        "box([full ^ a for a in vals[node[1]]], full)",
        "box(vals[node[1]], full)",
        ("tests/test_modal.py::test_sliced_core_matches_topo_eval",),
    ),
    Mutant(
        "diamond-without-outer-complement",
        "biheyt/modal.py",
        "value = [full ^ a for a in box(",
        "value = [a for a in box(",
        ("tests/test_modal.py::test_sliced_core_matches_topo_eval",),
    ),
    Mutant(
        "pullback-tests-the-source-point",
        "biheyt/bitsets.py",
        "if (mask >> y) & 1:",
        "if (mask >> x) & 1:",
        ("tests/test_spectrum.py::test_pullback_matches_its_definition",),
    ),
    Mutant(
        "minus-table-not-transposed",
        "biheyt/lattice.py",
        "return tuple(zip(*_residuals(dualize(self))))",
        "return _residuals(dualize(self))",
        ("tests/test_lattice.py::test_implies_against_max_candidate_oracle",),
    ),
    Mutant(
        "induced-map-default-repr",
        "biheyt/spectrum.py",
        "    def __repr__(self):\n"
        "        return (\n"
        '            f"InducedMap(point_map={self.point_map}, continuous={self.continuous}, "\n'
        '            f"identity_ok={self.identity_ok})"\n'
        "        )\n",
        "",
        ("tests/test_modal.py::test_value_types_keep_their_reprs_hash_and_equality",),
    ),
    Mutant(
        "two-valued-candidates-reversed",
        "biheyt/quotient.py",
        "for f in filters(lat):",
        "for f in reversed(filters(lat)):",
        ("tests/test_quotient.py::test_two_valued_homs_match_the_labelling_scan",),
    ),
    Mutant(
        "read-ignores-choices",
        "biheyt/cli.py",
        'if token in given or "choices" in kw and value not in kw["choices"]:',
        "if token in given:",
        ("tests/test_cli_parser.py::test_direct_reader_leaves_the_rest_to_argparse",),
    ),
    Mutant(
        "read-ignores-required-options",
        "biheyt/cli.py",
        'else kw.get("required") and key not in given for key',
        "else False for key",
        ("tests/test_cli_parser.py::test_direct_reader_leaves_the_rest_to_argparse",),
    ),
    Mutant(
        "read-takes-a-repeated-option",
        "biheyt/cli.py",
        'if token in given or "choices" in kw and value not in kw["choices"]:',
        'if "choices" in kw and value not in kw["choices"]:',
        ("tests/test_cli_parser.py::test_direct_reader_leaves_the_rest_to_argparse",),
    ),
    Mutant(
        "main-drops-the-cap-field-check",
        "biheyt/cli.py",
        '            _capped(getattr(args, cap_field), cap_field.replace("_", "-"))\n',
        "            pass\n",
        ("tests/test_cli.py::test_env_cap",),
    ),
    Mutant(
        "read-takes-a-dashed-value",
        "biheyt/cli.py",
        'if kw is None or at == len(argv) or argv[at].startswith("-"):',
        "if kw is None or at == len(argv):",
        ("tests/test_cli_parser.py::test_direct_reader_leaves_the_rest_to_argparse",),
    ),
    Mutant(
        "read-takes-an-empty-group",
        "biheyt/cli.py",
        "len(given.intersection(key)) != 1",
        "len(given.intersection(key)) > 1",
        ("tests/test_cli_parser.py::test_direct_reader_leaves_the_rest_to_argparse",),
    ),
    Mutant(
        "read-takes-both-group-members",
        "biheyt/cli.py",
        "len(given.intersection(key)) != 1",
        "len(given.intersection(key)) < 1",
        ("tests/test_cli_parser.py::test_direct_reader_leaves_the_rest_to_argparse",),
    ),
    Mutant(
        "search-skips-a-failing-count",
        "biheyt/modal.py",
        "all(refute(rep) is None for rep in reps)",
        "all(refute(rep) is not None for rep in reps)",
        ("tests/test_modal.py::test_frame_search_matches_reference_on_small_formulas"
         "[reflexive,transitive]",
         "tests/test_modal.py::test_search_matches_reference_on_four_points[s4-frame]"),
    ),
    Mutant(
        "search-answers-from-the-class-representative",
        "biheyt/modal.py",
        "for structure in labelled:",
        "for structure in count(points)[0] or labelled:",
        ("tests/test_modal.py::test_frame_search_matches_reference_on_small_formulas"
         "[reflexive,transitive]",
         "tests/test_modal.py::test_search_matches_reference_on_four_points[s4-frame]"),
    ),
    Mutant(
        "closure-combines-with-one-known-value",
        "biheyt/modal.py",
        "known = fresh[:], list(seen.values())",
        "known = fresh[:], list(seen.values())[:1]",
        ("tests/test_modal.py::test_agreement_closure_matches_the_round_by_round_loop",),
    ),
    Mutant(
        "closure-never-applies-box-or-diamond",
        "biheyt/modal.py",
        "for wrap in (neg, box, dia):",
        "for wrap in (neg,):",
        ("tests/test_modal.py::test_agreement_closure_matches_the_round_by_round_loop",),
    ),
    Mutant(
        "twin-weight-ignores-the-group-size",
        "biheyt/lattice.py",
        "extend(done | 1 << x, weight * len(group))",
        "extend(done | 1 << x, weight)",
        ("tests/test_topology.py::test_twin_groups_keep_the_branching_form",),
    ),
    Mutant(
        "twin-key-without-the-down-set",
        "biheyt/lattice.py",
        "twins.setdefault(below[x], [])",
        "twins.setdefault(0, [])",
        ("tests/test_topology.py::test_twin_groups_keep_the_branching_form",),
    ),
    Mutant(
        "block-row-holds-one-point-of-its-block",
        "biheyt/lattice.py",
        "row = ((1 << size[x]) - 1) << p",
        "row = 1 << p",
        ("tests/test_topology.py::test_lex_min_form_is_the_least_expanded_preorder",),
    ),
    Mutant(
        "hom-count-in-the-wrong-direction",
        "biheyt/cli.py",
        "count_continuous_maps(spectra[j].space, spectra[i].space)",
        "count_continuous_maps(spectra[i].space, spectra[j].space)",
        ("tests/test_cli.py::test_verify_functoriality",),
    ),
    Mutant(
        "empty-space-counted-as-no-maps",
        "biheyt/topology.py",
        "    maps = [()]\n",
        "    maps = [()] if rows else []\n",
        ("tests/test_topology.py::test_count_continuous_maps_matches_the_product",),
    ),
    Mutant(
        "enumerate-homs-drops-its-last-hom",
        "biheyt/quotient.py",
        "return [LatticeHom(source, target, m, flavor) for m in sorted(maps)]",
        "return [LatticeHom(source, target, m, flavor)"
        " for m in sorted(maps)][:max(1, len(maps) - 1)]",
        ("tests/test_cli.py::test_verify_functoriality",),
    ),
    Mutant(
        "hom-leaf-check-drops-the-join-table",
        "biheyt/quotient.py",
        "elif not _rows_kept(maps, source, target, names):",
        "elif not _rows_kept(maps, source, target, names[:1]):",
        ("tests/test_quotient.py::"
         "test_enumerate_homs_matches_the_product_enumerator_into_m3_n5_and_relabellings",),
    ),
    Mutant(
        "induced-continuity-against-the-source-opens",
        "biheyt/spectrum.py",
        "    continuous = opens.issuperset(preimages)",
        "    continuous = _spectrum_tables(source_spec)[3].issuperset(preimages)",
        ("tests/test_spectrum.py::test_induced_map_matches_the_pullback_route",),
    ),
    Mutant(
        "glivenko-shortcut-on-every-intuitionistic-formula",
        "biheyt/modal.py",
        'semantics == "intuitionistic" and phi.kind == "not"',
        'semantics == "intuitionistic"',
        ("tests/test_modal.py::test_one_point_decides_only_the_glivenko_routes",),
    ),
    Mutant(
        "glivenko-shortcut-on-the-classical-route",
        "biheyt/modal.py",
        'one_point = semantics == "dual" or',
        'one_point = semantics in ("dual", "classical") or',
        ("tests/test_modal.py::test_one_point_decides_only_the_glivenko_routes",),
    ),
    Mutant(
        "hom-count-never-reports",
        "biheyt/cli.py",
        "if len(ims) != by_duality:",
        "if False:",
        ("tests/test_cli.py::test_functoriality_counts_the_homs_of_every_pair",),
    ),
    Mutant(
        "walk-swaps-the-none-test",
        "biheyt/cli.py",
        "if spec_gf is None:",
        "if spec_gf is not None:",
        ("tests/test_cli.py::test_functoriality_reports_a_composite_missing_from_the_homs",),
    ),
    Mutant(
        "preimage-check-never-fails",
        "biheyt/cli.py",
        "                    preimages_ok = False\n",
        "                    preimages_ok = True\n",
        ("tests/test_cli.py::test_functoriality_reports_a_corrupted_point_map",),
    ),
    Mutant(
        "suite-cap-hard-coded",
        "biheyt/cli.py",
        "if points > topology.MAX_SUITE_POINTS:",
        "if points > 5:",
        ("tests/test_modal.py::test_verify_s4_reads_the_suite_cap_when_it_runs",),
    ),
    Mutant(
        "hom-cap-hard-coded",
        "biheyt/cli.py",
        "if args.max_size > cap:",
        "if args.max_size > 8:",
        ("tests/test_modal.py::test_verify_functoriality_reads_the_hom_cap_when_it_runs",),
    ),
    Mutant(
        "record-replace-ignores-its-arguments",
        "biheyt/records.py",
        "return _new(type(self), values)",
        "return _new(type(self), self)",
        ("tests/test_records.py::test_replace_changes_only_the_named_fields",),
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
