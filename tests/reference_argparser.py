"""The hand-written argparse tree that biheyt's command table replaced,
kept verbatim as the reference the table-built parser must reproduce
(tests/test_cli_parser.py): the same help bytes, namespaces and usage
errors."""

import argparse
import sys

from biheyt.cli import (
    BUILTINS,
    _at_least_one,
    _cmd_eval,
    _cmd_lattice_check,
    _cmd_lattice_quotient,
    _cmd_lattice_spectrum,
    _cmd_modal_eval,
    _cmd_modal_search,
    _cmd_modal_valid,
    _cmd_space_check,
    _cmd_verify_dual_laws,
    _cmd_verify_functoriality,
    _cmd_verify_s4,
    _cmd_verify_stone,
    _space_algebra,
)


class _Parser(argparse.ArgumentParser):
    """argparse ignores an OSError from writing help or usage; a closed
    stdout is let through, so it exits 2 like any other command."""

    def _print_message(self, message, file=None):
        if file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="biheyt",
        description="finite Heyting/co-Heyting algebras, Stone spectra, "
                    "and S4 model checking",
    )
    parser.add_argument("--format", choices=("human", "json"), default="human")
    sub = parser.add_subparsers(dest="command", required=True)

    lat = sub.add_parser("lattice", help="lattice file operations")
    lat_sub = lat.add_subparsers(dest="subcommand", required=True)
    p = lat_sub.add_parser("check", help="validate a lattice file")
    p.add_argument("path")
    p.set_defaults(func=_cmd_lattice_check)
    p = lat_sub.add_parser("spectrum", help="prime filter spectrum")
    p.add_argument("path")
    p.set_defaults(func=_cmd_lattice_spectrum)
    p = lat_sub.add_parser("quotient", help="quotient by an ideal or filter")
    p.add_argument("path")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--by-ideal", metavar="ELEMENTS")
    grp.add_argument("--by-filter", metavar="ELEMENTS")
    p.set_defaults(func=_cmd_lattice_quotient)

    spc = sub.add_parser("space", help="topology file operations")
    spc_sub = spc.add_subparsers(dest="subcommand", required=True)
    p = spc_sub.add_parser("check", help="validate a space file")
    p.add_argument("path")
    p.set_defaults(func=_cmd_space_check)
    p = spc_sub.add_parser("opens", help="open-set Heyting algebra")
    p.add_argument("path")
    p.set_defaults(func=lambda a, o: _space_algebra(a, o, closed=False))
    p = spc_sub.add_parser("closeds", help="closed-set co-Heyting algebra")
    p.add_argument("path")
    p.set_defaults(func=lambda a, o: _space_algebra(a, o, closed=True))

    ver = sub.add_parser("verify", help="exhaustive law suites")
    ver_sub = ver.add_subparsers(dest="subcommand", required=True)
    p = ver_sub.add_parser("dual-laws", help="De Morgan, LEM, boundary laws")
    p.add_argument("--points", type=_at_least_one, default=3)
    p.set_defaults(func=_cmd_verify_dual_laws, cap_field="points")
    p = ver_sub.add_parser("stone", help="spectra are isomorphisms")
    p.add_argument("--max-size", type=_at_least_one, default=5)
    p.set_defaults(func=_cmd_verify_stone)
    p = ver_sub.add_parser("functoriality", help="induced maps compose contravariantly")
    p.add_argument("--max-size", type=_at_least_one, default=4)
    p.set_defaults(func=_cmd_verify_functoriality)
    p = ver_sub.add_parser("s4", help="the five S4 schemas on all small spaces")
    p.add_argument("--points", type=_at_least_one, default=3)
    p.set_defaults(func=_cmd_verify_s4, cap_field="points")

    mod = sub.add_parser("modal", help="Kripke / topological evaluation")
    mod_sub = mod.add_subparsers(dest="subcommand", required=True)
    p = mod_sub.add_parser("eval", help="evaluate at a world")
    p.add_argument("--model", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--world")
    p.add_argument("--assign", action="append", metavar="ATOM=SUBSET",
                   help="atom values when the input is a space")
    p.set_defaults(func=_cmd_modal_eval)
    p = mod_sub.add_parser("valid", help="validity in a model or frame")
    p.add_argument("--model", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--alphabet", help="check frame validity over these atoms")
    p.set_defaults(func=_cmd_modal_valid)

    p = sub.add_parser("search", help="bounded countermodel search")
    p.add_argument("--formula", required=True)
    p.add_argument(
        "--semantics",
        choices=("classical", "intuitionistic", "dual", "frame"),
        default="classical",
    )
    p.add_argument("--max-points", type=_at_least_one, default=3)
    p.add_argument("--require", help="frame properties, e.g. reflexive,transitive")
    p.set_defaults(func=_cmd_modal_search, cap_field="max_points")

    p = sub.add_parser("eval", help="algebra-valued formula evaluation")
    p.add_argument("--algebra", required=True,
                   help=f"lattice/space file or one of {', '.join(BUILTINS)}")
    p.add_argument("--formula", required=True)
    p.add_argument("--assign", action="append", metavar="ATOM=VALUE")
    p.add_argument("--semantics", choices=("auto", "intuitionistic", "dual"),
                   default="auto")
    p.set_defaults(func=_cmd_eval)

    return parser
