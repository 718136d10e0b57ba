"""How the CLI reads argv and writes JSON records.

- The argparse tree that cli._argparser builds from the command table
  gives the hand-written reference tree's help (reference_argparser.py)
  byte for byte at every level, and the same namespace, or the same
  exit code, stdout and stderr, on every golden transcript argv and on
  drawn argv.
- cli._read, which reads a well-formed argv without argparse, returns
  None or argparse's namespace; it reads every golden and bench argv.
- cli._json writes what json.dumps(x, sort_keys=True) writes.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import reference_argparser  # noqa: E402
from biheyt import cli  # noqa: E402
from test_golden import commands  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import jobs  # noqa: E402

GOLDEN_ARGV = [argv for group in commands().values() for argv in group]
BENCH_ARGV = [list(job.argv) for job in
              [*jobs.stone_jobs(jobs.FULL), *jobs.functoriality_jobs(jobs.FULL),
               *(job for seed in range(20) for job in jobs.modal_jobs(jobs.FULL, seed))]]


@pytest.fixture(autouse=True, scope="module")
def columns_80():
    """argparse wraps help to the terminal width, which it reads from COLUMNS."""
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        yield


@pytest.fixture(scope="module")
def parsers(columns_80):
    return reference_argparser._build_parser(), cli._argparser()


def _behaviour(func):
    """A handler as two trees can share it: a named one is itself; the
    lambda of `space opens|closeds` is the `closed` flag it passes on."""
    if func.__name__ != "<lambda>":
        return func
    seen = []

    def spy(args, out, closed):
        seen.append(closed)

    with mock.patch.object(cli, "_space_algebra", spy), \
            mock.patch.object(reference_argparser, "_space_algebra", spy):
        func(None, None)
    return "_space_algebra", seen


def _namespace(ns) -> dict:
    fields = dict(vars(ns))
    if "func" in fields:
        fields["func"] = _behaviour(fields["func"])
    return fields


def _parse(parser, argv):
    """(namespace fields, exit code, stdout, stderr) of parse_args."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            fields, code = _namespace(parser.parse_args(argv)), None
        except SystemExit as exc:
            fields, code = None, exc.code
    return fields, code, out.getvalue(), err.getvalue()


def _tree(parser, words=()):
    yield words, parser
    for action in parser._actions:
        if isinstance(action.choices, dict):  # a subparsers action
            for word, sub in action.choices.items():
                yield from _tree(sub, (*words, word))


def test_argv_counts():
    assert (len(GOLDEN_ARGV), len(BENCH_ARGV)) == (590, 682)


def test_table_tree_gives_the_reference_help_at_every_level(parsers):
    reference, table = (dict(_tree(p)) for p in parsers)
    assert list(table) == list(reference)
    assert set(table) == set(cli._COMMANDS)
    for words, parser in reference.items():
        assert table[words].format_help() == parser.format_help(), words


def test_table_tree_parses_each_golden_argv_as_the_reference(parsers):
    reference, table = parsers
    for argv in GOLDEN_ARGV:
        assert _parse(table, argv) == _parse(reference, argv), argv


@pytest.mark.parametrize("argvs", [GOLDEN_ARGV, BENCH_ARGV], ids=["golden", "bench"])
def test_direct_reader_reads_each_golden_and_bench_argv_as_argparse(parsers, argvs):
    for argv in argvs:
        read = cli._read(argv)
        assert read is not None, argv
        assert vars(read) == vars(parsers[1].parse_args(argv)), argv


def test_direct_reader_leaves_the_rest_to_argparse():
    well_formed = ["verify", "stone", "--max-size", "3"]
    assert cli._read(well_formed) is not None
    for argv in (
        [], ["--help"], ["verify"], ["verify", "stone", "-h"],
        ["verify", "stone", "--max", "3"], ["verify", "stone", "--max-size=3"],
        ["verify", "stone", "--max-size", "3", "--max-size", "3"],
        ["verify", "stone", "--max-size", "0"], ["verify", "stone", "--max-size", "-1"],
        ["verify", "stone", "--max-size"], ["verify", "stone", "x"],
        ["verify", "stone", "--", "--max-size", "3"], ["--format", "xml", "verify", "stone"],
        ["verify", "--format", "json", "stone"], ["verify", "stone", "--format", "json"],
        ["search"], ["search", "--formula", "p", "--semantics", "modal"],
        ["search", "--formula", "-p"], ["search", "--formula", "-h"],
        ["search", "--formula", "--"], ["search", "--formula", "p", "--require", "-1"],
        ["lattice", "quotient", "x"], ["lattice", "quotient", "--by-ideal", "1"],
        ["lattice", "quotient", "x", "--by-ideal", "1", "--by-filter", "1"],
        ["lattice", "check", "x", "y"], ["lattice", "check", "-"],
    ):
        assert cli._read(argv) is None, argv


# -- drawn argv ------------------------------------------------------------------


def _flags(options) -> dict:
    return {flag: kw for key, kw in options.items() if key != "path"
            for flag in (key if isinstance(key, tuple) else (key,))}


WORDS = sorted({word for words in cli._COMMANDS for word in words})
FLAGS = sorted({flag for _, options, _ in cli._COMMANDS.values() for flag in _flags(options)}
               | {"-h", "--help"})
ODD = st.sampled_from(["-1", "--", "", "-h", "-p", "- p"])
VALUES = ODD | st.sampled_from(["3", "0", "p", "p=1", "!!p -> p", "chain3", "example1", "0,1",
                                "json", "human", "frame", "dual", "auto", "w0", "check"])
TOKENS = st.one_of(
    st.sampled_from(WORDS), st.sampled_from(FLAGS), VALUES,
    st.tuples(st.sampled_from(FLAGS), st.integers(3, 8)).map(lambda t: t[0][:t[1]]),
    st.tuples(st.sampled_from(FLAGS), VALUES).map("=".join),
)


def _pair(flag, kw):
    """A flag of the command with a value, mostly of the kind it takes."""
    fitting = st.sampled_from(kw.get("choices", ("3", "p", "0,1")))
    return st.tuples(st.just(flag), st.one_of(fitting, fitting, ODD, VALUES))


LEAVES = sorted(words for words, row in cli._COMMANDS.items() if "func" in row[2])
MOSTLY = st.sampled_from([True, True, True, False])
SELDOM = st.sampled_from([True, False, False, False])


@settings(max_examples=1000, deadline=None)
@given(
    data=st.data(),
    fmt=st.sampled_from([[], [], ["--format", "json"], ["--format", "human"], ["--format"]]),
    words=st.sampled_from(LEAVES) | st.sampled_from(sorted(cli._COMMANDS)),
    required=MOSTLY,
    path=MOSTLY,
    repeat=SELDOM,
    shuffle=SELDOM,
    strays=SELDOM.flatmap(lambda some: st.lists(TOKENS, min_size=some, max_size=2 * some)),
)
def test_direct_reader_agrees_with_argparse_on_drawn_argv(
        parsers, data, fmt, words, required, path, repeat, shuffle, strays):
    """Drawn argv: distinct flags of the command, each with a fitting or
    a stray value; when `required`, every required option and one
    member of each required group too; when `path`, a path if the
    command takes one; when `repeat`, the first flag twice; then stray
    tokens (command words, flags, abbreviated or `=`-joined,
    and values such as -1, --, '' and -h), the tail shuffled or not."""
    _, options, _ = cli._COMMANDS[words]
    flags = _flags(options) or {flag: {} for flag in FLAGS}
    chosen = data.draw(st.lists(st.sampled_from(sorted(flags)), max_size=3, unique=True))
    if required:
        for key, kw in options.items():
            if isinstance(key, tuple) and not set(key) & set(chosen):
                chosen.append(data.draw(st.sampled_from(key)))
            elif kw.get("required") and key not in chosen:
                chosen.append(key)
    if repeat and chosen:
        chosen.append(chosen[0])
    tail = [token for flag in chosen for token in data.draw(_pair(flag, flags[flag]))]
    if path and "path" in options:
        tail.append("x")
    tail += strays
    if shuffle:
        tail = data.draw(st.permutations(tail))
    argv = [*fmt, *words, *tail]
    reference, table = parsers
    parsed = _parse(table, argv)
    assert parsed == _parse(reference, argv)
    read = cli._read(argv)
    if read is not None:
        assert parsed[1:] == (None, "", "")
        assert _namespace(read) == parsed[0]


JSON_TEXT = st.text(st.characters(blacklist_categories=()))  # lone surrogates too
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | JSON_TEXT,
    lambda sub: st.one_of(
        st.lists(sub, max_size=4), st.lists(sub, max_size=4).map(tuple),
        st.dictionaries(JSON_TEXT, sub, max_size=4),
        st.dictionaries(st.integers(0, 30) | st.integers(), sub, max_size=6),
    ),
    max_leaves=16,
)


@settings(max_examples=500, deadline=None)
@given(JSON_VALUES)
def test_json_writer_matches_json_dumps(value):
    assert cli._json(value) == json.dumps(value, sort_keys=True)


def test_json_writer_escapes_as_ensure_ascii():
    text = "\x00\x1f\x7f\"\\/\b\f\n\r\t é \ud800\U0001f600"
    assert cli._json({text: (text, None)}) == json.dumps({text: (text, None)})
    # int keys sort as numbers, not as the strings they are written as
    assert cli._json({10: 0, 9: 1}) == json.dumps({10: 0, 9: 1}, sort_keys=True) \
        == '{"9": 1, "10": 0}'


@pytest.mark.parametrize("value", [1.5, {1}, [0.0], {"a": {2}}, {1.5: 0}, {True: 0},
                                   {(1,): 0}, frozenset()])
def test_json_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        cli._json(value)
