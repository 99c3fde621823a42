"""README.md states what a user needs, and these tests keep it true.

Every ``module.attr`` it names resolves; every ``gme-sim`` line of its ``sh``
blocks runs, in order and in one temporary directory, with the exit code its
``# exit N`` comment gives; its synopsis lists exactly the subcommands and
flags of ``cli.build_parser()``; its exit-code table equals the ``cli.EXIT_*``
constants; and it stays at most 14 872 bytes, with no table cell over 600
characters.
"""

import argparse
import importlib
import re
import shlex
from pathlib import Path

import pytest

from gmesim import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
MODULES = ("qmath", "circuit", "photonic", "noise", "certify", "cli")
NAME = re.compile(rf"(?:gmesim\.)?({'|'.join(MODULES)})((?:\.[A-Za-z_]\w*)+)(?:\(.*\))?")


def _blocks(lang: str) -> list[list[str]]:
    """The lines of every fenced block of ``lang``."""
    return [body.splitlines() for body in re.findall(rf"^```{lang}\n(.*?)^```$", TEXT,
                                                     re.M | re.S)]


def _table_rows(text: str) -> list[list[str]]:
    """The cells of every markdown table row of ``text``, separator rows left out."""
    return [[c.strip() for c in line.strip()[1:-1].split(" | ")]
            for line in text.splitlines()
            if line.startswith("|") and not set(line) <= set("|-: ")]


def _section(title: str) -> str:
    return TEXT.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_size_and_table_cells_stay_small():
    assert len(TEXT.encode()) <= 14_872
    cells = [c for row in _table_rows(TEXT) for c in row]
    assert cells and max(map(len, cells)) <= 600


def test_every_named_attribute_resolves():
    names = sorted({m.group(1) + m.group(2) for span in re.findall(r"`([^`\n]+)`", TEXT)
                    if (m := NAME.fullmatch(span))})
    assert len(names) >= 30 and "certify.bootstrap" in names
    missing = []
    for name in names:
        obj = importlib.import_module(f"gmesim.{name.split('.')[0]}")
        for attr in name.split(".")[1:]:
            obj = getattr(obj, attr, missing)
        if obj is missing:
            missing.append(name)
    assert not missing


def test_every_example_runs_with_its_exit_code(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    examples = [line for block in _blocks("sh") for line in block if line.startswith("gme-sim ")]
    assert len(examples) >= 8
    codes = set()
    for line in examples:
        command, sep, code = line.partition("# exit ")
        assert sep and code.strip().isdigit(), f"no '# exit N' on: {line}"
        assert cli.main(shlex.split(command)[1:]) == int(code), line
        codes.add(int(code))
    assert codes == {cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_NO_CONVERGENCE, cli.EXIT_VERIFICATION}


def _flags(parser: argparse.ArgumentParser) -> set:
    return {s for a in parser._actions for s in a.option_strings if s.startswith("--")} - {"--help"}


def test_synopsis_lists_the_parsers_subcommands_and_flags():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    (synopsis,) = _blocks("text")
    assert all(line.startswith("gme-sim ") for line in synopsis)
    head, *lines = [line.split(" ", 1)[1] for line in synopsis]
    assert set(re.findall(r"--[a-z][a-z-]*", head)) == _flags(parser)
    listed = {line.split(" ", 1)[0]: line for line in lines}
    assert len(listed) == len(lines) and listed.keys() == sub.choices.keys()
    for command, line in listed.items():
        assert set(re.findall(r"--[a-z][a-z-]*", line)) == _flags(sub.choices[command]), command
        for action in sub.choices[command]._actions:
            if action.choices:
                assert f"{action.option_strings[0]} {'|'.join(action.choices)}" in line, command


def test_exit_code_table_equals_the_cli_constants():
    stated = {row[1].strip("`"): int(row[0]) for row in _table_rows(_section("Exit codes"))
              if row[0].isdigit()}
    assert stated == {f"cli.{k}": v for k, v in vars(cli).items() if k.startswith("EXIT_")}
