"""The ledger of settable values: every knob a user can set.

One test enumerates every :class:`~repro.serve.ServeSpec` section field,
every :class:`~repro.pipeline.PipelineConfig` field, every option of the
``repro`` subcommand parsers (``repro lint``'s included) and every
``REPRO_*`` environment variable the sources name, and compares them
with ``settable_values.txt`` beside this file. Adding or removing a knob
then shows as an explicit diff to that list.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import re
from pathlib import Path

import repro.cli as cli
from repro.analysis.cli import build_lint_parser
from repro.pipeline import PipelineConfig
from repro.serve import ServeSpec

LEDGER = Path(__file__).with_name("settable_values.txt")
SRC = Path(__file__).resolve().parents[1] / "src"
ENV_NAME = re.compile(r"REPRO_[A-Z0-9_]+")


def _parser_options(parser: argparse.ArgumentParser) -> list[str]:
    return [
        f"flag {parser.prog} {'/'.join(action.option_strings)}"
        for action in parser._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
    ]


def _env_names() -> set[str]:
    """``REPRO_*`` names spelled as whole string literals under ``src/``
    (how the sources name the variables they read)."""
    names = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and ENV_NAME.fullmatch(node.value)
            ):
                names.add(node.value)
    return names


def settable_values() -> list[str]:
    """Every settable value, one ``<kind> <name>`` line each."""
    spec = ServeSpec()
    values = [
        f"spec {section.name}.{knob.name}"
        for section in dataclasses.fields(spec)
        for knob in dataclasses.fields(getattr(spec, section.name))
    ]
    values += [f"config {knob.name}" for knob in dataclasses.fields(PipelineConfig)]
    builders = [
        getattr(cli, name)
        for name in cli.__all__
        if name.startswith("build_") and name.endswith("parser")
    ]
    for build in [*builders, build_lint_parser]:
        values += _parser_options(build())
    values += [f"env {name}" for name in sorted(_env_names())]
    return values


def test_settable_values_match_the_ledger():
    listed = [
        line
        for line in LEDGER.read_text().splitlines()
        if line and not line.startswith("#")
    ]
    found = settable_values()
    assert len(set(found)) == len(found), "a value is enumerated twice"
    assert len(set(listed)) == len(listed), "a value is listed twice"
    added = sorted(set(found) - set(listed))
    removed = sorted(set(listed) - set(found))
    assert not added and not removed, (
        f"settable values changed; added: {added}; removed: {removed}. "
        f"Update {LEDGER.name} and say why in CHANGES.md."
    )
