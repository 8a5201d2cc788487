"""Checks over the layout of the package source."""

import argparse
import ast
import dataclasses
import inspect
import re
from pathlib import Path

import pytest

import radiant
from radiant.cli import build_parser
from radiant.octree import LodConfig
from radiant.projmaps import SemanticMapConfig
from radiant.render import RenderConfig

PACKAGE = Path(radiant.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_at_module_level(path):
    """An import inside a function would hide an import cycle: io reads specs
    into the classes of fields (through octree too), so fields must stay
    free of io."""
    tree = ast.parse(path.read_text())
    nested = [f"{path.name}:{node.lineno}"
              for fn in ast.walk(tree)
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
              for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not nested, f"imports inside functions: {nested}"


@pytest.mark.parametrize("config", [LodConfig, RenderConfig, SemanticMapConfig],
                         ids=lambda c: c.__name__)
def test_cli_sets_every_config_field(config):
    """The CLI reads its defaults from these configs, so a field it never
    passes by keyword is a knob no caller sets."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    passed = {kw.arg for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == config.__name__
              for kw in node.keywords}
    fields = {f.name for f in dataclasses.fields(config)}
    assert fields <= passed, f"{config.__name__} fields cli.py never sets: {fields - passed}"


def test_cli_reads_every_flag():
    """A flag whose subcommand function never reads args.<dest> is accepted
    and then ignored."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    unread = []
    for name, parser in sub.choices.items():
        source = inspect.getsource(parser.get_default("func"))
        unread += [f"{name} {action.option_strings[0]}" for action in parser._actions
                   if action.dest != "help"
                   and not re.search(rf"\bargs\.{action.dest}\b", source)]
    assert not unread, f"flags their subcommand never reads: {unread}"
