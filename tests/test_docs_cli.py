"""Docs ↔ CLI consistency: every ``repro <cmd>`` the docs name must exist.

README.md and OPERATIONS.md are full of copy-pasteable command lines,
and PERFORMANCE.md and DESIGN.md name commands too; a renamed or
removed subcommand or ``--flag`` must fail CI here rather than silently
rotting the docs.  The check parses the real parser tree
out of ``repro.cli.build_parser`` and compares it against every ``repro ...``
invocation found in the docs' code spans (fenced blocks and inline
backticks — prose is ignored to avoid false matches).
"""

from __future__ import annotations

import argparse
import re
from pathlib import Path

import pytest

from repro.cli import build_parser

REPO_ROOT = Path(__file__).resolve().parents[1]
DOC_FILES = ("README.md", "OPERATIONS.md")
#: Every doc whose ``repro ...`` invocations are checked against the parser.
CLI_CHECKED_DOCS = DOC_FILES + ("PERFORMANCE.md", "DESIGN.md")

_WORD = re.compile(r"^[a-z][a-z-]*$")
#: Shell tokens that end one ``repro`` invocation on a command line.
_SHELL_BREAK = re.compile(r"^(?:\||\|\||&&?|;|#.*|[0-9]*>.*|<.*)$")
_INVOCATION = re.compile(
    r"(?:python -m )?\brepro\s+((?:[a-z][a-z-]*|--?\S+|\S+)"
    r"(?:[ \t]+\S+)*)"
)


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    return {}


def command_tree() -> dict:
    """``{command: {subcommand, ...}}`` straight from the real parser."""
    tree = {}
    for name, sub in _subcommands(build_parser()).items():
        tree[name] = set(_subcommands(sub))
    return tree


def _code_spans(text: str):
    """Fenced code blocks plus inline backtick spans, fences first."""
    parts = text.split("```")
    for i, part in enumerate(parts):
        if i % 2 == 1:  # inside a fence
            yield part
        else:
            yield from re.findall(r"`([^`\n]+)`", part)


def _doc_invocations(path: Path):
    """(command, subcommand-or-None, --flags, span) named by one doc."""
    for span in _code_spans(path.read_text()):
        for match in _INVOCATION.finditer(span.replace("\\\n", " ")):
            tokens = match.group(1).split()
            if not tokens or not _WORD.match(tokens[0]):
                continue  # `repro --help`, paths, prose fragments
            command = tokens[0]
            subcommand = None
            if len(tokens) > 1 and _WORD.match(tokens[1]):
                subcommand = tokens[1]
            flags = []
            for token in tokens[1:]:
                if _SHELL_BREAK.match(token):
                    break
                if token.startswith("--"):
                    flags.append(token.split("=", 1)[0])
            yield command, subcommand, flags, span.strip()


def test_docs_exist():
    for name in CLI_CHECKED_DOCS:
        assert (REPO_ROOT / name).exists(), f"{name} is missing"


@pytest.mark.parametrize("doc", CLI_CHECKED_DOCS)
def test_every_documented_command_exists(doc):
    tree = command_tree()
    path = REPO_ROOT / doc
    if not path.exists():
        pytest.skip(f"{doc} not present")
    seen = 0
    for command, subcommand, _, span in _doc_invocations(path):
        seen += 1
        assert command in tree, (
            f"{doc} names `repro {command}` but cli.py has no such "
            f"command (in: {span[:80]!r})"
        )
        if subcommand is not None and tree[command]:
            assert subcommand in tree[command], (
                f"{doc} names `repro {command} {subcommand}` but "
                f"cli.py only has {sorted(tree[command])} "
                f"(in: {span[:80]!r})"
            )
    assert seen > 0, f"{doc} names no repro commands at all?"


@pytest.mark.parametrize("doc", CLI_CHECKED_DOCS)
def test_every_documented_flag_exists(doc):
    """Each ``--flag`` of a documented invocation must exist on the
    (sub)parser that invocation names."""
    parsers = _subcommands(build_parser())
    for command, subcommand, flags, span in _doc_invocations(
        REPO_ROOT / doc
    ):
        parser = parsers.get(command)
        if parser is None:
            continue  # test_every_documented_command_exists reports it
        parser = _subcommands(parser).get(subcommand, parser)
        known = {opt for action in parser._actions
                 for opt in action.option_strings}
        for flag in flags:
            assert flag in known, (
                f"{doc} passes {flag} to `repro {command}"
                f"{' ' + subcommand if subcommand else ''}`, which has no "
                f"such option (in: {span[:80]!r})"
            )


def test_fleet_commands_are_documented():
    """The fleet surface this PR adds must actually be in the docs."""
    for doc in DOC_FILES:
        text = (REPO_ROOT / doc).read_text()
        assert "serve fleet" in text, f"{doc} does not mention serve fleet"


def test_serve_fetch_exists_and_is_documented():
    """The result-fetch surface: a real subcommand, named by the docs."""
    tree = command_tree()
    assert "fetch" in tree["serve"], "cli.py has no `serve fetch`"
    text = (REPO_ROOT / "OPERATIONS.md").read_text()
    assert "serve fetch" in text, "OPERATIONS.md does not mention serve fetch"


def test_storage_campaign_is_wired():
    """`repro chaos --campaign storage` must parse and reach its runner."""
    parser = build_parser()
    args = parser.parse_args(
        ["chaos", "--campaign", "storage", "--seed", "3"]
    )
    assert args.campaign == "storage"
    assert args.seed == 3
    from repro.guard.chaos import run_storage_campaign  # importable

    assert callable(run_storage_campaign)
