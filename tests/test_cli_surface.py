"""The CLI's parser surface is frozen in ``tests/cli_surface.json``.

For every subcommand and every action the file records the option
strings, destination, default, ``nargs``, ``required`` and the argparse
action class -- everything that decides what an argv parses to, except
help text, ``type`` and ``choices`` (converters may tighten validation
without changing the surface).  A change that adds, removes, renames or
re-defaults an option fails here.  After an intended surface change,
regenerate the file with::

    PYTHONPATH=src python tests/test_cli_surface.py
"""

import argparse
import json
from pathlib import Path

from repro.cli import build_parser

SURFACE_PATH = Path(__file__).with_name("cli_surface.json")


def _actions(parser: argparse.ArgumentParser) -> list:
    return [
        {
            "option_strings": list(a.option_strings),
            "dest": a.dest,
            "default": a.default,
            "nargs": a.nargs,
            "required": a.required,
            "action": type(a).__name__,
        }
        for a in parser._actions
        if not isinstance(a, argparse._SubParsersAction)
    ]


def surface() -> dict:
    """The parser surface as a JSON-normalised document."""
    parser = build_parser()
    (sub,) = [
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    doc = {
        "repro": _actions(parser),
        **{name: _actions(p) for name, p in sub.choices.items()},
    }
    return json.loads(json.dumps(doc))


def test_parser_surface_is_frozen():
    frozen = json.loads(SURFACE_PATH.read_text(encoding="utf-8"))
    current = surface()
    assert sorted(current) == sorted(frozen)
    for command, actions in frozen.items():
        assert current[command] == actions, command


if __name__ == "__main__":
    # One action per line, so a surface change reads as a one-line diff.
    commands = [
        f"  {json.dumps(name)}: [\n"
        + ",\n".join(f"    {json.dumps(a, sort_keys=True)}" for a in actions)
        + "\n  ]"
        for name, actions in sorted(surface().items())
    ]
    SURFACE_PATH.write_text(
        "{\n" + ",\n".join(commands) + "\n}\n", encoding="utf-8"
    )
