"""The README's examples run as written.

Every JSON block of README.md that carries a space and a region loads as a
region document, and the README's ``diameter``, ``hemisphere`` and
``hull-check`` command lines, run verbatim on its example document saved as
``caps.json``, exit 0.
"""

import json
import re
import shlex
from pathlib import Path

import pytest

from isodiam.cli import main
from isodiam.regionio import document_to_space_region

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.MULTILINE | re.DOTALL)


def _region_documents():
    docs = [json.loads(block) for block in _blocks("json")]
    return [doc for doc in docs if isinstance(doc, dict) and {"space", "region"} <= doc.keys()]


def _command_lines(subcommand):
    return [line for block in _blocks("sh") for line in block.splitlines()
            if line.startswith(f"isodiam {subcommand} ")]


def test_every_region_document_loads():
    docs = _region_documents()
    assert docs
    for doc in docs:
        document_to_space_region(doc)


@pytest.mark.parametrize("subcommand", ["diameter", "hemisphere", "hull-check"])
def test_commands_on_the_example_document(tmp_path, capsys, subcommand):
    caps = tmp_path / "caps.json"
    caps.write_text(json.dumps(_region_documents()[0]))
    lines = _command_lines(subcommand)
    assert lines
    for line in lines:
        argv = [str(caps) if arg == "caps.json" else arg for arg in shlex.split(line)[1:]]
        assert str(caps) in argv
        assert main(argv) == 0, capsys.readouterr().err
