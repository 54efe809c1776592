"""README.md's sample config and command lines are ones the program accepts."""

import re
import shlex
from pathlib import Path

import pytest

from kgpoint.cli import build_parser
from kgpoint.config import build_initial_state, parse_config_text

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced(lang: str) -> list[str]:
    """The bodies of README's ```lang blocks."""
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.M | re.S)


CONFIGS = fenced("ini")
COMMANDS = [line for block in fenced("sh") for line in block.splitlines()
            if line.startswith("kgpoint ")]


def test_readme_has_the_samples():
    assert len(CONFIGS) == 1
    assert len(COMMANDS) == 6


def test_sample_config_parses_and_builds():
    for text in CONFIGS:
        cfg = parse_config_text(text)
        assert build_initial_state(cfg).grid.n_points == 32769


@pytest.mark.parametrize("line", COMMANDS, ids=[f"line{i}" for i in range(len(COMMANDS))])
def test_command_line_parses(line):
    argv = shlex.split(line, comments=True)[1:]
    assert build_parser().parse_args(argv).command in argv
