"""The README's examples stay runnable: the Python quick start executes
and every ``hubsim`` line of its shell blocks parses with the CLI parser."""

import re
import shlex
from pathlib import Path

import hubsim
from hubsim.cli import build_parser

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")


def _code_blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def test_readme_quick_start_runs():
    (code,) = _code_blocks("python")
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    # "well below eps" (eps=1e-3 in the example)
    assert hubsim.distance(namespace["state"], namespace["reference"]) < 1e-3
    assert namespace["report"].as_dict()["queries"]


def test_readme_cli_lines_parse():
    lines = [line for block in _code_blocks("bash")
             for line in block.splitlines() if line.startswith("hubsim ")]
    assert len(lines) >= 7
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])
