"""The README's library examples and config example run as written."""

import contextlib
import io
import re
from pathlib import Path

import pytest

from muntzvide.cli import parse_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start : end if end >= 0 else len(README)]


def _blocks(text: str, lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, flags=re.M | re.S)


QUICK_START = _blocks(_section("Library quick start"), "python")
CONFIGS = _blocks(README, "ini")


def _run(code: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {"__name__": "readme_example"})
    return out.getvalue()


def test_the_readme_has_the_examples_this_file_runs():
    # a block pattern that matched nothing would leave the tests below empty
    assert QUICK_START and CONFIGS


def test_the_first_quick_start_example_prints_exponential():
    lines = _run(QUICK_START[0]).splitlines()
    # one line per N, then the classification its comment names
    assert len(lines) == 6
    assert lines[-1] == "exponential"


@pytest.mark.parametrize("index", range(1, len(QUICK_START)))
def test_every_other_quick_start_example_runs(index):
    _run(QUICK_START[index])


@pytest.mark.parametrize("text", CONFIGS)
def test_every_config_example_parses_as_a_sweep(text):
    assert parse_config(text, ["mode=sweep"]).mode == "sweep"
