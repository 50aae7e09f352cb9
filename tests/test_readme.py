"""Every ``$ tanglekit ...`` example in README.md, run through the CLI.

An example is a ``$ tanglekit`` line in a ``sh`` block and the lines
after it, up to the next ``$`` line or the end of the block: the
expected stdout. A ``# exit N`` comment on the command gives the
expected exit code, 0 when there is none. Elapsed times are masked on
both sides, and a line ``...`` stands for any number of lines. The files
the examples read are written as the README says: "`name.tgl` holds
`content`".
"""

import re
import shlex
from pathlib import Path

import pytest

from tanglekit.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
FILE_CONTENT = re.compile(r"`([\w.-]+\.tgl)`\s+hold(?:s|ing)\s+`([^`]+)`")
EXIT = re.compile(r"#\s*exit\s+(\d+)")
# a jsonl verifier record's "elapsed" field and a text record's trailing seconds
ELAPSED_JSON = re.compile(r'("elapsed": )[-+.e0-9]+')
ELAPSED_TEXT = re.compile(r" \d+\.\d+s$", re.M)


def examples(text: str) -> list[tuple[list[str], int, list[str]]]:
    """``(argv, exit code, expected stdout lines)`` per example."""
    out = []
    in_sh, expected = False, None
    for line in text.splitlines():
        if line.startswith("```"):
            in_sh, expected = line == "```sh", None
        elif in_sh and line.startswith("$ "):
            argv = shlex.split(line[2:], comments=True)
            expected = None
            if argv[0] == "tanglekit":
                code = EXIT.search(line)
                expected = []
                out.append((argv[1:], int(code.group(1)) if code else 0, expected))
        elif expected is not None:
            expected.append(line)
    return out


def mask(text: str) -> str:
    return ELAPSED_TEXT.sub(" <t>s", ELAPSED_JSON.sub(r"\1<t>", text))


def matches(expected: list[str], got: list[str]) -> bool:
    """Line-by-line equality, where an expected ``...`` line matches any
    run of whole lines, none included."""
    pattern = "".join(r"(?:.*\n)*?" if line == "..." else re.escape(line + "\n") for line in expected)
    return re.fullmatch(pattern, "".join(line + "\n" for line in got)) is not None


TEXT = README.read_text()
EXAMPLES = examples(TEXT)


def test_the_readme_has_examples_and_names_their_files():
    assert len(EXAMPLES) >= 10
    named = dict(FILE_CONTENT.findall(TEXT))
    read = {arg for argv, _, _ in EXAMPLES for arg in argv if arg.endswith(".tgl")}
    assert read <= set(named), read - set(named)


@pytest.mark.parametrize(
    "argv,code,expected", EXAMPLES, ids=[f"{k}-{e[0][0]}" for k, e in enumerate(EXAMPLES)]
)
def test_example(argv, code, expected, tmp_path, monkeypatch, capsys):
    for name, content in FILE_CONTENT.findall(TEXT):
        (tmp_path / name).write_text(content + "\n")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    got = mask(capsys.readouterr().out).splitlines()
    assert matches([mask(line) for line in expected], got), got
