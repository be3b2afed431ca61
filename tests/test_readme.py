"""The README's examples run as written and print what it says they print.

The Python quick start runs against the package's top-level names, and each
line of it that ends in a literal comment evaluates to that literal. Each
``runsdist`` command of the README runs in-process and must print the bytes
recorded for it in ``perfbench/golden/`` (read only here).
"""

import ast
import re
import shlex
from pathlib import Path

import pytest

from runsdist import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")

# golden output and exit code of each README command, in README order
GOLDEN = (("pmf-type1", 0), ("pmf-type2", 0), ("pmf-counts", 0),
          ("moments-partition", 0), ("moments-root-overlap", 0),
          ("compare-pass", 0), ("compare-mismatch", 1), ("simulate", 0))


def _blocks(lang: str) -> list:
    return re.findall(rf"```{lang}\n(.*?)```", README, re.S)


def _commands() -> list:
    lines = "".join(_blocks("sh")).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("runsdist ")]


COMMANDS = _commands()


def test_quick_start_runs_and_matches_its_comments():
    (block,) = _blocks("python")
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            want = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            continue
        assert eval(code, namespace) == want, line
        checked += 1
    assert checked == 2


def test_every_cli_example_has_a_golden_output():
    assert len(COMMANDS) == len(GOLDEN)


@pytest.mark.parametrize("argv, golden", list(zip(COMMANDS, GOLDEN)),
                         ids=[name for name, _ in GOLDEN])
def test_cli_example_prints_its_golden_output(capsys, argv, golden):
    name, want_code = golden
    want = (ROOT / "perfbench" / "golden" / f"{name}.out").read_bytes().decode("utf-8")
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == want_code
    assert capsys.readouterr().out == want
