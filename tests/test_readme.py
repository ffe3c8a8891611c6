"""README's two quick tours, run in-process.

Each ``akizuki ...`` line of the CLI tour runs through ``cli.main``; it
must exit 0 and print the result written beside it or on the comment line
below it.  The ``--unit`` example is documented as the same product as
without the unit, and the selftest line as a passing run.  The Python tour
runs as one block; its asserts must hold, and each ``print(...)  # result``
line must print its result.
"""

import shlex
from pathlib import Path

import pytest

from akizuki.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def tour() -> list:
    """(argv, documented result) for each command of the CLI quick tour."""
    section = README.read_text().split("## Quick tour (CLI)", 1)[1]
    lines = section.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()
    out = []
    for i, line in enumerate(lines):
        if not line.startswith("akizuki "):
            continue
        command, _, note = line.partition("#")
        if not note.strip() and i + 1 < len(lines) and lines[i + 1].startswith("#"):
            note = lines[i + 1][1:]
        out.append((shlex.split(command)[1:], note.strip()))
    return out


TOUR = tour()


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out.strip()


def test_the_tour_has_every_command():
    assert len(TOUR) == 14


@pytest.mark.parametrize(
    "argv, documented", TOUR, ids=[f"{k}-{a[0]}" for k, (a, _) in enumerate(TOUR)]
)
def test_tour_command_prints_its_documented_result(capsys, argv, documented):
    code, out = run(capsys, argv)
    assert code == 0
    if "--unit" in argv:
        k = argv.index("--unit")
        assert documented.startswith("same product")
        assert run(capsys, argv[:k] + argv[k + 2 :]) == (0, out)
    elif argv[0] == "selftest":
        assert out.endswith("selftest all: ok")
    else:
        assert out == documented


def test_python_tour_prints_its_documented_results(capsys):
    section = README.read_text().split("## Quick tour (Python)", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    documented = [line.split("#", 1)[1].strip() for line in code.splitlines() if line.startswith("print(")]
    assert len(documented) == 2
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == documented
