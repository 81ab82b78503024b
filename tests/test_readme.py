"""The README's code runs as written."""

import os
import subprocess
import sys
from pathlib import Path

import braidax

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    """The Library tour block, in a fresh interpreter: a public name it uses
    cannot be deleted or renamed without this failing."""
    text = README.read_text()
    tour = text[text.index("## Library tour"):]
    start = tour.index("```python\n") + len("```python\n")
    block = tour[start:tour.index("```", start)]
    env = dict(os.environ, PYTHONPATH=str(Path(braidax.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", block], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_cli_commands_run(tmp_path):
    """Every command of the CLI block, each in a fresh interpreter in an
    empty directory, exits 0: a documented command cannot drift."""
    text = README.read_text()
    cli = text[text.index("## CLI"):]
    start = cli.index("```sh\n") + len("```sh\n")
    lines = cli[start:cli.index("```", start)].splitlines()
    assert lines
    env = dict(os.environ, PYTHONPATH=str(Path(braidax.__file__).resolve().parents[1]))
    for line in lines:
        program, *argv = line.split()
        assert program == "braidax", line
        done = subprocess.run(
            [sys.executable, "-m", "braidax.cli", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, (line, done.stderr)
