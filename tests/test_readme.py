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
