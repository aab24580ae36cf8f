"""Shared benchmark helpers.

Every benchmark is a plain pytest test that builds one paper artifact (a
theorem-validation table) once, emits it, and asserts the paper's claim
about it.  Tables are printed to stdout *and* appended to
``benchmarks/results/<name>.txt`` so the artifact survives pytest's output
capturing and can be pasted into EXPERIMENTS.md.  Wall-clock timing lives
in ``python -m repro bench``; only the E-T3.1 and E-T4.1 slope gates time
anything here (:mod:`scaling`).
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def emit():
    """Print a table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    written: set[str] = set()

    def _emit(name: str, table) -> None:
        text = table.render() if hasattr(table, "render") else str(table)
        print(f"\n{text}\n")
        path = RESULTS_DIR / f"{name}.txt"
        mode = "a" if name in written else "w"
        with open(path, mode) as handle:
            handle.write(text + "\n\n")
        written.add(name)

    return _emit
