"""Every name the repository benchmark's tracer wraps still resolves.

``perfbench/tracer.py`` replaces a fixed list of public names with timing
wrappers, looked up by attribute.  A renamed or dropped name makes the
traced run raise ``AttributeError``; this catches it in tier-1 instead of
in the perfbench smoke gate.  The tracer module is loaded read-only from
its file and nothing is wrapped.
"""

import importlib
import pathlib
import sys
import types

import pytest

from repro.core.solvers.local_search import PolishResult

TRACER_PATH = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    # Executed from its source text, so no bytecode is written beside it.
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER_PATH)
    # Its dataclasses resolve their annotations through sys.modules.
    sys.modules[module.__name__] = module
    exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"), module.__dict__)
    return module


TRACER = _tracer()
TARGETS = TRACER.LIBRARY_TARGETS + TRACER.SERVER_TARGETS


@pytest.mark.parametrize(
    "target", TARGETS, ids=[f"{t.where}.{t.attr}" for t in TARGETS]
)
def test_target_resolves(target):
    module_name, _, class_name = target.where.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        # The tracer reads methods from the class __dict__, not inherited.
        assert target.attr in getattr(owner, class_name).__dict__
    else:
        assert callable(getattr(owner, target.attr))


def test_polish_result_keeps_improvement():
    # The tracer's polish hook reads result.improvement.
    assert "improvement" in PolishResult.__dataclass_fields__
