"""The benchmark tracer's targets all exist in the program.

``perfbench/tracer.py`` wraps a fixed list of pqcalc functions and stops a
traced run with ``MissingTargetError`` when one is gone, so a refactor that
moves or renames one of them is caught here, in the ordinary test run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("group, module, attr", [t[:3] for t in tracer.TARGETS])
def test_tracer_target_resolves(group, module, attr):
    # raises MissingTargetError when the target is gone
    _, _, function = tracer._resolve(importlib.import_module(module), attr)
    assert callable(function)
