"""Every function the layer tracer in ``perfbench/tracer.py`` wraps exists.

The tracer skips a target the package no longer has and reports its metrics
as absent, so a rename or a deletion would silently blank a per-layer
metric; this test makes it fail loudly instead.  It reads ``TARGETS`` from
the tracer's source, without importing the tracer.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_targets() -> tuple[tuple[str, str, str, str], ...]:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {TRACER}")


@pytest.mark.parametrize("group, layer, module, attr", traced_targets(),
                         ids=lambda x: str(x))
def test_traced_target_resolves(group, layer, module, attr):
    owner = importlib.import_module(f"ybhecke.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(owner, cls_name)), f"ybhecke.{module}.{attr}"
    else:
        assert callable(getattr(owner, attr, None)), f"ybhecke.{module}.{attr}"
