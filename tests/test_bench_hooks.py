"""The benchmark under ``perfbench/`` hooks rootlab functions by name."""

import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# called directly by the benchmark's kernel table (perfbench/kernels.py)
KERNEL_TABLE = ("poly.value_gradient_fn", "poly.evaluate_coords",
                "poly.gradient_coords_batch")


def test_perfbench_hooked_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    for name in (*spans.NOTES, *KERNEL_TABLE):
        layer, attr = name.split(".")
        assert callable(getattr(importlib.import_module(f"rootlab.{layer}"), attr, None)), name
    # the attractor-search note reads the start set as argument 1 or ``starts``
    flow = importlib.import_module("rootlab.flow")
    params = list(inspect.signature(flow.attractors_from_starts).parameters)
    assert params[1] == "starts"
