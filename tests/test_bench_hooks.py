"""The benchmark under ``perfbench/`` hooks rootlab functions by name."""

import importlib
import inspect
from pathlib import Path
from types import SimpleNamespace

from rootlab import algebra, poly
from rootlab.algebra import QUATERNIONS
from rootlab.poly import DAPolynomial, Deformation

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


def test_kernel_table_runs_on_the_polynomial_entries(monkeypatch):
    # every traced run times poly's entries directly through the kernel
    # table; one short loop per cell must give every cell the run reports
    monkeypatch.syspath_prepend(str(PERFBENCH))
    kernels = importlib.import_module("kernels")
    run = importlib.import_module("run")
    monkeypatch.setattr(kernels, "MIN_LOOP_S", 0.0)
    monkeypatch.setattr(kernels, "REPEATS", 1)
    table = kernels.kernel_table(algebra, poly, 1)
    assert set(table) == {k for k in run.per_layer_units()
                          if k.startswith(("poly.vg_us.", "algebra.mul_ns."))}


def test_attractor_note_reads_a_real_search(monkeypatch):
    # the traced run notes every attractor search; a result it cannot read
    # would crash that run, so the note runs here on real calls
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    flow = importlib.import_module("rootlab.flow")
    polys = [DAPolynomial.from_coords(QUATERNIONS, [[c, 1, 0, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
             for c in (1.0, 2.0)]
    # one start set per polynomial, so the note counts start sets, as c05's does
    starts = [flow.gaussian_starts(QUATERNIONS, 3, 0)] * len(polys)
    rec = SimpleNamespace(notes={})
    for args, kwargs in (((polys, starts), {}), ((polys,), {"starts": starts})):
        result = flow.attractors_from_starts(*args, **kwargs)
        spans._note_attractors(rec, 0, args, kwargs, result)
        assert rec.notes[0] == {"starts": len(polys), "found": len(polys)}


def test_collapse_and_trajectory_notes_read_real_results(monkeypatch):
    # the traced collapse run notes every collapse_time and integrate call
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    flow = importlib.import_module("rootlab.flow")
    base = DAPolynomial.from_coords(QUATERNIONS, [[1, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]])
    D = Deformation(base, DAPolynomial.from_coords(QUATERNIONS, [[1, 0, 0, 0],
                                                                 [0, 1, 0, 0]]))
    rec = SimpleNamespace(notes={})
    sample = flow.collapse_time(D, 0.1)
    spans._note_collapse(rec, 0, (D, 0.1), {}, sample)
    assert rec.notes[0] == {"eps": 0.1}
    traj = flow.integrate(D.at(0.1), sample.start, attractors=[sample.attractor])
    spans._note_trajectory(rec, 1, (D.at(0.1), sample.start), {}, traj)
    assert rec.notes[1] == {"final_time": traj.final_time, "converged": True}
