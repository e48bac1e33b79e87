"""Span recording for the traced run, installed from outside ``src/``.

Every public function of the traced layers is replaced, in every
``rootlab`` module that holds a reference to it, by a wrapper that records
one span: name, start, end, parent span and pid.  The callable returned by
``poly.value_gradient_fn`` is wrapped too, so integrator right-hand-side
evaluations show as ``poly.vg`` spans.  A few spans also carry a note read
from the call's arguments or result (batch rows, trajectory time, Newton
iterations, sampler counts) for the per-layer ratios.

Spans are kept in flat arrays in memory.  Worker processes forked while
tracing is on (the collapse pool) start with an empty buffer and write it
to ``<out_dir>/spans-<pid>-<n>.npz`` each time their span stack empties, so
their spans reach the trace tagged with their pid.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("algebra", "poly", "manifolds", "flow", "thermo")


class SpanTable:
    """Merged spans of all processes; ``parent`` indexes into this table."""

    def __init__(self, names, name, parent, start, end, pid, rows, notes):
        self.names = list(names)
        self.name = np.asarray(name, dtype=np.int64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.start = np.asarray(start, dtype=float)
        self.end = np.asarray(end, dtype=float)
        self.pid = np.asarray(pid, dtype=np.int64)
        self.rows = np.asarray(rows, dtype=np.int64)
        self.notes = dict(notes)

    def __len__(self) -> int:
        return int(self.name.size)

    @classmethod
    def from_records(cls, records):
        """Build from ``(name, parent_index, start, end, pid, rows, note)`` tuples."""
        names = sorted({r[0] for r in records})
        ids = {n: i for i, n in enumerate(names)}
        cols = list(zip(*records)) if records else [()] * 7
        notes = {i: r[6] for i, r in enumerate(records) if r[6]}
        return cls(names, [ids[n] for n in cols[0]], cols[1], cols[2], cols[3],
                   cols[4], cols[5], notes)


class Recorder:
    """In-memory span buffer for one process, flushed to files by workers."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.main_pid = os.getpid()
        self.pid = self.main_pid
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.rows = array("q")
        self.notes: dict[int, dict] = {}
        self.stack: list[int] = []
        self._flushes = 0
        self.active = False
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        if self.active:
            self.pid = os.getpid()
            self._flushes = 0
            self._clear()

    def _clear(self) -> None:
        # cleared in place: the wrappers hold references to these buffers
        for buf in (self.name, self.parent, self.start, self.end, self.rows):
            del buf[:]
        self.notes.clear()
        self.stack.clear()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, note=None):
        """Return ``fn`` recording one span per call; ``note`` adds extras."""
        nid = self.name_id(name)
        perf = time.perf_counter
        names, parents, starts, ends, rows = (
            self.name, self.parent, self.start, self.end, self.rows)
        stack, notes = self.stack, self.notes

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            rows.append(0)
            stack.append(idx)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = perf()
                stack.pop()
                notes[idx] = {"error": type(exc).__name__}
                if not stack and self.pid != self.main_pid:
                    self.flush()
                raise
            ends[idx] = perf()
            stack.pop()
            if note is not None:
                note(self, idx, args, kwargs, result)
            if not stack and self.pid != self.main_pid:
                self.flush()
            return result

        return traced

    def flush(self) -> None:
        """Write this process's buffered spans to a file and clear them."""
        path = self.out_dir / f"spans-{self.pid}-{self._flushes}.npz"
        self._flushes += 1
        with open(path, "wb") as fh:
            np.savez(fh, name=np.frombuffer(self.name, dtype=np.int32),
                     parent=np.frombuffer(self.parent, dtype=np.int32),
                     start=np.frombuffer(self.start, dtype=float),
                     end=np.frombuffer(self.end, dtype=float),
                     rows=np.frombuffer(self.rows, dtype=np.int64),
                     notes=np.array(json.dumps(self.notes)))
        self._clear()

    def table(self) -> SpanTable:
        """Spans of this process plus every file the workers wrote."""
        chunks = [(self.main_pid, np.frombuffer(self.name, dtype=np.int32),
                   np.frombuffer(self.parent, dtype=np.int32),
                   np.frombuffer(self.start, dtype=float),
                   np.frombuffer(self.end, dtype=float),
                   np.frombuffer(self.rows, dtype=np.int64),
                   {int(k): v for k, v in self.notes.items()})]
        for path in sorted(self.out_dir.glob("spans-*.npz")):
            pid = int(path.name.split("-")[1])
            with np.load(path, allow_pickle=False) as z:
                notes = {int(k): v for k, v in json.loads(str(z["notes"])).items()}
                chunks.append((pid, z["name"], z["parent"], z["start"], z["end"],
                               z["rows"], notes))
        cols = {k: [] for k in ("name", "parent", "start", "end", "pid", "rows")}
        notes: dict[int, dict] = {}
        offset = 0
        for pid, name, parent, start, end, rows, chunk_notes in chunks:
            n = name.size
            cols["name"].append(name)
            cols["parent"].append(np.where(parent >= 0, parent + offset, -1))
            cols["start"].append(start)
            cols["end"].append(end)
            cols["pid"].append(np.full(n, pid))
            cols["rows"].append(rows)
            notes.update({k + offset: v for k, v in chunk_notes.items()})
            offset += n
        return SpanTable(self.names, *(np.concatenate(cols[k]) for k in
                                       ("name", "parent", "start", "end", "pid", "rows")),
                         notes)


# -- notes: extra numbers some spans carry -----------------------------------

def _note_rows(rec, idx, args, kwargs, result):
    X = np.asarray(args[1] if len(args) > 1 else kwargs["X"])
    if X.ndim >= 2:
        rec.rows[idx] = int(np.prod(X.shape[:-1]))


def _note_trajectory(rec, idx, args, kwargs, result):
    rec.notes[idx] = {"final_time": result.final_time,
                      "converged": result.terminal.kind == "converged"}


def _note_polish(rec, idx, args, kwargs, result):
    rec.notes[idx] = {"iterations": int(result.iterations)}


def _note_attractors(rec, idx, args, kwargs, result):
    starts = args[1] if len(args) > 1 else kwargs["starts"]
    rec.notes[idx] = {"starts": len(starts), "found": len(result)}


def _note_collapse(rec, idx, args, kwargs, result):
    rec.notes[idx] = {"eps": float(result.epsilon)}


def _note_measure(rec, idx, args, kwargs, result):
    rec.notes[idx] = {"eps": [float(e) for e in result.epsilons]}


def _note_gibbs(rec, idx, args, kwargs, result):
    cfg = result.config
    kept = (cfg.steps - int(cfg.burn_in * cfg.steps)) * cfg.chains
    rec.notes[idx] = {"chain_steps": cfg.steps * cfg.chains, "kept": kept,
                      "ess": float(result.stats.ess),
                      "acceptance": float(result.stats.acceptance)}


NOTES = {
    "poly.evaluate_coords": _note_rows,
    "poly.gradient_coords_batch": _note_rows,
    "flow.integrate": _note_trajectory,
    "poly.newton_polish": _note_polish,
    "flow.attractors_from_starts": _note_attractors,
    "flow.collapse_time": _note_collapse,
    "flow.measure_collapse": _note_measure,
    "thermo.sample_gibbs": _note_gibbs,
}


def install(rec: Recorder) -> int:
    """Wrap the traced layers' public functions in every loaded ``rootlab``
    module that references them; returns how many functions were wrapped."""
    wrappers = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"rootlab.{layer}")
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__):
                continue
            name = f"{layer}.{attr}"
            fn = obj
            if name == "poly.value_gradient_fn":
                fn = _vg_factory(rec, obj)
            wrappers[id(obj)] = (obj, rec.wrap(name, fn, NOTES.get(name)))
    # every name gets its id before any fork, so worker files share the table
    rec.name_id("poly.vg")
    modules = [m for k, m in list(sys.modules.items())
               if m is not None and (k == "rootlab" or k.startswith("rootlab."))]
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    rec.active = True
    return len(wrappers)


def _vg_factory(rec: Recorder, value_gradient_fn):
    def traced_value_gradient_fn(P):
        return rec.wrap("poly.vg", value_gradient_fn(P))
    return traced_value_gradient_fn
