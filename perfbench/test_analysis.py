"""Self-test of the trace arithmetic on synthetic span lists.

Run with ``python3 -m pytest perfbench`` or ``python3 perfbench/test_analysis.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from analysis import has_ancestor, layer_metrics, percentile, self_times  # noqa: E402
from spans import SpanTable  # noqa: E402

MAIN, WORKER = 100, 200


# Main process: a flow span holding poly spans, one of which holds a
# same-layer poly child and an algebra grandchild; a worker-process span
# overlaps the flow span in time but is not inside it.
NESTED = [
    # name, parent, start, end, pid, rows, note
    ("flow.measure_collapse", -1, 0.0, 10.0, MAIN, 0, {"eps": [0.1, 0.2]}),
    ("flow.integrate", 0, 1.0, 5.0, MAIN, 0, {"final_time": 100.0, "converged": True}),
    ("poly.vg", 1, 1.5, 2.0, MAIN, 0, None),
    ("poly.vg", 1, 2.5, 4.0, MAIN, 0, None),
    ("poly.evaluate_coords", 3, 2.6, 3.0, MAIN, 0, None),   # same-layer child
    ("algebra.multiply_coords", 4, 2.7, 2.8, MAIN, 0, None),
    ("flow.collapse_time", 0, 6.0, 9.0, MAIN, 0, {"eps": 0.2}),
    ("flow.collapse_time", -1, 0.5, 8.5, WORKER, 0, {"eps": 0.1}),
]


def nested_table() -> SpanTable:
    return SpanTable.from_records(NESTED)


def test_self_time_subtracts_direct_children_only():
    t = nested_table()
    got = self_times(t)
    want = [10.0 - 4.0 - 3.0,   # the worker span does not count against it
            4.0 - 0.5 - 1.5,
            0.5,
            1.5 - 0.4,          # same-layer child subtracted like any other
            0.4 - 0.1,
            0.1,
            3.0,
            8.0]
    np.testing.assert_allclose(got, want)
    # self times tile the main process's root span exactly
    assert abs(sum(got[:7]) - 10.0) < 1e-12


def test_layer_totals_do_not_double_count_same_layer_nesting():
    m, info = layer_metrics(nested_table())
    assert m["poly.calls"] == 3 and m["algebra.calls"] == 1 and m["flow.calls"] == 4
    assert abs(m["poly.self_s"] - (0.5 + 1.1 + 0.3)) < 1e-12
    assert abs(m["flow.self_s"] - (3.0 + 2.0 + 3.0 + 8.0)) < 1e-12
    assert info["pids"] == [MAIN, WORKER]


def test_flow_ratios_and_pool_speedup_use_worker_spans():
    m, info = layer_metrics(nested_table())
    assert m["flow.trajectories"] == 1
    assert m["flow.rhs_per_flow_time"] == 2 / 100.0
    assert m["flow.rhs_per_trajectory"] == 2
    assert m["poly.vg_calls"] == 2
    assert abs(m["poly.vg_us"] - 1.0e6) < 1e-6
    # busy 3 s (main) + 8 s (worker) over a 10 s measure_collapse
    assert abs(m["flow.pool_speedup"] - 1.1) < 1e-12
    assert info["collapse"]["all_eps_covered"]
    assert info["collapse"]["worker_pids"] == [WORKER]
    assert "flow.traj_s.p90" in info["not_applicable"]


def test_missing_worker_epsilon_is_reported():
    _, info = layer_metrics(SpanTable.from_records([r for r in NESTED if r[4] != WORKER]))
    assert not info["collapse"]["all_eps_covered"]
    assert info["collapse"]["worker_pids"] == []


def test_ancestor_search_crosses_levels():
    t = nested_table()
    outer = np.zeros(len(t), dtype=bool)
    outer[1] = True                         # flow.integrate
    assert has_ancestor(t, outer).tolist() == [False, False, True, True, True, True,
                                               False, False]


def test_percentiles_on_trajectory_durations():
    durations = np.arange(1, 101, dtype=float)   # 1 .. 100 s
    recs = [("flow.integrate", -1, 0.0, d, MAIN, 0, {"final_time": 1.0, "converged": d < 91})
            for d in durations]
    m, _ = layer_metrics(SpanTable.from_records(recs))
    assert m["flow.traj_s.p50"] == percentile(durations, 50) == 50.5
    assert abs(m["flow.traj_s.p90"] - 90.1) < 1e-12
    assert abs(m["flow.nonconverged_frac"] - 0.1) < 1e-12
    fewer = SpanTable.from_records(recs[:99])
    m, info = layer_metrics(fewer)
    assert m["flow.traj_s.p90"] == 0.0 and "flow.traj_s.p90" in info["not_applicable"]


def test_batched_points_and_outermost_time():
    recs = [
        ("poly.gradient_coords_batch", -1, 0.0, 2.0, MAIN, 100, None),
        ("poly.evaluate_coords", 0, 0.5, 1.0, MAIN, 100, None),
        ("poly.evaluate_coords", -1, 3.0, 4.0, MAIN, 50, None),
        ("poly.evaluate_coords", -1, 5.0, 5.5, MAIN, 0, None),   # single point
    ]
    m, _ = layer_metrics(SpanTable.from_records(recs))
    assert m["poly.batch_points"] == 250
    assert abs(m["poly.batch_ns_per_point"] - 3.0e9 / 150) < 1e-3


def test_sampler_ratios():
    recs = [
        ("thermo.sample_gibbs", -1, 0.0, 2.0, MAIN, 0,
         {"chain_steps": 1000, "kept": 700, "ess": 70.0, "acceptance": 0.3}),
        ("thermo.sample_gibbs", -1, 2.0, 3.0, MAIN, 0,
         {"chain_steps": 500, "kept": 300, "ess": 60.0, "acceptance": 0.5}),
        ("thermo.sample_gibbs", -1, 3.0, 3.5, MAIN, 0, {"error": "SamplerDiagnosticError"}),
    ]
    m, _ = layer_metrics(SpanTable.from_records(recs))
    assert m["thermo.chain_steps"] == 1500
    assert m["thermo.chain_steps_per_s"] == 500.0
    assert abs(m["thermo.ess_per_chain_step"] - 0.13) < 1e-12
    assert abs(m["thermo.acceptance"] - 0.36) < 1e-12
    assert m["thermo.diag_errors"] == 1


def test_benchmark_json_lists_the_reported_metrics():
    spec_path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    if not spec_path.is_file():
        return
    import run

    spec = json.loads(spec_path.read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    import workloads
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
    print(f"{len(tests)} passed")
