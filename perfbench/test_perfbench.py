"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import bench_check  # noqa: E402
import bench_spans  # noqa: E402
import bench_workloads  # noqa: E402
import run as bench_run  # noqa: E402


def _span(sid, name, start, end, parent=None, **counts):
    return {"id": sid, "name": name, "start": start, "end": end, "parent": parent,
            "run": "t", "counts": counts}


def test_self_time_of_a_nested_span_tree():
    # a chained forward_batch: the outer call runs an inner call per factor
    spans = [
        _span(0, "cli.main", 0.0, 10.0),
        _span(1, "correspondence.forward_batch", 1.0, 6.0, 0, points=7),
        _span(2, "correspondence.forward_batch", 2.0, 5.0, 1, points=7),
        _span(3, "graphpoly.fiber_batch", 3.0, 4.0, 2, points=7),
        _span(4, "entropy.greedy", 7.0, 9.0, 0),
    ]
    selfs = bench_spans.self_times(spans)
    assert selfs == {0: 3.0, 1: 2.0, 2: 2.0, 3: 1.0, 4: 2.0}
    metrics, absent = bench_spans.layer_metrics(spans, {}, untraced_wall_s=9.5)
    assert absent == {}
    # self time from parent links: 4 s, not the summed durations 5 + 3
    assert metrics["correspondence.forward_batch_s"] == (4.0, "s")
    assert metrics["correspondence.forward_batch_calls"][0] == 1
    assert metrics["correspondence.forward_batch_points"][0] == 7
    assert metrics["graphpoly.fiber_batch_s"][0] == 1.0
    assert metrics["entropy.greedy_s"][0] == 2.0
    assert metrics["cli.self_s"][0] == 3.0
    assert metrics["trace.wall_s"][0] == 10.0
    assert metrics["trace.overhead_s"][0] == 0.5
    self_sum = sum(v for k, (v, u) in metrics.items() if u == "s" and not k.startswith("trace."))
    assert self_sum == metrics["trace.wall_s"][0]


def test_self_time_is_shared_between_threads():
    spans = [
        _span(0, "raster.render", 0.0, 10.0),
        _span(1, "correspondence.forward_batch", 2.0, 6.0, 0),
        _span(2, "correspondence.forward_batch", 4.0, 8.0, 0),
    ]
    assert bench_spans.self_times(spans) == {0: 4.0, 1: 3.0, 2: 3.0}


def _entropy_artifact(reference: dict) -> dict:
    artifact = {}
    for key, report in json.loads(json.dumps(reference["reports"])).items():
        artifact[key] = dict(report, variant=key, protocol={"pair_budget": 1},
                             diagnostics={"levels": []},
                             flags=list(reversed(report["flags"])) + report["flags"][:1])
    return artifact


def test_entropy_check_rejects_one_changed_count():
    wl = bench_workloads.ENTROPY_FA4
    reference = bench_check.load_json(wl._ref(0))
    artifact = _entropy_artifact(reference)
    # protocol, diagnostics, flag order and duplicate flags are not compared
    assert bench_check.check_entropy(artifact, reference, wl.band) == []
    artifact["KT"]["counts"][3][2] += 1
    assert bench_check.check_entropy(artifact, reference, wl.band) == [
        "KT.counts differs from the reference"
    ]


def test_entropy_check_enforces_the_band():
    reference = bench_check.load_json(bench_workloads.ENTROPY_FA4._ref(0))
    problems = bench_check.check_entropy(_entropy_artifact(reference), reference, (0.7, 0.75))
    assert any("outside the band" in p for p in problems)


def test_ppm_check_rejects_one_flipped_pixel():
    pixels = np.full((4, 5, 3), 255, dtype=np.uint8)
    data = b"P6\n5 4\n255\n" + pixels.tobytes()
    want = bench_check.sha256(data)
    assert bench_check.check_ppm(data, want) == []
    pixels[2, 3] = 0
    assert bench_check.check_ppm(b"P6\n5 4\n255\n" + pixels.tobytes(), want)


def test_cloud_check_tolerance():
    with np.load(bench_workloads.EQUIDIST_COV43._ref(0)) as ref:
        want = ref["s0_n3"]
        distances = ref["distances"]
    got = want[::-1].copy()  # atom order is not compared
    assert bench_check.check_cloud(got, want, "c") == []
    got[0, 0] += 1e-6
    assert bench_check.check_cloud(got, want, "c")
    assert bench_check.check_cloud(want[1:], want, "c")
    rows = [{"n": n, "seed_i": i, "seed_j": j, "energy_distance": d} for n, i, j, d in distances]
    assert bench_check.check_distances(rows, distances) == []
    rows[0]["energy_distance"] += 1e-7
    assert bench_check.check_distances(rows, distances)


def test_error_rate_counts_a_nonzero_exit(capsys):
    broken = dataclasses.replace(bench_workloads.ENTROPY_FA4, correspondence={"kind": "none"})
    runner = bench_run.Runner(ROOT, time.monotonic())
    runner.work.mkdir(exist_ok=True)
    res = bench_run.run_workload(runner, broken, seed=0, seconds=0, trace=False)
    assert (res.attempted, res.failed) == (1, 1)
    assert res.samples[0].problems[0].startswith("exit code 2")
    bench_run.report_end_to_end(res)
    out = capsys.readouterr().out
    assert "error_rate         1.0000     1 of 1 runs" in out


def test_missing_private_helper_gives_an_absent_metric(monkeypatch):
    import corrdyn.entropy

    original = corrdyn.entropy.entropy_estimate
    monkeypatch.delattr(corrdyn.entropy, "_greedy_count")
    rec = bench_spans.Recorder("t")
    try:
        bench_spans.install(rec)
        assert corrdyn.entropy.entropy_estimate is not original
    finally:
        rec.uninstall()
    assert corrdyn.entropy.entropy_estimate is original
    spans = [_span(0, "cli.main", 0.0, 1.0)]
    metrics, absent = bench_spans.layer_metrics(spans, json.loads(json.dumps(
        {"absent": rec.absent, "point_objects": 0})), 1.0)
    assert absent == {"entropy.greedy_s": "corrdyn.entropy has no _greedy_count"}
    assert metrics["entropy.propagate_s"] == (0.0, "s")
    names = {name for name, _unit in bench_spans.per_layer_names()}
    assert names == set(metrics) | set(absent)
