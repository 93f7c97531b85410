"""corrdyn benchmark: run the `corrdyn` CLI on a named workload and report its metrics.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a corrdyn checkout.  Each sample is a fresh process
(bench_child.py) in a fresh directory under .perfbench_work/, so the checkout
itself is never written.  The run first takes set-up samples (import corrdyn
and build the correspondence), then runs the workload until the next sample
would end after S seconds.  Every artifact is compared with its reference;
a sample fails when the command exits non-zero, writes no artifact or fails
the check.

--trace 0 prints the end-to-end metrics: wall_s (config read to last artifact
written), setup_s (process spawn to correspondence built), peak_rss_mb (the
sample's own peak resident memory, VmHWM) and error_rate.  --trace 1
runs untraced samples and then one traced sample, and prints the per-layer
metrics made from its spans.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import bench_spans
from bench_workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
CHILD = HERE / "bench_child.py"
PROBES = 8  # counted set-up samples per run, after one uncounted warm-up
HARD_LIMIT_S = 170.0  # every child is killed by then; the run must end within 180 s
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class Sample:
    ok: bool
    duration_s: float  # process lifetime seen by this process, for scheduling only
    peak_rss_mb: float | None = None
    wall_s: float | None = None
    setup_s: float | None = None
    problems: list = field(default_factory=list)
    spans: tuple | None = None  # (spans, meta) of a traced sample


class Runner:
    """Starts children for one benchmark invocation and keeps them within its deadline."""

    def __init__(self, root: Path, started: float):
        self.root = root
        self.work = root / ".perfbench_work"
        self.deadline = started + HARD_LIMIT_S
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.env["CORRDYN_THREADS"] = str(nproc())

    def spawn(self, argv: list[str], cwd: Path) -> tuple[int, float]:
        """Run argv to completion: (exit code, duration in s)."""
        start = time.monotonic()
        with open(cwd / "child.log", "wb") as log:
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=log, stderr=log)
        killed = False
        while True:
            pid, status = os.waitpid(proc.pid, os.WNOHANG)
            if pid:
                break
            if not killed and time.monotonic() > self.deadline:
                proc.kill()
                killed = True
            time.sleep(0.02)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, time.monotonic() - start

    def run_cli(self, wl, variant: int, tmp: Path, trace: bool, run_id: str):
        """Run the workload's command once in tmp: (exit code, duration in s)."""
        cfg = _write_config(tmp, wl.config(variant))
        argv = [sys.executable, str(CHILD), repr(time.monotonic()), str(tmp / "result.json"),
                "run", "1" if trace else "0", run_id, "--", wl.command, "--config", str(cfg),
                *wl.out_args(tmp)]
        return self.spawn(argv, tmp)

    def sample(self, wl, variant: int, trace: bool, run_id: str) -> Sample:
        tmp = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=self.work))
        try:
            rc, duration = self.run_cli(wl, variant, tmp, trace, run_id)
            result = tmp / "result.json"
            s = Sample(ok=False, duration_s=duration)
            if rc != 0 or not result.is_file():
                s.problems = [f"exit code {rc}: {_tail(tmp / 'child.log')}"]
                return s
            data = json.loads(result.read_text())
            stamps = data["stamps"]
            s.peak_rss_mb = data["peak_rss_mb"]
            s.setup_s = stamps["built"] - stamps["spawn"]
            if "written" not in stamps:
                s.problems = ["no artifact written"]
                return s
            s.wall_s = stamps["written"] - stamps["config"]
            try:
                s.problems = wl.check(tmp, variant)
            except (OSError, ValueError, KeyError) as exc:
                s.problems = [f"artifact unreadable: {exc!r}"]
            if trace:
                s.spans = bench_spans.read_jsonl(str(tmp / "spans.jsonl"))
            s.ok = not s.problems
            return s
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def probe(self, wl, variant: int) -> float | None:
        """One set-up sample: spawn until the correspondence is built, in s."""
        tmp = Path(tempfile.mkdtemp(prefix=f"{wl.name}-probe-", dir=self.work))
        try:
            cfg = _write_config(tmp, wl.config(variant))
            result = tmp / "result.json"
            argv = [sys.executable, str(CHILD), repr(time.monotonic()), str(result), "probe",
                    str(cfg)]
            rc, _duration = self.spawn(argv, tmp)
            if rc != 0 or not result.is_file():
                return None
            stamps = json.loads(result.read_text())["stamps"]
            return stamps["built"] - stamps["spawn"]
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


def _write_config(tmp: Path, cfg: dict) -> Path:
    path = tmp / "config.json"
    path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    return path


def _tail(path: Path, lines: int = 3) -> str:
    try:
        text = path.read_text(errors="replace").strip().splitlines()
    except OSError:
        return ""
    return " | ".join(text[-lines:])


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def provenance(root: Path) -> dict:
    rev = "unknown: not a git checkout"
    if (root / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=30)
            rev = out.stdout.strip() or rev
        except (OSError, subprocess.TimeoutExpired):
            pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "git_revision": rev,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": nproc(),
        "CORRDYN_THREADS": str(nproc()),
        "blas_thread_vars": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
    }


@dataclass
class WorkloadResult:
    name: str
    samples: list
    traced: Sample | None
    setups: list

    @property
    def attempted(self) -> int:
        return len(self.samples) + (self.traced is not None)

    @property
    def failed(self) -> int:
        runs = self.samples + ([self.traced] if self.traced else [])
        return sum(not s.ok for s in runs)


def run_workload(runner: Runner, wl, seed: int, seconds: float, trace: bool) -> WorkloadResult:
    start = time.monotonic()
    variant = seed % wl.variants
    runner.probe(wl, variant)  # warm-up: fills the bytecode cache, not counted
    setups = [s for s in (runner.probe(wl, variant) for _ in range(PROBES)) if s is not None]
    samples: list[Sample] = []
    while True:
        s = runner.sample(wl, variant, False, f"{wl.name}-{seed}-{len(samples)}")
        samples.append(s)
        if s.setup_s is not None:
            setups.append(s.setup_s)
        # room for one more sample like the last, and for the traced one
        room = s.duration_s * (2 if trace else 1)
        if time.monotonic() - start + room > seconds or time.monotonic() > runner.deadline:
            break
    traced = runner.sample(wl, variant, True, f"{wl.name}-{seed}-traced") if trace else None
    return WorkloadResult(wl.name, samples, traced, setups)


def _median(values: list) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end(res: WorkloadResult) -> dict:
    ok = [s for s in res.samples if s.ok] or [s for s in res.samples if s.wall_s is not None]
    return {
        "wall_s": (_median([s.wall_s for s in ok]), "s", len(ok)),
        "setup_s": (_median(res.setups), "s", len(res.setups)),
        "peak_rss_mb": (_median([s.peak_rss_mb for s in ok]), "MB", len(ok)),
    }


def report_end_to_end(res: WorkloadResult) -> dict:
    metrics = end_to_end(res)
    print(f"workload {res.name}: {res.attempted} samples, {res.failed} failed")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<12} {value:12.4f} {unit:<3} median of {n}")
    print(f"  {'error_rate':<12} {res.failed / max(1, res.attempted):12.4f} "
          f"    {res.failed} of {res.attempted} runs")
    _report_problems(res)
    return {k: {"value": v, "unit": u} for k, (v, u, _n) in metrics.items()}


def report_per_layer(res: WorkloadResult) -> dict:
    _report_problems(res)
    if res.traced is None or res.traced.spans is None:
        print(f"workload {res.name}: the traced sample left no spans")
        return {}
    spans, meta = res.traced.spans
    untraced = end_to_end(res)["wall_s"][0]
    metrics, absent = bench_spans.layer_metrics(spans, meta, untraced)
    print(f"workload {res.name}: traced sample, {len(spans)} spans")
    for name, unit in bench_spans.per_layer_names():
        if name in metrics:
            print(f"  {name:<36} {metrics[name][0]:16.6f} {unit}")
        else:
            print(f"  {name:<36} {'absent':>16} ({absent.get(name, 'not recorded')})")
    self_sum = sum(v for k, (v, u) in metrics.items() if u == "s" and not k.startswith("trace."))
    wall, overhead = metrics["trace.wall_s"][0], metrics["trace.overhead_s"][0]
    print(f"  self times sum to {self_sum:.6f} s; traced wall {wall:.6f} s; "
          f"difference {abs(self_sum - wall):.2e} s; tracing overhead {overhead:.4f} s")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def _report_problems(res: WorkloadResult) -> None:
    for s in res.samples + ([res.traced] if res.traced else []):
        for p in s.problems:
            print(f"  FAILED: {p}")


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "corrdyn" / "__init__.py").is_file():
        print(f"error: {root} is not a corrdyn checkout (no src/corrdyn); run from its root",
              file=sys.stderr)
        return 2
    runner = Runner(root, started)
    runner.work.mkdir(exist_ok=True)
    print("provenance " + json.dumps(provenance(root), sort_keys=True))

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    seconds = args.seconds / len(names)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        res = run_workload(runner, WORKLOADS[name], args.seed, seconds, bool(args.trace))
        attempted += res.attempted
        failed += res.failed
        found = report_per_layer(res) if args.trace else report_end_to_end(res)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in found.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
