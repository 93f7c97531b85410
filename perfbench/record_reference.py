"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Run from the root of a corrdyn checkout at the commit whose outputs are the
reference.  Runs each input variant of each named workload (default: all)
once and writes what the output check compares into perfbench/reference/.
"""

from __future__ import annotations

import math
import shutil
import sys
import tempfile
import time
from pathlib import Path

from bench_workloads import WORKLOADS
from run import Runner, _tail


def main(names: list[str]) -> int:
    runner = Runner(Path.cwd(), time.monotonic())
    runner.deadline = math.inf
    runner.work.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        wl = WORKLOADS[name]
        for variant in range(wl.variants):
            tmp = Path(tempfile.mkdtemp(prefix=f"{name}-record-", dir=runner.work))
            try:
                rc, duration = runner.run_cli(wl, variant, tmp, False, f"{name}-record")
                if rc != 0:
                    print(f"{name} variant {variant}: exit code {rc}: {_tail(tmp / 'child.log')}")
                    return 1
                path = wl.record(tmp, variant)
                print(f"{name} variant {variant}: {duration:.1f} s -> {path}")
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
