"""Write every CLI artifact of a corrdyn checkout under one directory.

    python3 tools/write_artifacts.py OUT [--checkout DIR]

Each run is its own `python -m corrdyn.cli` process with PYTHONPATH=DIR/src,
started in its own directory OUT/<run>, so the relative `out/...` paths of the
configs land there.  The runs are:

* every `configs/*.json` under the command CONFIG_COMMANDS names for it (a
  config missing from the table is an error, before anything runs);
* `verify` at rng_seed 0 to 7, writing its JSON report;
* two `orbit` runs: the family a = 4 from 0.3 + 0.2i, -3 and infinity at
  depth 6, and the two-component correspondence identity and negation at
  depth 4.

Next to each run's artifacts go its `stdout`, `stderr` and `exit_code`.  Each
run's wall seconds (from start to reaping the child) and peak resident memory
(`ru_maxrss` of the child, from `os.wait4`) are printed to stdout, one line a
run; nothing else is written under OUT.  Two runs go at once, so a run's wall
time includes whatever the other one takes from a shared core.  This script
imports no numpy, so its own peak stays below every child's.  DIR
defaults to the checkout that holds this script.  To compare two checkouts,
write each one's artifacts and `diff -r` the two OUT directories.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

#: the command each checked-in config runs
CONFIG_COMMANDS = {
    "accept_c07_entropy_z2.json": "entropy",
    "accept_c08_entropy_fa4.json": "entropy",
    "accept_c09_entropy_frs.json": "entropy",
    "accept_c10_equidist_a4.json": "equidist",
    "accept_c10_reject_a5.json": "equidist",
    "accept_c11_metric_fa4.json": "entropy",
    "accept_c12_det_entropy.json": "entropy",
    "accept_c12_det_equidist.json": "equidist",
    "accept_c12_det_limitset.json": "limitset",
    "demo_cov_cubic.json": "cov",
    "demo_limitset_fa4.json": "limitset",
}
VERIFY_SEEDS = range(8)


def _component(coeffs):
    return {"multiplicity": 1, "poly": {"deg_z": 1, "deg_w": 1, "coeffs": coeffs}}


ORBIT_CONFIGS = {
    "orbit_family_a4": {
        "correspondence": {"kind": "family_a", "a": 4},
        "seeds": [[0.3, 0.2], -3, "inf"],
        "n": 6,
    },
    # w - z and w + z: each step is labeled with the component it takes
    "orbit_identity_and_negation": {
        "correspondence": {"kind": "explicit", "data": {
            "components": [_component([0, 1, -1, 0]), _component([0, 1, 1, 0])]}},
        "seeds": [[0.3, 0.2], -3, "inf"],
        "n": 4,
    },
}


def runs(checkout: Path) -> dict:
    """{run name: CLI arguments}, each run's config files written by the caller."""
    configs = sorted(p.name for p in (checkout / "configs").glob("*.json"))
    unknown = [name for name in configs if name not in CONFIG_COMMANDS]
    if unknown:
        raise SystemExit(f"no command known for configs/{', configs/'.join(unknown)}")
    out = {Path(name).stem: [CONFIG_COMMANDS[name], "--config", str(checkout / "configs" / name)]
           for name in configs}
    for seed in VERIFY_SEEDS:
        out[f"verify_seed{seed}"] = ["verify", "--set", f"rng_seed={seed}",
                                     "--set", "out=out/verify.json"]
    for name in ORBIT_CONFIGS:
        out[name] = ["orbit", "--config", "orbit.json"]
    return out


def run_one(checkout: Path, where: Path, args: list) -> tuple:
    """Run one CLI call in `where`; its wall seconds and peak resident memory in MB."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    with open(where / "stdout", "wb") as out, open(where / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "corrdyn.cli", *args], cwd=where,
                                env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    (where / "exit_code").write_text(f"{proc.returncode}\n")
    return wall, usage.ru_maxrss / 1024  # kB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="directory to write into; must not exist")
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parents[1],
                        help="corrdyn checkout whose src/ and configs/ are run")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    todo = runs(checkout)
    args.out.mkdir(parents=True)
    for name in todo:
        (args.out / name).mkdir()
    for name, cfg in ORBIT_CONFIGS.items():
        (args.out / name / "orbit.json").write_text(json.dumps(dict(cfg, out="out/orbit.json")))
    with ThreadPoolExecutor(max_workers=2) as pool:  # each run is one process
        results = pool.map(lambda name: run_one(checkout, args.out / name, todo[name]), todo)
        for name, (wall, peak) in zip(todo, results):
            print(f"{name}: wall {wall:.2f} s, peak RSS {peak:.1f} MB", flush=True)
    failed = [name for name in todo if (args.out / name / "exit_code").read_text() != "0\n"]
    print(f"{len(todo)} runs written under {args.out}; nonzero exit: {', '.join(failed) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
