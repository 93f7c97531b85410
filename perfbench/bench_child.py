"""One benchmark sample: a fresh process that runs the corrdyn CLI once.

    python3 bench_child.py SPAWN_T RESULT_JSON run TRACE RUN_ID -- CORRDYN_ARGS...
    python3 bench_child.py SPAWN_T RESULT_JSON probe CONFIG

SPAWN_T is the parent's time.monotonic() just before it started this process
(CLOCK_MONOTONIC is shared by all processes of the machine).  The child
records when the CLI starts reading its config, when the correspondence is
built and when each artifact is written, and writes those times, the exit
code and its own peak RSS to RESULT_JSON.  With TRACE 1 it also records
spans (see bench_spans) and writes them next to RESULT_JSON as spans.jsonl.  `probe` only imports
corrdyn and builds the correspondence of CONFIG: a set-up sample.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import bench_spans


def _after(fn, stamps: dict, key: str, first_only: bool = False):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        if not (first_only and key in stamps):
            stamps[key] = time.monotonic()
        return result

    return wrapper


def _before(fn, stamps: dict, key: str):
    def wrapper(*args, **kwargs):
        stamps.setdefault(key, time.monotonic())
        return fn(*args, **kwargs)

    return wrapper


def main(argv: list[str]) -> int:
    spawn_t, result_path, mode = float(argv[0]), Path(argv[1]), argv[2]
    stamps: dict = {"spawn": spawn_t}
    if mode == "probe":
        from corrdyn.cli import build_correspondence, load_config

        build_correspondence(load_config(argv[3])["correspondence"])
        stamps["built"] = time.monotonic()
        result_path.write_text(json.dumps({"rc": 0, "stamps": stamps}))
        return 0

    trace, run_id = argv[3] == "1", argv[4]
    cli_args = argv[argv.index("--") + 1 :]
    import corrdyn.cli as cli

    rec = None
    if trace:
        rec = bench_spans.Recorder(run_id)
        bench_spans.install(rec)
    cli.load_config = _before(cli.load_config, stamps, "config")
    cli.build_correspondence = _after(cli.build_correspondence, stamps, "built", first_only=True)
    for name in ("write_json", "write_text", "write_bytes"):
        setattr(cli, name, _after(getattr(cli, name), stamps, "written"))
    if rec is None:
        rc = cli.main(cli_args)
    else:
        rc = bench_spans.traced_call(rec, "cli.main", cli.main, cli_args)
    peak = bench_spans.peak_rss_mb()
    if rec is not None:
        rec.write_jsonl(str(result_path.with_name("spans.jsonl")))
    result_path.write_text(json.dumps({"rc": rc, "stamps": stamps, "peak_rss_mb": peak}))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
