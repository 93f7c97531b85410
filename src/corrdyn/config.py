"""Experiment configuration: JSON files with CLI overrides.

Every reproducible run is a single JSON file; command-line `--set key=value`
pairs override individual (possibly nested, dot-separated) fields.  Values
are parsed as JSON when possible, otherwise kept as strings.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

from .correspondence import Correspondence, compose, deleted_covering, map_graph, mobius_correspondence
from .errors import UsageError
from .families import composed_covering_pair, family_correspondence
from .rational import MobiusMap, RationalMap


def load_config(path: str | None, overrides=()) -> dict:
    cfg = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                cfg = json.load(fh, parse_float=_finite, parse_constant=_finite)
        except FileNotFoundError as exc:
            raise UsageError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise UsageError("config root must be a JSON object")
    for item in overrides:
        if "=" not in item:
            raise UsageError(f"override must look like key=value: {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw, parse_float=_finite, parse_constant=_finite)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise UsageError(f"cannot override through non-object field {part!r}")
        node[parts[-1]] = value
    return cfg


def _finite(token: str) -> float:
    """JSON number hook: NaN, Infinity and literals that overflow are refused."""
    value = float(token)
    if not math.isfinite(value):
        raise UsageError(f"config numbers must be finite, got {token}")
    return value


def require(cfg: dict, key: str):
    if key not in cfg:
        raise UsageError(f"config field {key!r} is required")
    return cfg[key]


def int_field(cfg: dict, key: str, default: int | None, least: int, below: int | None = None) -> int:
    """cfg[key] (default when absent; required when default is None), which
    must be an integer >= least (and < below when given)."""
    value = require(cfg, key) if default is None else cfg.get(key, default)
    if type(value) is not int or value < least or (below is not None and value >= below):
        bound = "" if below is None else f" and < {below}"
        raise UsageError(f"{key} must be an integer >= {least}{bound}, got {value!r}")
    return value


def list_field(cfg: dict, key: str) -> list:
    """cfg[key], which must be a non-empty list."""
    value = require(cfg, key)
    if type(value) is not list or not value:
        raise UsageError(f"{key} must be a non-empty list, got {value!r}")
    return value


def object_field(cfg: dict, key: str) -> dict:
    """cfg[key], which must be a JSON object."""
    value = require(cfg, key)
    if type(value) is not dict:
        raise UsageError(f"{key} must be an object, got {value!r}")
    return value


def build_correspondence(spec) -> Correspondence:
    """Correspondence from its config description.

    kinds: family_a {a}; covering {map}; covering_pair {R, S};
    map_graph {map, orientation}; mobius {matrix: [[a,b],[c,d]]};
    compose {factors: [spec...]} (last factor applied first);
    explicit {data: Correspondence JSON}.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise UsageError("correspondence spec must be an object with a 'kind'")
    kind = spec["kind"]
    if kind == "family_a":
        return family_correspondence(_complex_field(require(spec, "a")))
    if kind == "covering":
        return deleted_covering(RationalMap.from_json(object_field(spec, "map")))
    if kind == "covering_pair":
        return composed_covering_pair(
            RationalMap.from_json(object_field(spec, "R")),
            RationalMap.from_json(object_field(spec, "S")),
        )
    if kind == "map_graph":
        orientation = spec.get("orientation", "forward")
        if orientation not in ("forward", "backward"):
            raise UsageError("orientation must be forward or backward")
        return map_graph(
            RationalMap.from_json(object_field(spec, "map")),
            backward=orientation == "backward",
        )
    if kind == "mobius":
        m = require(spec, "matrix")
        if type(m) is not list or len(m) != 2 or any(type(r) is not list or len(r) != 2 for r in m):
            raise UsageError(f"matrix must be 2x2, [[a, b], [c, d]], got {m!r}")
        (a, b), (c, d) = m
        return mobius_correspondence(
            MobiusMap(_complex_field(a), _complex_field(b), _complex_field(c), _complex_field(d))
        )
    if kind == "compose":
        factors = [build_correspondence(s) for s in list_field(spec, "factors")]
        out = factors[-1]
        for f in reversed(factors[:-1]):
            out = compose(f, out)
        return out
    if kind == "explicit":
        return Correspondence.from_json(object_field(spec, "data"))
    raise UsageError(f"unknown correspondence kind {kind!r}")


def _complex_field(v) -> complex:
    """A number or an [re, im] pair of numbers; a JSON boolean is not a number."""
    parts = v if isinstance(v, (list, tuple)) and len(v) == 2 else [v, 0]
    if all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in parts):
        return complex(*parts)
    raise UsageError(f"expected a number or [re, im] pair, got {v!r}")


def thread_count() -> int:
    raw = os.environ.get("CORRDYN_THREADS", "1")
    try:
        n = int(raw)
    except ValueError as exc:
        raise UsageError(f"CORRDYN_THREADS must be an integer, got {raw!r}") from exc
    return max(1, n)


def make_parent(path: str) -> None:
    """Create an output's directory.  Commands call it after validation and
    before the work, so an unwritable output (under a file, say) fails at once."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)


def write_text(path: str, text: str):
    make_parent(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_json(path: str, data) -> None:
    write_text(path, json.dumps(data, indent=2, sort_keys=True) + "\n")


def write_bytes(path: str, data: bytes):
    make_parent(path)
    with open(path, "wb") as fh:
        fh.write(data)
