"""Experiment configuration: JSON files with CLI overrides, and their readers.

Every reproducible run is a single JSON file; command-line `--set key=value`
pairs override individual (possibly nested, dot-separated) fields.  Values
are parsed as JSON when possible, otherwise kept as strings.  Every value,
down to the coefficients of a map or a graph polynomial, is read here by one
typed field reader, reader(value, path, **range), under one number rule
(`is_number`); a `Section` refuses the keys no reader read, at every level.
A value that cannot run raises UsageError naming its dotted path, for
example `data.components[0].poly.coeffs[2] must be a number or an [re, im]
pair, got true`.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

from .correspondence import Correspondence, compose, deleted_covering, map_graph, mobius_correspondence
from .entropy import EntropyProtocol, seed_net
from .errors import UsageError
from .families import RegionSpec, composed_covering_pair, family_correspondence
from .graphpoly import GraphPolynomial
from .measures import GridPartition
from .rational import MobiusMap, RationalMap
from .raster import Viewport
from .sphere import SpherePoint


def load_config(path: str | None, overrides=()) -> dict:
    cfg = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                cfg = json.load(fh, parse_float=_finite, parse_constant=_finite)
        except FileNotFoundError as exc:
            raise UsageError(f"config file not found: {path}") from exc
        except (ValueError, RecursionError) as exc:
            # not JSON, not UTF-8, an integer past int()'s digit limit, or nested past the stack
            raise UsageError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise UsageError("config root must be a JSON object")
    for item in overrides:
        if "=" not in item:
            raise UsageError(f"override must look like key=value: {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw, parse_float=_finite, parse_constant=_finite)
        except RecursionError as exc:
            raise UsageError(f"override {key!r} is nested past the stack") from exc
        except ValueError:
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


REQUIRED = object()  # the default of a field that must be present


class Section:
    """One config object, read field by field; `close` refuses the keys no field
    read.  A field's path is prefix + key, the prefix `name.` unless given."""

    def __init__(self, data, name: str, prefix: str | None = None):
        self.data, self.name, self.read = json_object(data, name), name, set()
        self.prefix = f"{name}." if prefix is None else prefix

    def field(self, key: str, reader=None, default=REQUIRED, **bounds):
        """data[key] checked by reader(value, path, **bounds); default when absent."""
        self.read.add(key)
        path = self.prefix + key
        if key not in self.data:
            if default is REQUIRED:
                raise UsageError(f"config field {path!r} is required")
            return default
        value = self.data[key]
        return value if reader is None else reader(value, path, **bounds)

    def close(self) -> None:
        unknown = sorted(set(self.data) - self.read)
        if unknown:
            raise UsageError(f"{self.name} has unknown key(s): {', '.join(unknown)}")


def is_number(x) -> bool:
    """The JSON number rule: an int or float, not a boolean, within the float range."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _valid(ok: bool, value, what: str, kind: str):
    """value when ok; else the one usage error, `what` must be `kind`."""
    if ok:
        return value
    raise UsageError(f"{what} must be {kind}, got {value!r}")


def integer(value, what: str, least: int = 1, below: int | None = None) -> int:
    """An integer >= least (and < below when given)."""
    bound = "" if below is None else f" and < {below}"
    ok = type(value) is int and is_number(value) and least <= value
    ok = ok and (below is None or value < below)
    return _valid(ok, value, what, f"an integer >= {least}{bound}")


def number(value, what: str, positive: bool = False):
    """A number (> 0 when positive)."""
    return _valid(is_number(value) and (value > 0 or not positive), value, what,
                  "a number > 0" if positive else "a number")


def complex_number(value, what: str) -> complex:
    """A number or an [re, im] pair of numbers."""
    parts = value if type(value) is list and len(value) == 2 else [value, 0]
    _valid(all(is_number(x) for x in parts), value, what, "a number or an [re, im] pair")
    return complex(*parts)


def point(value, what: str) -> SpherePoint:
    """A number, an [re, im] pair, or "inf" (or "infinity")."""
    if value in ("inf", "infinity"):
        return SpherePoint.infinity()
    return SpherePoint.from_complex(complex_number(value, what))


def boolean(value, what: str) -> bool:
    return _valid(type(value) is bool, value, what, "true or false")


def string(value, what: str, options: tuple | None = None) -> str:
    """A string; one of options when they are given."""
    kind = "a string" if options is None else f"one of {', '.join(options)}"
    return _valid(type(value) is str and (options is None or value in options), value, what, kind)


def list_of(value, what: str, item=None, length: int | None = None, **bounds) -> list:
    """A non-empty list (of `length` items when given), each checked by item(v, path, **bounds)."""
    ok = type(value) is list and len(value) > 0 and length in (None, len(value))
    _valid(ok, value, what, "a non-empty list" if length is None else f"a list of {length}")
    return value if item is None else [item(v, f"{what}[{i}]", **bounds) for i, v in enumerate(value)]


def json_object(value, what: str) -> dict:
    return _valid(type(value) is dict, value, what, "an object")


def read_protocol(data, name: str = "protocol") -> EntropyProtocol:
    """The entropy protocol: eps > 0, n_max >= n_min >= 1, positive budgets and sizes."""
    s, d = Section(data, name), EntropyProtocol()
    protocol = EntropyProtocol(
        eps_grid=tuple(s.field("eps_grid", list_of, d.eps_grid, item=number, positive=True)),
        n_max=s.field("n_max", integer, d.n_max),
        n_min=s.field("n_min", integer, d.n_min),
        budget=s.field("budget", integer, d.budget),
        seed_strategy=s.field("seed_strategy", string, d.seed_strategy,
                              options=("net", "square_grid")),
        grid_size=s.field("grid_size", integer, d.grid_size),
        resolution_factor=s.field("resolution_factor", number, d.resolution_factor, positive=True),
        pair_budget=s.field("pair_budget", integer, d.pair_budget),
    )
    s.close()
    _valid(protocol.n_max >= protocol.n_min, protocol.n_max, f"{name}.n_max",
           f">= {name}.n_min ({protocol.n_min})")
    for eps in protocol.eps_grid:  # seed indices are int64
        _valid(seed_net(protocol, eps)[0] < 2 ** 63, eps, f"{name}.eps_grid entry",
               f"an eps whose {protocol.seed_strategy} seeds number below 2^63")
    return protocol


def read_viewport(data, name: str = "viewport") -> Viewport:
    """A window with number bounds, re_min < re_max and im_min < im_max."""
    s = Section(data, name)
    vp = Viewport(**{key: s.field(key, number, v) for key, v in Viewport().to_json().items()})
    s.close()
    if not (vp.re_min < vp.re_max and vp.im_min < vp.im_max):
        raise UsageError(f"{name} needs re_min < re_max and im_min < im_max")
    return vp


def read_region(data, name: str = "region") -> RegionSpec:
    """A disk (radius > 0), half_plane (normal != 0) or complement region."""
    s = Section(data, name)
    kind = s.field("kind", string, options=("disk", "half_plane", "complement"))
    if kind == "disk":
        region = RegionSpec(kind, center=s.field("center", complex_number),
                            radius=float(s.field("radius", number, positive=True)))
    elif kind == "half_plane":
        normal = s.field("normal", complex_number)
        _valid(normal != 0, normal, f"{name}.normal", "nonzero")
        region = RegionSpec(kind, point=s.field("point", complex_number), normal=normal)
    else:
        region = RegionSpec(kind, of=s.field("of", read_region))
    s.close()
    return region


def read_metric(data, name: str = "metric"):
    """The metric section: (cloud seed, cloud generation, partition, N_max, budget)."""
    s = Section(data, name)
    metric = (
        s.field("cloud_seed", point),
        s.field("cloud_generation", integer, least=0),
        GridPartition(*s.field("partition", list_of, [4, 4], item=integer, length=2)),
        s.field("N_max", integer, 6),
        s.field("budget", integer, 2 ** 18),
    )
    s.close()
    return metric


def read_map(data, name: str = "map") -> RationalMap:
    """A rational map {num, den}: coefficient lists, ascending degree."""
    s = Section(data, name)
    num, den = (s.field(key, list_of, item=complex_number) for key in ("num", "den"))
    s.close()
    return RationalMap(num, den)


def read_poly(data, name: str = "poly") -> GraphPolynomial:
    """A graph polynomial {deg_z, deg_w, coeffs}: (deg_z + 1)(deg_w + 1)
    coefficients of z^i w^j, row by row (i major), not all zero."""
    s = Section(data, name)
    m, n = (s.field(key, integer, least=0) for key in ("deg_z", "deg_w"))
    coeffs = s.field("coeffs", list_of, item=complex_number, length=(m + 1) * (n + 1))
    s.close()
    _valid(any(coeffs), s.data["coeffs"], f"{name}.coeffs", "a list with a nonzero coefficient")
    return GraphPolynomial(np.reshape(coeffs, (m + 1, n + 1)))


def read_component(data, name: str) -> tuple:
    """One direct component {poly, multiplicity >= 1}."""
    s = Section(data, name)
    component = (s.field("poly", read_poly), s.field("multiplicity", integer))
    s.close()
    return component


def read_correspondence_data(data, name: str = "data") -> Correspondence:
    """A correspondence: exactly one of components [{poly, multiplicity}, ...]
    and chain [data, ...] (last factor applied first); d1 and d2, when given,
    must be the bidegree it builds."""
    s = Section(data, name)
    given = [k for k in ("components", "chain") if k in s.data]
    _valid(len(given) == 1, data, name, "an object with exactly one of components and chain")
    key = given[0]
    reader = read_component if key == "components" else read_correspondence_data
    # read here, not by list_of, so that a chain level costs two stack frames,
    # as in the JSON decoder: a chain that parses is read, but for its last levels
    parts = [reader(v, f"{name}.{key}[{i}]") for i, v in enumerate(s.field(key, list_of))]
    degrees = {k: s.field(k, integer, None) for k in ("d1", "d2")}
    s.close()
    C = Correspondence(**{key: parts})
    for k, built in (("d1", C.d1), ("d2", C.d2)):
        _valid(degrees[k] in (None, built), degrees[k], f"{name}.{k}", f"{built}, the built {k}")
    return C


def build_correspondence(spec, prefix: str = "") -> Correspondence:
    """Correspondence from its config description: family_a {a}; covering {map};
    covering_pair {R, S}; map_graph {map, orientation}; mobius {matrix:
    [[a,b],[c,d]]}; compose {factors: [spec...]} (last factor applied first);
    explicit {data: read_correspondence_data}.  Field paths start with prefix."""
    s = Section(spec, prefix.rstrip(".") or "correspondence spec", prefix=prefix)
    kind = s.field("kind", string, options=(
        "family_a", "covering", "covering_pair", "map_graph", "mobius", "compose", "explicit"))
    if kind == "family_a":
        C = family_correspondence(s.field("a", complex_number))
    elif kind == "covering":
        C = deleted_covering(s.field("map", read_map))
    elif kind == "covering_pair":
        C = composed_covering_pair(*(s.field(k, read_map) for k in "RS"))
    elif kind == "map_graph":
        orientation = s.field("orientation", string, "forward", options=("forward", "backward"))
        C = map_graph(s.field("map", read_map), backward=orientation == "backward")
    elif kind == "mobius":
        m, what = s.field("matrix"), prefix + "matrix"
        square = type(m) is list and len(m) == 2 and all(type(r) is list and len(r) == 2 for r in m)
        _valid(square, m, what, "2x2, [[a, b], [c, d]]")
        C = mobius_correspondence(MobiusMap(*(complex_number(x, what) for x in m[0] + m[1])))
    elif kind == "compose":
        factors = [build_correspondence(f, f"{prefix}factors[{i}].")
                   for i, f in enumerate(s.field("factors", list_of))]
        C = factors[-1]
        for f in reversed(factors[:-1]):
            C = compose(f, C)
    else:
        try:
            C = s.field("data", read_correspondence_data)
        except RecursionError as exc:  # a chain just short of the JSON decoder's depth limit
            raise UsageError(f"{prefix}data nests chains past the stack") from exc
    s.close()
    return C


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
