"""JSON run configuration (schema version 1).

SECTIONS gives the kind of every section key, and one reader, ``_read``,
checks and converts every value (a number to a float): the section keys in
load_config, the values of the nested specs in their parsers.  A value of
another kind (a bool for a number, say), an unknown key, or an omega or
curvature spec that sets more than one variant is a ConfigError naming it.

Scalar data (f, mu, u0) is specified as ``{"constant": x}`` and/or
``{"modes": [{"k": [k1, ...], "amplitude": [re, im]}, ...]}``; each mode
contributes ``2 Re(A exp(i 2 pi k.x / L))`` so the materialized field is
real.  Mode vectors must stay below the dealiasing cutoff N//3.  Complex
scalars are written as ``[re, im]`` pairs throughout.

On the grid x_a = j_a L / N the phase 2 pi k_a x_a / L is 2 pi (k_a j_a mod N) / N:
L cancels and each axis's phase is reduced mod N, so a mode is an outer
product of per-axis vectors read from one table of exp(2 pi i m / N).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import sampling
from .errors import ConfigError
from .flow import DtControl
from .grid import TWO_PI, PeriodicGrid
from .snapshot import KIND_CURV, KIND_HERM3, read_snapshot

_NUMBER = (int, float)  # the JSON numbers: a bool is no number
# kind -> (the test its values pass, their conversion); error messages and the
# README's key table name the kinds
_KINDS = {
    "integer": (lambda v: type(v) is int, None),
    "integer >= 0": (lambda v: type(v) is int and v >= 0, None),
    "number": (lambda v: type(v) in _NUMBER, float),
    "number or null": (lambda v: v is None or type(v) in _NUMBER, float),
    "boolean": (lambda v: type(v) is bool, None),
    "string": (lambda v: type(v) is str, None),
    "list of finite numbers": (
        lambda v: type(v) is list and all(type(x) in _NUMBER and math.isfinite(x) for x in v),
        lambda v: [float(x) for x in v],
    ),
    "nested spec": (lambda v: True, None),  # read by the spec's parser; null is its default
    "complex number": (
        lambda v: type(v) in _NUMBER
        or type(v) is list and len(v) == 2 and all(type(x) in _NUMBER for x in v),
        lambda v: complex(*v) if type(v) is list else complex(v),
    ),
    "list of integers": (lambda v: type(v) is list and all(type(x) is int for x in v), None),
    "list": (lambda v: type(v) is list, None),
    "object": (lambda v: type(v) is dict, None),
}

COMMANDS = ("verify", "symbol", "flow-fuyau", "flow-torus")
# section -> {key: kind} for the keys the runners read; load_config rejects any
# other key, and the parsers of the nested specs check theirs the same way (_check_keys)
SECTIONS = {
    "output": {"dir": "string", "snapshot_interval": "integer"},
    "grid": {"complex_dims": "integer", "points_per_dim": "integer", "period": "number"},
    "time": {"t_final": "number", "cfl": "number", "dt_fixed": "number or null",
             "dt_max": "number", "dt_min": "number"},
    "symbol": {"omega": "nested spec", "curvature": "nested spec", "abs_omega": "number",
               "alpha_list": "list of finite numbers", "n_dirs": "integer"},
    "fuyau": {"alpha_prime": "number", "f": "nested spec", "mu": "nested spec", "u0": "nested spec"},
    "torus": {"alpha_prime": "number", "abs_omega": "number", "fixture_seed": "integer >= 0",
              "amplitude": "number", "kmax": "integer", "stationary": "boolean"},
}


@dataclass
class RunConfig:
    command: str
    seed: int
    out_dir: str
    snapshot_interval: int
    raw: dict = field(repr=False, default_factory=dict)


def _read(value, kind: str, name: str):
    """The one reader of config values: value checked to be of kind, and converted."""
    test, convert = _KINDS[kind]
    try:
        if test(value):
            return value if convert is None or value is None else convert(value)
    except OverflowError:  # an integer beyond the range of a float
        pass
    article = "an" if kind[0] in "aeiou" else "a"
    raise ConfigError(f"{name} must be {article} {kind}, got {value!r}")


def _section(name: str, spec: dict) -> dict:
    """The keys a section sets, each read as the kind SECTIONS gives it."""
    return {key: _read(value, SECTIONS[name][key], f"{name}.{key}") for key, value in spec.items()}


def _check_keys(spec, allowed, where: str = "") -> None:
    """Raise a ConfigError naming every key of spec (prefixed by where) not in allowed."""
    unknown = sorted(f"{where}{key}" for key in set(spec) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")


def _one_variant(spec, variants, name: str) -> str:
    """The one variant key an object spec sets; only a snapshot may add its grid index "at"."""
    _read(spec, "object", f"{name} spec")
    chosen = [key for key in variants if key in spec]
    _check_keys(spec, chosen + ["at"] if chosen == ["snapshot"] else chosen, f"{name}.")
    if len(chosen) != 1:
        raise ConfigError(
            f"{name} spec needs exactly one of {', '.join(variants)}, got {', '.join(chosen) or 'none'}"
        )
    return chosen[0]


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    _read(raw, "object", "config")
    sections = {name: _read(raw.get(name, {}), "object", f"config section {name!r}") for name in SECTIONS}
    # every section key qualified by its section, so one error names them all
    _check_keys(
        [key for key in raw if key not in SECTIONS]
        + [f"{name}.{key}" for name, spec in sections.items() for key in spec],
        ["command", "seed"] + [f"{name}.{key}" for name, kinds in SECTIONS.items() for key in kinds],
    )
    command = raw.get("command")
    if command not in COMMANDS:
        raise ConfigError(f"command must be one of {COMMANDS}, got {command!r}")
    raw |= {name: _section(name, spec) for name, spec in sections.items()}
    return RunConfig(
        command=command,
        seed=_read(raw.get("seed", 0), "integer >= 0", "seed"),
        out_dir=raw["output"].get("dir", "."),
        snapshot_interval=raw["output"].get("snapshot_interval", 0),
        raw=raw,
    )


def parse_grid(spec: dict, defaults: dict) -> PeriodicGrid:
    """The grid of a read grid section; each key it leaves out is taken from defaults."""
    return PeriodicGrid(**(defaults | spec))


def materialize_scalar(grid: PeriodicGrid, spec, name="field") -> np.ndarray:
    """Real scalar field from a {constant, modes} specification, a number, or null (zero)."""
    if not isinstance(spec, dict):
        spec = {} if spec is None else {"constant": _read(spec, "number", name)}
    _check_keys(spec, ("constant", "modes"), f"{name}.")
    out = np.full(grid.shape, _read(spec.get("constant", 0.0), "number", f"{name}.constant"))
    n = grid.points_per_dim
    j = np.arange(n)
    table = np.exp(1j * (TWO_PI / n) * j)
    for mode in _read(spec.get("modes", []), "list", f"{name}.modes"):
        _read(mode, "object", f"{name}: each mode")
        _check_keys(mode, ("k", "amplitude"), f"{name} mode.")
        k = _read(mode.get("k"), "list of integers", f"{name} mode.k")
        a = _read(mode.get("amplitude"), "complex number", f"{name} mode.amplitude")
        if len(k) != 2 * grid.complex_dims:
            raise ConfigError(f"{name} mode.k needs {2 * grid.complex_dims} entries, got {k}")
        if max(map(abs, k)) > grid.dealias_kmax:
            raise ConfigError(
                f"{name}: mode {k} exceeds the dealiasing cutoff {grid.dealias_kmax}"
            )
        wave = np.asarray(a)
        for ki in k:
            wave = np.multiply.outer(wave, table[ki * j % n])
        out += 2.0 * wave.real
    return out


def parse_matrix(spec, shape, name="matrix") -> np.ndarray:
    """A complex array of the given shape, written as nested lists of complex numbers."""

    def rows(x, axes):
        if not axes:
            return _read(x, "complex number", name)
        if not (type(x) is list and len(x) == axes[0]):
            raise ConfigError(f"{name} must be nested lists of shape {shape}, got {x!r}")
        return [rows(y, axes[1:]) for y in x]

    return np.asarray(rows(spec, shape), dtype=complex)


def _snapshot_point(spec, kind, name, kind_name) -> np.ndarray:
    """The value of a snapshot field at the grid index spec["at"] (default: the origin)."""
    grid, fieldv, got = read_snapshot(_read(spec["snapshot"], "string", f"{name}.snapshot"))
    if got != kind:
        raise ConfigError(f"{name} snapshot must hold {kind_name} field")
    naxes, n = 2 * grid.complex_dims, grid.points_per_dim
    at = _read(spec.get("at", [0] * naxes), "list of integers", f"{name}.at")
    if len(at) != naxes or not all(0 <= i < n for i in at):
        raise ConfigError(f"{name} snapshot: at needs {naxes} indices in [0, {n}), got {at}")
    return np.asarray(fieldv[tuple(at)], dtype=complex)


def parse_omega_point(spec) -> np.ndarray:
    spec = {"identity": 1.0} if spec is None else spec
    variant = _one_variant(spec, ("identity", "inline", "snapshot"), "omega")
    if variant == "identity":
        return _read(spec["identity"], "number", "omega.identity") * np.eye(3, dtype=complex)
    if variant == "inline":
        return parse_matrix(spec["inline"], (3, 3), "omega.inline")
    return _snapshot_point(spec, KIND_HERM3, "omega", "a Herm3")


def parse_curvature(spec, seed, omega) -> np.ndarray:
    spec = {"zero": True} if spec is None else spec
    variant = _one_variant(
        spec, ("zero", "adversarial", "random", "inline", "snapshot"), "curvature"
    )
    if variant == "zero":
        if spec["zero"] is not True:
            raise ConfigError(f"curvature.zero must be true, got {spec['zero']!r}")
        return np.zeros((3, 3, 3, 3), dtype=complex)
    if variant == "adversarial":
        return sampling.trace_curvature(_read(spec["adversarial"], "number", "curvature.adversarial"))
    if variant == "random":
        sub = _read(spec["random"], "object", "curvature random spec")
        _check_keys(sub, ("scale", "seed"), "curvature.random.")
        seed = _read(sub.get("seed", seed), "integer >= 0", "curvature.random.seed")
        rng = np.random.default_rng(seed)
        scale = _read(sub.get("scale", 1.0), "number", "curvature.random.scale")
        # reality-respecting relative to the metric it will be used with
        return sampling.random_curvature_for_metric(rng, omega, scale)
    if variant == "inline":
        return parse_matrix(spec["inline"], (3, 3, 3, 3), "curvature.inline")
    return _snapshot_point(spec, KIND_CURV, "curvature", "a curvature")


def parse_time(spec) -> tuple[float, DtControl]:
    """(t_final, time control) of a time section, which is read here too, so it need not
    come from load_config; a value no run can use is an input error."""
    spec = _section("time", spec or {})
    t_final = spec.pop("t_final", 1.0)
    if not (math.isfinite(t_final) and t_final > 0):
        raise ConfigError(f"t_final must be positive and finite, got {t_final!r}")
    ctrl = DtControl(**spec)  # the other time keys are DtControl's fields
    if ctrl.dt_fixed is not None and not (math.isfinite(ctrl.dt_fixed) and ctrl.dt_fixed > 0):
        raise ConfigError(f"dt_fixed must be a positive finite step, got {ctrl.dt_fixed!r}")
    if not (math.isfinite(ctrl.cfl) and ctrl.cfl > 0):
        raise ConfigError(f"cfl must be positive and finite, got {ctrl.cfl!r}")
    if not ctrl.dt_max > 0:
        raise ConfigError(f"dt_max must be positive, got {ctrl.dt_max!r}")
    # a dt_min above the step a run takes is a halt (instability), not bad input
    if not (math.isfinite(ctrl.dt_min) and 0 <= ctrl.dt_min < ctrl.dt_max):
        raise ConfigError(f"dt_min must be finite, nonnegative and below dt_max, got {ctrl.dt_min!r}")
    return t_final, ctrl
