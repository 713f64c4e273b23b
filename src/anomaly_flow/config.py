"""JSON run configuration (schema version 1).

Scalar data (f, mu, u0) is specified as ``{"constant": x}`` and/or
``{"modes": [{"k": [k1, ...], "amplitude": [re, im]}, ...]}``; each mode
contributes ``2 Re(A exp(i 2 pi k.x / L))`` so the materialized field is
real.  Mode vectors must stay below the dealiasing cutoff N//3.  Complex
scalars are written as ``[re, im]`` pairs throughout.  Every key is checked,
in the sections and in the nested specs alike: an unknown key, or an omega or
curvature spec that sets more than one variant, is a ConfigError.

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

COMMANDS = ("verify", "symbol", "flow-fuyau", "flow-torus")
# section -> the keys the runners read; load_config rejects any other key,
# and the parsers of the nested specs check theirs the same way (_check_keys)
SECTIONS = {
    "output": ("dir", "snapshot_interval"),
    "grid": ("complex_dims", "points_per_dim", "period"),
    "time": ("t_final", "cfl", "dt_fixed", "dt_max", "dt_min"),
    "symbol": ("omega", "curvature", "abs_omega", "alpha_list", "n_dirs"),
    "fuyau": ("alpha_prime", "f", "mu", "u0"),
    "torus": ("alpha_prime", "abs_omega", "fixture_seed", "amplitude", "kmax", "stationary"),
}


@dataclass
class RunConfig:
    command: str
    seed: int
    out_dir: str
    snapshot_interval: int
    raw: dict = field(repr=False, default_factory=dict)


def _check_keys(spec, allowed, where: str = "") -> None:
    """Raise a ConfigError naming every key of spec (prefixed by where) not in allowed."""
    unknown = sorted(f"{where}{key}" for key in set(spec) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")


def parse_int(value, name: str) -> int:
    """The value of the integer key name: a JSON integer, never a bool or a float."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _one_variant(spec: dict, variants, name: str) -> str:
    """The one variant key a spec sets; only a snapshot may add its grid index "at"."""
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
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    for section in SECTIONS:
        if not isinstance(raw.get(section, {}), dict):
            raise ConfigError(f"config section {section!r} must be a JSON object")
    # every section key qualified by its section, so one error names them all
    _check_keys(
        [key for key in raw if key not in SECTIONS]
        + [f"{section}.{key}" for section in SECTIONS for key in raw.get(section, {})],
        ["command", "seed"] + [f"{section}.{key}" for section, keys in SECTIONS.items() for key in keys],
    )
    command = raw.get("command")
    if command not in COMMANDS:
        raise ConfigError(f"command must be one of {COMMANDS}, got {command!r}")
    out = raw.get("output", {})
    return RunConfig(
        command=command,
        seed=parse_int(raw.get("seed", 0), "seed"),
        out_dir=str(out.get("dir", ".")),
        snapshot_interval=parse_int(out.get("snapshot_interval", 0), "output.snapshot_interval"),
        raw=raw,
    )


def parse_grid(spec: dict) -> PeriodicGrid:
    try:
        return PeriodicGrid(
            parse_int(spec.get("complex_dims", 1), "grid.complex_dims"),
            parse_int(spec.get("points_per_dim", 16), "grid.points_per_dim"),
            float(spec.get("period", TWO_PI)),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad grid spec: {exc}") from exc


def materialize_scalar(grid: PeriodicGrid, spec, name="field") -> np.ndarray:
    """Real scalar field from a {constant, modes} specification."""
    if spec is None:
        return np.zeros(grid.shape)
    if isinstance(spec, (int, float)):
        return float(spec) * np.ones(grid.shape)
    if not isinstance(spec, dict):
        raise ConfigError(f"{name}: expected a number or an object, got {type(spec)}")
    _check_keys(spec, ("constant", "modes"), f"{name}.")
    out = np.full(grid.shape, float(spec.get("constant", 0.0)))
    n = grid.points_per_dim
    j = np.arange(n)
    table = np.exp(1j * (TWO_PI / n) * j)
    for mode in spec.get("modes", []):
        if not isinstance(mode, dict):
            raise ConfigError(f"{name}: each mode must be an object, got {mode!r}")
        _check_keys(mode, ("k", "amplitude"), f"{name} mode.")
        k = mode.get("k")
        amp = mode.get("amplitude")
        if k is None or amp is None or len(k) != 2 * grid.complex_dims:
            raise ConfigError(f"{name}: each mode needs k (length {2*grid.complex_dims}) and amplitude")
        if max(abs(int(ki)) for ki in k) > grid.dealias_kmax:
            raise ConfigError(
                f"{name}: mode {k} exceeds the dealiasing cutoff {grid.dealias_kmax}"
            )
        a = complex(amp[0], amp[1]) if isinstance(amp, (list, tuple)) else complex(amp)
        wave = np.asarray(a)
        for ki in k:
            wave = np.multiply.outer(wave, table[int(ki) * j % n])
        out += 2.0 * wave.real
    return out


def parse_complex(x, name="value") -> complex:
    if isinstance(x, (int, float)):
        return complex(x)
    if isinstance(x, (list, tuple)) and len(x) == 2:
        return complex(x[0], x[1])
    raise ConfigError(f"{name}: expected number or [re, im] pair")


def parse_matrix(spec, shape, name="matrix") -> np.ndarray:
    arr = np.asarray(
        [[parse_complex(x, name) for x in row] for row in spec], dtype=complex
    )
    if arr.shape != shape:
        raise ConfigError(f"{name}: expected shape {shape}, got {arr.shape}")
    return arr


def _snapshot_point(spec, kind, name, kind_name) -> np.ndarray:
    """The value of a snapshot field at the grid index spec["at"] (default: the origin)."""
    grid, fieldv, got = read_snapshot(spec["snapshot"])
    if got != kind:
        raise ConfigError(f"{name} snapshot must hold {kind_name} field")
    naxes, n = 2 * grid.complex_dims, grid.points_per_dim
    at = [int(i) for i in spec.get("at", [0] * naxes)]
    if len(at) != naxes or not all(0 <= i < n for i in at):
        raise ConfigError(f"{name} snapshot: at needs {naxes} indices in [0, {n}), got {at}")
    return np.asarray(fieldv[tuple(at)], dtype=complex)


def parse_omega_point(spec) -> np.ndarray:
    if spec is None:
        return np.eye(3, dtype=complex)
    if not isinstance(spec, dict):
        raise ConfigError(f"omega spec must be an object, got {spec!r}")
    variant = _one_variant(spec, ("identity", "inline", "snapshot"), "omega")
    if variant == "identity":
        return float(spec["identity"]) * np.eye(3, dtype=complex)
    if variant == "inline":
        return parse_matrix(spec["inline"], (3, 3), "omega")
    return _snapshot_point(spec, KIND_HERM3, "omega", "a Herm3")


def parse_curvature(spec, seed, omega) -> np.ndarray:
    if not isinstance(spec, (dict, type(None))):
        raise ConfigError(f"curvature spec must be an object, got {spec!r}")
    if spec is None:
        return np.zeros((3, 3, 3, 3), dtype=complex)
    variant = _one_variant(
        spec, ("zero", "adversarial", "random", "inline", "snapshot"), "curvature"
    )
    if variant == "zero":
        if spec["zero"] is not True:
            raise ConfigError(f"curvature.zero must be true, got {spec['zero']!r}")
        return np.zeros((3, 3, 3, 3), dtype=complex)
    if variant == "adversarial":
        return sampling.trace_curvature(float(spec["adversarial"]))
    if variant == "random":
        sub = spec["random"]
        if not isinstance(sub, dict):
            raise ConfigError(f"curvature random spec must be an object, got {sub!r}")
        _check_keys(sub, ("scale", "seed"), "curvature.random.")
        rng = np.random.default_rng(parse_int(sub.get("seed", seed), "curvature.random.seed"))
        scale = float(sub.get("scale", 1.0))
        # reality-respecting relative to the metric it will be used with
        return sampling.random_curvature_for_metric(rng, omega, scale)
    if variant == "inline":
        arr = np.asarray(
            [
                [[[parse_complex(x, "R") for x in row] for row in mat] for mat in blk]
                for blk in spec["inline"]
            ],
            dtype=complex,
        )
        if arr.shape != (3, 3, 3, 3):
            raise ConfigError(f"R: expected shape (3,3,3,3), got {arr.shape}")
        return arr
    return _snapshot_point(spec, KIND_CURV, "curvature", "a curvature")


def parse_time(spec) -> tuple[float, DtControl]:
    """(t_final, time control) of a time section; a value no run can use is an input error."""
    spec = spec or {}
    t_final = float(spec.get("t_final", 1.0))
    if not (math.isfinite(t_final) and t_final > 0):
        raise ConfigError(f"t_final must be positive and finite, got {t_final!r}")
    dt_fixed = spec.get("dt_fixed")
    if dt_fixed is not None:
        dt_fixed = float(dt_fixed)
        if not (math.isfinite(dt_fixed) and dt_fixed > 0):
            raise ConfigError(f"dt_fixed must be a positive finite step, got {dt_fixed!r}")
    ctrl = DtControl(
        cfl=float(spec.get("cfl", 0.2)),
        dt_fixed=dt_fixed,
        dt_max=float(spec.get("dt_max", np.inf)),
        dt_min=float(spec.get("dt_min", 1e-12)),
    )
    if not (math.isfinite(ctrl.cfl) and ctrl.cfl > 0):
        raise ConfigError(f"cfl must be positive and finite, got {ctrl.cfl!r}")
    if not ctrl.dt_max > 0:
        raise ConfigError(f"dt_max must be positive, got {ctrl.dt_max!r}")
    # a dt_min above the step a run takes is a halt (instability), not bad input
    if not (math.isfinite(ctrl.dt_min) and 0 <= ctrl.dt_min < ctrl.dt_max):
        raise ConfigError(f"dt_min must be finite, nonnegative and below dt_max, got {ctrl.dt_min!r}")
    return t_final, ctrl
