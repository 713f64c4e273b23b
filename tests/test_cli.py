"""CLI, config parsing, snapshot format, verification front end."""

import ast
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import anomaly_flow
from anomaly_flow import cli, linearize, pointwise, sampling, verify
from anomaly_flow import config as cfgmod
from anomaly_flow import flow as flowmod
from anomaly_flow import snapshot as snap
from anomaly_flow.errors import ConfigError
from anomaly_flow.grid import PeriodicGrid


def write_cfg(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_load_config_rejects_garbage(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        cfgmod.load_config(str(p))
    with pytest.raises(ConfigError):
        cfgmod.load_config(write_cfg(tmp_path / "cmd.json", {"command": "nope"}))
    for bad in ([1, 2], {"command": "flow-torus", "time": 5}):
        with pytest.raises(ConfigError):
            cfgmod.load_config(write_cfg(tmp_path / "shape.json", bad))


FUYAU_N8 = {"command": "flow-fuyau", "grid": {"complex_dims": 2, "points_per_dim": 8}}


@pytest.mark.parametrize(
    "extra, named",
    [
        ({"time": {"dt_fxed": 0.002}, "torus": {"amplitud": 0.04}}, "time.dt_fxed"),
        ({"time": {"margin_min": 0.0}}, "time.margin_min"),
        ({"torus": {"base_scale": 2.0}}, "torus.base_scale"),
        ({"outptu": {"dir": "elsewhere"}}, "outptu"),
        (FUYAU_N8 | {"fuyau": {"u0": {"mode": [{"k": [1, 0, 0, 0], "amplitude": [0.01, 0]}]}}},
         "u0.mode"),
        (FUYAU_N8 | {"fuyau": {"u0": {"modes": [
            {"k": [1, 0, 0, 0], "amplitude": [0.01, 0], "phase": 0.3}]}}}, "u0 mode.phase"),
        (FUYAU_N8 | {"fuyau": {"f": {"constant": 0.5, "mdoes": []}}}, "f.mdoes"),
        ({"command": "symbol", "symbol": {"curvature": {"adversarial": 2.0, "strength": 9}}},
         "curvature.strength"),
        ({"command": "symbol", "symbol": {"curvature": {"adversarial": 2.0, "random": {}}}},
         "got adversarial, random"),
        ({"command": "symbol", "symbol": {"curvature": {"random": {"sead": 4}}}},
         "curvature.random.sead"),
        ({"command": "symbol", "symbol": {"omega": {"identity": 1.0, "at": [0, 0]}}}, "omega.at"),
        ({"command": "symbol", "symbol": {"omega": {"identity": 1.0, "inline": [[1]]}}},
         "got identity, inline"),
        # an integer key takes a JSON integer: no float is truncated, no bool is a 1
        ({"seed": 2.5}, "seed must be an integer"),
        ({"seed": True}, "seed must be an integer"),
        ({"output": {"snapshot_interval": 1.5}}, "output.snapshot_interval must be an integer"),
        ({"grid": {"complex_dims": 1, "points_per_dim": 16.9}}, "grid.points_per_dim must be"),
        ({"grid": {"complex_dims": True, "points_per_dim": 16}}, "grid.complex_dims must be"),
        # a number key takes a JSON number, and a path a string: no bool or string is read as one
        ({"grid": {"complex_dims": 1, "points_per_dim": 16, "period": "6.0"}},
         "grid.period must be a number"),
        ({"time": {"t_final": "0.004"}}, "time.t_final must be a number"),
        ({"time": {"t_final": 0.004, "dt_fixed": True}}, "time.dt_fixed must be a number or null"),
        ({"output": {"dir": 5}}, "output.dir must be a string"),
        # a seed is an integer >= 0, for every command; a period is finite
        ({"command": "verify", "seed": -1}, "seed must be an integer >= 0, got -1"),
        ({"seed": -1}, "seed must be an integer >= 0, got -1"),
        (FUYAU_N8 | {"grid": {"complex_dims": 2, "points_per_dim": 8, "period": float("inf")}},
         "period must be positive and finite, got inf"),
    ],
)
def test_cli_rejects_unknown_config_keys(tmp_path, capsys, extra, named):
    # a misspelt or removed key is an input error, not a silently ignored default;
    # so is a nested spec that sets more than one of its variants, and a value of
    # the wrong type
    payload = {
        "command": "flow-torus", "seed": 2,
        "grid": {"complex_dims": 1, "points_per_dim": 16},
        "output": {"dir": str(tmp_path)},
        **extra,
    }
    cfg = write_cfg(tmp_path / "k.json", payload)
    assert cli.main([payload["command"], "--config", cfg]) == cli.EXIT_INPUT_ERROR
    assert named in capsys.readouterr().err
    assert not (tmp_path / "monitors.csv").exists()
    assert not (tmp_path / "symbol_report.csv").exists()


# values of another kind for each kind of section key: a bool or a string is no
# number, a float no integer, a string no boolean, a number no path; a nested spec
# is read by its parser, which the tests above cover
WRONG_KIND = {
    "integer": [True, 1.5],
    "integer >= 0": [True, 1.5, -1],
    "number": [True, "1"],
    "number or null": [True, "1"],
    "boolean": ["true", 1],
    "string": [5],
    "list of finite numbers": ["0", [True]],
    "nested spec": [],
}


@pytest.mark.parametrize(
    "section, key, value",
    [(section, key, value) for section, kinds in cfgmod.SECTIONS.items()
     for key, kind in kinds.items() for value in WRONG_KIND[kind]],
)
def test_every_section_key_rejects_a_value_of_another_kind(tmp_path, capsys, section, key, value):
    # generated from the schema, so a key added to SECTIONS cannot skip its type check;
    # a verify run reads no section, so only load_config can reject the value
    payload = {"command": "verify", "output": {"dir": str(tmp_path)}}
    payload[section] = {**payload.get(section, {}), key: value}
    cfg = write_cfg(tmp_path / "w.json", payload)
    assert cli.main(["verify", "--config", cfg]) == cli.EXIT_INPUT_ERROR
    assert f"{section}.{key} must be a" in capsys.readouterr().err
    assert not (tmp_path / "verify_report.csv").exists()


def test_readme_key_table_matches_the_schema():
    # each section key appears in the README's key table with the kind SECTIONS gives it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cells = [line.strip("|").split("|") for line in readme.splitlines() if line.startswith("| `")]
    table = {row[0].strip(" `"): row[1].strip() for row in cells}
    for section, kinds in cfgmod.SECTIONS.items():
        for key, kind in kinds.items():
            assert table.get(f"{section}.{key}") == kind, f"{section}.{key}"


def test_partial_grid_section_takes_the_command_defaults(tmp_path):
    # a key the grid section leaves out has the command's default, as if the section were absent
    for command, grid, final, expected in (
        ("flow-fuyau", {"points_per_dim": 8}, "u_final.anmf", PeriodicGrid(2, 8)),
        ("flow-torus", {"complex_dims": 1}, "psi_final.anmf", PeriodicGrid(1, 64)),
    ):
        out = tmp_path / command
        cfg = write_cfg(tmp_path / f"{command}.json", {
            "command": command, "grid": grid, "output": {"dir": str(out)},
            "time": {"t_final": 0.002, "dt_fixed": 0.002},
        })
        assert cli.main([command, "--config", cfg]) == cli.EXIT_OK, command
        assert snap.read_snapshot(out / final)[0] == expected


def test_materialize_scalar_modes_and_band_limit():
    g = PeriodicGrid(1, 16)
    f = cfgmod.materialize_scalar(g, {"constant": 2.0, "modes": [{"k": [1, 0], "amplitude": [0.5, 0.0]}]})
    xs = g.coords()
    np.testing.assert_allclose(f, 2.0 + np.cos(xs[0]) * np.ones(g.shape), atol=1e-13)
    with pytest.raises(ConfigError):
        cfgmod.materialize_scalar(g, {"modes": [{"k": [9, 0], "amplitude": [1, 0]}]})
    with pytest.raises(ConfigError):
        cfgmod.materialize_scalar(g, {"modes": [{"k": [1], "amplitude": [1, 0]}]})


def test_materialize_scalar_matches_exp_reference():
    # per-axis phases reduced mod N against exp(i k.x) on L != 2 pi, negative k and |k| = N//3;
    # the reference runs in extended precision: a float64 k.x reaches 2 pi (N//3) 2c, where
    # its rounding alone is near 1e-14
    two_pi = 8 * np.arctan(np.longdouble(1))
    for g in (PeriodicGrid(1, 16, 3.7), PeriodicGrid(2, 8, 1.3)):
        m, n, naxes = g.dealias_kmax, g.points_per_dim, 2 * g.complex_dims
        x = np.arange(n, dtype=np.longdouble) * (g.period / n)
        xs = [x.reshape((1,) * a + (n,) + (1,) * (naxes - a - 1)) for a in range(naxes)]
        modes = [([m] + [-1] * (naxes - 1), (0.7, -0.4)), ([-m] * naxes, (-1.1, 0.25)),
                 ([0] * (naxes - 1) + [m - 1], (0.5, 2.0))]
        for k, amp in modes:
            a = complex(*amp)
            f = cfgmod.materialize_scalar(g, {"modes": [{"k": k, "amplitude": list(amp)}]})
            ref = 2.0 * np.real(a * np.exp(1j * sum(two_pi / g.period * ki * x for ki, x in zip(k, xs))))
            assert np.abs(f - ref).max() <= 1e-14 * abs(a)
        spec = {"constant": 0.3, "modes": [{"k": k, "amplitude": list(amp)} for k, amp in modes]}
        origin = 0.3
        for _, amp in modes:
            origin += 2.0 * amp[0]
        assert cfgmod.materialize_scalar(g, spec).flat[0] == origin


def test_snapshot_roundtrip_exact(tmp_path):
    g = PeriodicGrid(1, 16)
    rng = np.random.default_rng(0)
    field = rng.standard_normal(g.shape + (3, 3)) + 1j * rng.standard_normal(g.shape + (3, 3))
    path = tmp_path / "x.anmf"
    snap.write_snapshot(path, g, field, snap.KIND_PSI22)
    g2, field2, kind = snap.read_snapshot(path)
    assert g2 == g and kind == snap.KIND_PSI22
    np.testing.assert_array_equal(field, field2)
    u = rng.standard_normal(g.shape)
    snap.write_snapshot(path, g, u, snap.KIND_SCALAR_REAL)
    _, u2, kind = snap.read_snapshot(path)
    assert kind == snap.KIND_SCALAR_REAL
    np.testing.assert_array_equal(u, u2)
    # every real and imaginary part comes back bit for bit: signed zeros, infinities and NaN too
    parts = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5], size=g.shape + (3, 3, 2))
    special = parts.view(complex)[..., 0]
    snap.write_snapshot(path, g, special, snap.KIND_PSI22)
    assert snap.read_snapshot(path)[1].tobytes() == special.tobytes()


def test_snapshot_rejects_truncated_and_padded_data(tmp_path):
    g = PeriodicGrid(1, 16)
    path = tmp_path / "t.anmf"
    snap.write_snapshot(path, g, np.ones(g.shape + (3, 3), dtype=complex), snap.KIND_PSI22)
    raw = path.read_bytes()
    for bad in (raw[:-3], raw + b"\0" * 16):  # cut mid-element; trailing bytes
        path.write_bytes(bad)
        with pytest.raises(ConfigError, match="data size does not match header"):
            snap.read_snapshot(path)


def test_snapshot_rejects_bad_shape(tmp_path):
    g = PeriodicGrid(1, 16)
    with pytest.raises(ConfigError):
        snap.write_snapshot(tmp_path / "y.anmf", g, np.zeros((4, 4)), snap.KIND_SCALAR_REAL)
    p = tmp_path / "z.anmf"
    p.write_bytes(b"JUNKJUNKJUNK")
    with pytest.raises(ConfigError):
        snap.read_snapshot(p)


def test_cli_requires_matching_command(tmp_path):
    cfg = write_cfg(tmp_path / "v.json", {"command": "verify", "seed": 1})
    assert cli.main(["symbol", "--config", cfg]) == cli.EXIT_INPUT_ERROR


def test_cli_symbol_sweep_zero_curvature(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path / "s.json",
        {
            "command": "symbol",
            "seed": 3,
            "output": {"dir": str(tmp_path)},
            "symbol": {
                "omega": {"identity": 1.0},
                "curvature": {"zero": True},
                "alpha_list": [0.0, 0.1, 1.0],
                "n_dirs": 8,
            },
        },
    )
    assert cli.main(["symbol", "--config", cfg]) == cli.EXIT_OK
    rows = (tmp_path / "symbol_report.csv").read_text().strip().splitlines()
    assert rows[0].split(",")[:3] == ["alpha_prime", "min_real_part", "elliptic"]
    for row in rows[1:]:
        cells = row.split(",")
        assert cells[2] == "true"
        # unit covectors at omega = I, |Omega| = 1: min Re = 1/2 for every alpha
        assert float(cells[1]) == pytest.approx(0.5, rel=1e-10)


def test_cli_symbol_random_curvature_non_identity_metric(tmp_path):
    # random curvature must be generated reality-respecting in the frame of
    # the configured metric, otherwise the restricted symbol is ill-posed
    cfg = write_cfg(
        tmp_path / "sr.json",
        {
            "command": "symbol",
            "seed": 4,
            "output": {"dir": str(tmp_path)},
            "symbol": {
                "omega": {
                    "inline": [
                        [[2.0, 0], [0.3, 0.1], [0, 0]],
                        [[0.3, -0.1], [1.5, 0], [0.2, 0]],
                        [[0, 0], [0.2, 0], [1.0, 0]],
                    ]
                },
                "curvature": {"random": {"scale": 0.5, "seed": 7}},
                "abs_omega": 1.2,
                "alpha_list": [0.0, 0.05],
                "n_dirs": 4,
            },
        },
    )
    assert cli.main(["symbol", "--config", cfg]) == cli.EXIT_OK
    rows = (tmp_path / "symbol_report.csv").read_text().strip().splitlines()
    assert len(rows) == 3


def test_cli_symbol_adversarial_flip(tmp_path):
    cfg = write_cfg(
        tmp_path / "s2.json",
        {
            "command": "symbol",
            "seed": 3,
            "output": {"dir": str(tmp_path)},
            "symbol": {
                "omega": {"identity": 1.0},
                "curvature": {"adversarial": 5.0},
                "alpha_list": [0.0, 0.1],
                "n_dirs": 4,
            },
        },
    )
    assert cli.main(["symbol", "--config", cfg]) == cli.EXIT_OK
    rows = (tmp_path / "symbol_report.csv").read_text().strip().splitlines()[1:]
    assert rows[0].split(",")[2] == "true"
    assert rows[1].split(",")[2] == "false"


def _symbol_cfg(tmp_path, **symbol):
    spec = {"omega": {"identity": 1.0}, "curvature": {"zero": True}, "n_dirs": 4, **symbol}
    return write_cfg(
        tmp_path / "sym.json",
        {"command": "symbol", "seed": 3, "output": {"dir": str(tmp_path)}, "symbol": spec},
    )


@pytest.mark.parametrize(
    "symbol, field",
    [
        ({"n_dirs": 0}, "n_dirs"),
        ({"n_dirs": -3}, "n_dirs"),
        ({"abs_omega": 0}, "abs_omega"),
        ({"abs_omega": -1}, "abs_omega"),
        ({"abs_omega": float("inf")}, "abs_omega"),
        ({"omega": {"snapshot": "herm3.anmf", "at": [0, 9]}}, "omega snapshot"),
        ({"omega": {"snapshot": "herm3.anmf", "at": [0]}}, "omega snapshot"),
        ({"curvature": {"snapshot": "curv.anmf", "at": [-1, 0]}}, "curvature snapshot"),
        ({"curvature": 5}, "curvature spec"),
        ({"omega": 5}, "omega spec"),
        ({"curvature": {"random": 5}}, "curvature random spec"),
        ({"curvature": {"random": {"seed": 1.5}}}, "curvature.random.seed must be an integer"),
        ({"curvature": {"zero": False}}, "curvature.zero must be true"),
        ({"n_dirs": True}, "symbol.n_dirs must be an integer"),
        ({"n_dirs": 4.0}, "symbol.n_dirs must be an integer"),
        ({"alpha_list": [float("nan")]}, "alpha_list must be a list of finite numbers"),
        ({"alpha_list": [0.0, float("inf")]}, "alpha_list must be a list of finite numbers"),
        ({"alpha_list": "0"}, "alpha_list must be a list of finite numbers"),
        ({"alpha_list": [True]}, "alpha_list must be a list of finite numbers"),
        # every nested value has its kind too: no bool or string is a number, no float an index
        ({"abs_omega": True}, "symbol.abs_omega must be a number"),
        ({"omega": {"identity": True}}, "omega.identity must be a number"),
        ({"curvature": {"random": {"scale": True}}}, "curvature.random.scale must be a number"),
        ({"curvature": {"adversarial": "5"}}, "curvature.adversarial must be a number"),
        ({"omega": {"inline": [[True, 0, 0], [0, 1, 0], [0, 0, 1]]}},
         "omega.inline must be a complex number, got True"),
        ({"omega": {"inline": [[1, 0, 0], [0, 1], [0, 0, 1]]}}, "omega.inline must be nested lists"),
        ({"curvature": {"inline": 5}}, "curvature.inline must be nested lists of shape (3, 3, 3, 3)"),
        ({"omega": {"snapshot": "herm3.anmf", "at": [0.5, 0]}}, "omega.at must be a list of integers"),
        ({"omega": {"snapshot": 0}}, "omega.snapshot must be a string"),
        # a seed is an integer >= 0, and a snapshot's period is finite
        ({"curvature": {"random": {"seed": -2}}}, "curvature.random.seed must be an integer >= 0"),
        ({"omega": {"snapshot": "inf.anmf"}}, "period must be positive and finite, got inf"),
    ],
)
def test_cli_symbol_rejects_bad_input(tmp_path, monkeypatch, capsys, symbol, field):
    monkeypatch.chdir(tmp_path)  # the snapshot paths above are relative
    g = PeriodicGrid(1, 8)
    herm3 = np.broadcast_to(np.eye(3, dtype=complex), g.shape + (3, 3))
    snap.write_snapshot(tmp_path / "herm3.anmf", g, herm3, snap.KIND_HERM3)
    snap.write_snapshot(
        tmp_path / "curv.anmf", g, np.zeros(g.shape + (3, 3, 3, 3), dtype=complex), snap.KIND_CURV
    )
    raw = (tmp_path / "herm3.anmf").read_bytes()
    *header, _ = snap._HEADER.unpack(raw[:snap._HEADER.size])  # the last field is the period
    (tmp_path / "inf.anmf").write_bytes(snap._HEADER.pack(*header, np.inf) + raw[snap._HEADER.size:])
    cfg = _symbol_cfg(tmp_path, **symbol)
    assert cli.main(["symbol", "--config", cfg]) == cli.EXIT_INPUT_ERROR
    assert field in capsys.readouterr().err
    assert not (tmp_path / "symbol_report.csv").exists()


def test_cli_symbol_snapshot_point(tmp_path):
    # a snapshot's "at" picks the grid point the symbol is evaluated at
    g = PeriodicGrid(1, 8)
    herm3 = np.broadcast_to(np.eye(3, dtype=complex), g.shape + (3, 3)).copy()
    herm3[7, 2] *= 2.0
    snap.write_snapshot(tmp_path / "w.anmf", g, herm3, snap.KIND_HERM3)
    cfg = _symbol_cfg(tmp_path, omega={"snapshot": str(tmp_path / "w.anmf"), "at": [7, 2]})
    assert cli.main(["symbol", "--config", cfg]) == cli.EXIT_OK
    rows = (tmp_path / "symbol_report.csv").read_text().strip().splitlines()[1:]
    # omega = 2 I, |Omega| = 1: min Re = |xi|^2 / (2 ||Omega||_omega) = (1/2) / (2 / sqrt(8));
    # the origin (omega = I) would give 1/2
    assert float(rows[0].split(",")[1]) == pytest.approx(2**-0.5, rel=1e-10)


def test_run_symbol_one_sweep_call_per_direction(tmp_path, monkeypatch):
    # the benchmark times one symbol unit per restricted_symbol -> proposition_norm pair
    calls = []
    restricted, norm = linearize.restricted_symbol, linearize.proposition_norm

    def counted(tag, fn):
        def wrapper(xi, omega, abs_omega, r, alpha_p):
            calls.append((tag, alpha_p, tuple(xi)))
            return fn(xi, omega, abs_omega, r, alpha_p)

        return wrapper

    monkeypatch.setattr(linearize, "restricted_symbol", counted("restricted", restricted))
    monkeypatch.setattr(linearize, "proposition_norm", counted("norm", norm))
    alphas = [0.0, 0.05, 0.2]
    cfg = _symbol_cfg(tmp_path, curvature={"adversarial": 2.0}, alpha_list=alphas, n_dirs=5)
    assert cli.main(["symbol", "--config", cfg]) == cli.EXIT_OK
    xis = sampling.unit_covectors(5, 3)
    assert calls == [
        (tag, a, tuple(xi)) for a in alphas for xi in xis for tag in ("restricted", "norm")
    ]


def test_cli_commands_run_with_scipy_blocked(tmp_path):
    # numpy is the only numerical dependency: with every scipy import failing, each
    # command and the grid-valued chern_curvature run, and no scipy module loads
    src = os.path.dirname(os.path.dirname(anomaly_flow.__file__))
    verify_cfg = write_cfg(tmp_path / "v.json", {"command": "verify", "seed": 3, "output": {"dir": str(tmp_path / "v")}})
    symbol_cfg = write_cfg(tmp_path / "s.json", {
        "command": "symbol", "seed": 3, "output": {"dir": str(tmp_path / "s")},
        "symbol": {"curvature": {"adversarial": 2.0}, "alpha_list": [0.0, 0.1], "n_dirs": 16},
    })
    fuyau_cfg = write_cfg(tmp_path / "f.json", {
        "command": "flow-fuyau",
        "grid": {"complex_dims": 2, "points_per_dim": 8},
        "time": {"t_final": 0.05},
        "output": {"dir": str(tmp_path / "f"), "snapshot_interval": 1},
        "fuyau": {"alpha_prime": 0.02, "f": {"constant": 0.5},
                  "u0": {"modes": [{"k": [1, 0, -2, 1], "amplitude": [0.01, 0.02]}]}},
    })
    torus_cfgs = [
        write_cfg(tmp_path / f"t{c}.json", {
            "command": "flow-torus", "seed": 4,
            "grid": {"complex_dims": c, "points_per_dim": n},
            "time": {"t_final": 0.006, "dt_fixed": 0.002},
            "output": {"dir": str(tmp_path / f"t{c}"), "snapshot_interval": 1},
            "torus": {"alpha_prime": alpha, "stationary": c == 2, "amplitude": 0.04, "kmax": 2},
        })
        for c, n, alpha in ((1, 16, 0.0), (2, 8, 0.2))
    ]
    runs = [("verify", verify_cfg), ("symbol", symbol_cfg), ("flow-fuyau", fuyau_cfg)]
    runs += [("flow-torus", cfg) for cfg in torus_cfgs]
    code = (
        "import sys\n"
        "class BlockScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'scipy' or name.startswith('scipy.'):\n"
        "            raise ImportError(f'{name} is blocked')\n"
        "sys.meta_path.insert(0, BlockScipy())\n"
        "import anomaly_flow.cli as cli\n"
        "from anomaly_flow import flow, grid\n"
        + "".join(f"print({cmd!r}, cli.main([{cmd!r}, '--config', {cfg!r}]))\n" for cmd, cfg in runs)
        + "g = grid.PeriodicGrid(2, 8)\n"
        "omega = flow.make_balanced_omega0(g, 1.0, 3, amplitude=0.04, kmax=2)\n"
        "print('chern_curvature', grid.chern_curvature(g, omega).shape)\n"
        "print('scipy modules', sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    lines = [line for line in out.stdout.splitlines()
             if line.startswith(("verify", "symbol", "flow-", "chern", "scipy"))]
    assert lines == [f"{cmd} 0" for cmd, _ in runs] + [
        "chern_curvature (8, 8, 8, 8, 2, 2, 3, 3)", "scipy modules []"]
    assert len(list((tmp_path / "t2").glob("psi_00000*.anmf"))) == 3


def test_declared_dependencies_are_the_third_party_imports():
    # pyproject.toml lists exactly the packages that src/anomaly_flow imports
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower() for dep in declared}
    imported = set()
    for path in (root / "src" / "anomaly_flow").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    assert imported - set(sys.stdlib_module_names) - {"anomaly_flow"} == declared


def test_cli_fuyau_trivial_and_determinism(tmp_path):
    payload = {
        "command": "flow-fuyau",
        "seed": 1,
        "grid": {"complex_dims": 2, "points_per_dim": 16},
        "time": {"t_final": 0.2},
        "output": {"dir": str(tmp_path / "a"), "snapshot_interval": 3},
        "fuyau": {"alpha_prime": 0.02, "f": {"constant": 0.0}, "mu": {"constant": 0.0}},
    }
    cfg = write_cfg(tmp_path / "f.json", payload)
    assert cli.main(["flow-fuyau", "--config", cfg]) == cli.EXIT_OK
    rows = (tmp_path / "a" / "monitors.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    assert header == ["step", "t", "dt", "conservation_gap", "parabolicity_margin", "rhs_norm"]
    gaps = [abs(float(r.split(",")[3])) for r in rows[1:]]
    assert max(gaps) < 1e-12
    # bit-identical rerun
    payload["output"]["dir"] = str(tmp_path / "b")
    cfg2 = write_cfg(tmp_path / "f2.json", payload)
    assert cli.main(["flow-fuyau", "--config", cfg2]) == cli.EXIT_OK
    assert (tmp_path / "a" / "monitors.csv").read_bytes() == (
        tmp_path / "b" / "monitors.csv"
    ).read_bytes()
    assert (tmp_path / "a" / "u_final.anmf").read_bytes() == (
        tmp_path / "b" / "u_final.anmf"
    ).read_bytes()
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert summary["halt"] is None
    assert (tmp_path / "a" / "u_000003.anmf").exists()


def test_cli_fuyau_constant_mu(tmp_path):
    cfg = write_cfg(
        tmp_path / "m.json",
        {
            "command": "flow-fuyau",
            "seed": 1,
            "grid": {"complex_dims": 2, "points_per_dim": 16},
            "time": {"t_final": 0.5},
            "output": {"dir": str(tmp_path)},
            "fuyau": {"alpha_prime": 0.02, "f": {"constant": 0.0}, "mu": {"constant": 0.5}},
        },
    )
    assert cli.main(["flow-fuyau", "--config", cfg]) == cli.EXIT_OK
    rows = (tmp_path / "monitors.csv").read_text().strip().splitlines()[1:]
    gaps = [abs(float(r.split(",")[3])) for r in rows]
    assert max(gaps) < 1e-6


def test_cli_fuyau_halt_exit_code(tmp_path):
    cfg = write_cfg(
        tmp_path / "h.json",
        {
            "command": "flow-fuyau",
            "seed": 1,
            "grid": {"complex_dims": 2, "points_per_dim": 16},
            "time": {"t_final": 1.0},
            "output": {"dir": str(tmp_path)},
            "fuyau": {
                "alpha_prime": 3.0,
                "f": {"constant": 0.0},
                "mu": {"constant": 0.0},
                "u0": {"modes": [{"k": [1, 0, 0, 0], "amplitude": [0.5, 0.0]}]},
            },
        },
    )
    assert cli.main(["flow-fuyau", "--config", cfg]) == cli.EXIT_FLOW_HALT
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["halt"]["reason"] == "parabolicity"
    assert (tmp_path / "u_halt.anmf").exists()


def _flow_cfg(tmp_path, command, **spec):
    section = "fuyau" if command == "flow-fuyau" else "torus"
    return write_cfg(
        tmp_path / "flow.json",
        {
            "command": command,
            "seed": 2,
            "grid": {"complex_dims": 2 if section == "fuyau" else 1, "points_per_dim": 16},
            "time": {"t_final": 0.01, "dt_fixed": 0.002},
            "output": {"dir": str(tmp_path)},
            section: spec,
        },
    )


@pytest.mark.parametrize(
    "command, spec, field",
    [
        ("flow-torus", {"alpha_prime": float("nan")}, "alpha_p"),
        ("flow-torus", {"alpha_prime": float("inf")}, "alpha_p"),
        ("flow-torus", {"alpha_prime": float("nan"), "stationary": True}, "alpha_p"),
        ("flow-torus", {"abs_omega": float("nan")}, "abs_omega"),
        ("flow-torus", {"abs_omega": float("inf"), "stationary": True, "alpha_prime": 0.1},
         "abs_omega"),
        ("flow-fuyau", {"alpha_prime": float("nan")}, "alpha_p"),
        ("flow-fuyau", {"alpha_prime": float("inf")}, "alpha_p"),
        ("flow-fuyau", {"f": {"modes": [5]}}, "f: each mode"),
        # non-finite fields and fixture settings are bad input, not a halt at t=0
        ("flow-fuyau", {"f": {"constant": float("nan")}}, "f must be finite"),
        ("flow-fuyau", {"mu": {"constant": float("inf")}}, "mu must be finite"),
        ("flow-fuyau", {"u0": {"constant": float("nan")}}, "u0 must be finite"),
        ("flow-fuyau", {"f": {"modes": [{"k": [1, 0, 0, 0], "amplitude": [float("nan"), 0]}]}},
         "f must be finite"),
        ("flow-torus", {"amplitude": float("nan")}, "amplitude must be finite"),
        ("flow-torus", {"kmax": 0}, "kmax must be at least 1"),
        ("flow-torus", {"kmax": 2.7}, "torus.kmax must be an integer"),
        ("flow-torus", {"fixture_seed": "3"}, "torus.fixture_seed must be an integer"),
        # stationary is a boolean: neither string runs (or fails in) the other fixture
        ("flow-torus", {"stationary": "no", "alpha_prime": 0.1}, "torus.stationary"),
        ("flow-torus", {"stationary": "false", "alpha_prime": 0}, "torus.stationary"),
        # a bool or a string is no number, a float no wavevector entry, [re] no complex number
        ("flow-fuyau", {"alpha_prime": True}, "fuyau.alpha_prime must be a number"),
        ("flow-fuyau", {"alpha_prime": "0.05"}, "fuyau.alpha_prime must be a number"),
        ("flow-fuyau", {"mu": True}, "mu must be a number"),
        ("flow-fuyau", {"mu": {"constant": True}}, "mu.constant must be a number"),
        ("flow-fuyau", {"u0": {"modes": [{"k": [1, 0, 0, 0], "amplitude": "0.01+0j"}]}},
         "u0 mode.amplitude must be a complex number"),
        ("flow-fuyau", {"u0": {"modes": [{"k": [1, 0, 0, 0], "amplitude": [0.01]}]}},
         "u0 mode.amplitude must be a complex number"),
        ("flow-fuyau", {"u0": {"modes": [{"k": [1.9, 0, 0, 0], "amplitude": [0.01, 0]}]}},
         "u0 mode.k must be a list of integers"),
        ("flow-fuyau", {"u0": {"modes": [{"k": 5, "amplitude": [0.01, 0]}]}},
         "u0 mode.k must be a list of integers"),
        ("flow-fuyau", {"u0": {"modes": 5}}, "u0.modes must be a list"),
        ("flow-torus", {"abs_omega": "1"}, "torus.abs_omega must be a number"),
        ("flow-torus", {"amplitude": True}, "torus.amplitude must be a number"),
        ("flow-torus", {"fixture_seed": -1}, "torus.fixture_seed must be an integer >= 0"),
    ],
)
def test_cli_flow_rejects_bad_input(tmp_path, capsys, command, spec, field):
    assert cli.main([command, "--config", _flow_cfg(tmp_path, command, **spec)]) == (
        cli.EXIT_INPUT_ERROR
    )
    assert field in capsys.readouterr().err
    assert not (tmp_path / "monitors.csv").exists()


def test_cli_torus_stationary(tmp_path):
    cfg = write_cfg(
        tmp_path / "t.json",
        {
            "command": "flow-torus",
            "seed": 2,
            "grid": {"complex_dims": 1, "points_per_dim": 32},
            "time": {"t_final": 0.1, "dt_fixed": 0.002},
            "output": {"dir": str(tmp_path)},
            "torus": {"alpha_prime": 0.1, "abs_omega": 1.0, "stationary": True, "amplitude": 0.04},
        },
    )
    assert cli.main(["flow-torus", "--config", cfg]) == cli.EXIT_OK
    rows = (tmp_path / "monitors.csv").read_text().strip().splitlines()
    assert rows[0].split(",") == ["step", "t", "dt", "balanced_residual", "min_eig_omega", "rhs_norm"]
    rhs = [float(r.split(",")[5]) for r in rows[1:]]
    assert max(rhs) < 1e-10


def test_cli_input_error_exit_code(tmp_path, capsys):
    assert cli.main(["verify", "--config", str(tmp_path / "missing.json")]) == cli.EXIT_INPUT_ERROR
    # the --seed override is read as the config's seed is
    cfg = write_cfg(tmp_path / "v.json", {"command": "verify", "output": {"dir": str(tmp_path)}})
    assert cli.main(["verify", "--config", cfg, "--seed", "-1"]) == cli.EXIT_INPUT_ERROR
    assert "--seed must be an integer >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "verify_report.csv").exists()


def _torus_cfg(tmp_path, **time):
    return write_cfg(
        tmp_path / "tc.json",
        {
            "command": "flow-torus",
            "seed": 2,
            "grid": {"complex_dims": 1, "points_per_dim": 16},
            "time": {"t_final": 0.01, **time},
            "output": {"dir": str(tmp_path)},
            "torus": {"alpha_prime": 0.0, "amplitude": 0.04},
        },
    )


def test_cli_rejects_nonpositive_dt_fixed(tmp_path, capsys):
    # a time control no run can use is bad input: not a halt at t=0, not a run of 0 steps
    bad = [
        ({"dt_fixed": 0}, "dt_fixed"),
        ({"dt_fixed": -0.001}, "dt_fixed"),
        ({"cfl": 0}, "cfl"),
        ({"cfl": -0.2}, "cfl"),
        ({"dt_max": 0}, "dt_max"),
        ({"dt_min": -1e-3}, "dt_min"),
        ({"dt_min": 0.5, "dt_max": 0.1}, "dt_min"),
        ({"t_final": float("nan")}, "t_final"),
        ({"t_final": -1}, "t_final"),
    ]
    for time, field in bad:
        fuyau = {**FUYAU_N8, "time": {"t_final": 0.01, **time}, "output": {"dir": str(tmp_path)}}
        for command, cfg in (("flow-torus", _torus_cfg(tmp_path, **time)),
                             ("flow-fuyau", write_cfg(tmp_path / "fy.json", fuyau))):
            assert cli.main([command, "--config", cfg]) == cli.EXIT_INPUT_ERROR, (command, time)
            assert field in capsys.readouterr().err
    assert not (tmp_path / "monitors.csv").exists()
    for time in ({"dt_fixed": 0.0}, {"dt_fixed": float("inf")}, {"dt_fixed": float("nan")},
                 {"cfl": float("inf")}, {"cfl": float("nan")}, {"dt_max": float("nan")},
                 {"dt_min": float("inf")}, {"t_final": float("inf")}, {"t_final": 0}):
        with pytest.raises(ConfigError):
            cfgmod.parse_time(time)
    assert cfgmod.parse_time({"dt_fixed": None})[1].dt_fixed is None
    # the defaults, an unbounded dt_max and a zero dt_min stay valid
    assert cfgmod.parse_time({}) == (1.0, flowmod.DtControl())
    assert cfgmod.parse_time({"dt_min": 0, "dt_max": float("inf")})[1].dt_min == 0.0


def test_cli_internal_error_exit_code(tmp_path, monkeypatch, capsys):
    # a fault raised inside the flow is not bad input
    def broken(prob, omega):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(cli.flowmod, "_torus_rate", broken)  # the rate torus_run steps with
    cfg = _torus_cfg(tmp_path, dt_fixed=0.002)
    assert cli.main(["flow-torus", "--config", cfg]) == cli.EXIT_INTERNAL_ERROR
    assert "internal error" in capsys.readouterr().err
    # a value the config turns into an invalid problem still is
    bad = json.loads((tmp_path / "tc.json").read_text())
    bad["torus"]["alpha_prime"] = -1.0
    assert cli.main(["flow-torus", "--config", write_cfg(tmp_path / "neg.json", bad)]) == (
        cli.EXIT_INPUT_ERROR
    )


def test_run_verify_all_pass(tmp_path, capsys):
    cfg = cfgmod.RunConfig("verify", 123, str(tmp_path), 0)
    assert cli.run_verify(cfg) == cli.EXIT_OK
    report = (tmp_path / "verify_report.csv").read_text().splitlines()
    assert len(report) == len(verify.ALL_SUITES) + 1
    assert all(",PASS," in line for line in report[1:])
    # suite names and details holding commas are quoted, so a csv reader sees 6 fields
    with open(tmp_path / "verify_report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(verify.ALL_SUITES) == 19
    assert all(None not in row and row["status"] == "PASS" for row in rows)
    assert "(2,2) roundtrip & reality" in [row["identity"] for row in rows]


def test_run_verify_detects_mutation(tmp_path, monkeypatch, capsys):
    # sign-flipped star must break the defining-identity suite (exit 1)
    good = pointwise.hodge_star22

    def flipped(psi, omega_t):
        return -good(psi, omega_t)

    monkeypatch.setattr(pointwise, "hodge_star22", flipped)
    cfg = cfgmod.RunConfig("verify", 123, str(tmp_path), 0)
    assert cli.run_verify(cfg) == cli.EXIT_VERIFY_FAIL
    out = capsys.readouterr()
    assert "star defining identity" in out.out


def test_verify_verdicts_deterministic_across_seeds():
    for seed in range(10):
        results = verify.run_all(seed)
        assert all(r.passed for r in results)
        if seed == 0:
            first = results
    # the same seed gives the same names, verdicts, residuals and details
    assert verify.run_all(0) == first
