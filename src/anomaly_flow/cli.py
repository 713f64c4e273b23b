"""Command-line front end.

    anomaly verify|symbol|flow-fuyau|flow-torus --config cfg.json [--seed N] [--out DIR]

Exit codes: 0 success, 1 verification failure, 2 flow halt (breakdown),
3 input error (the config cannot be read or does not define a valid run),
4 internal error (an unexpected exception while the run executes).  Monitor
CSVs carry 17 significant digits so regressions are diff-able; snapshots use
the ANMF binary format; a summary JSON records the halt reason and final
monitor values.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys

import numpy as np

from . import config as cfgmod
from . import flow as flowmod
from . import linearize, sampling, verify
from .errors import AnomalyFlowError, ConfigError
from .snapshot import KIND_PSI22, KIND_SCALAR_REAL, write_snapshot

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_FLOW_HALT = 2
EXIT_INPUT_ERROR = 3
EXIT_INTERNAL_ERROR = 4


def _fmt(x: float) -> str:
    return f"{x:.17e}"


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


@contextlib.contextmanager
def _reading_input():
    """Report a ValueError, TypeError or OSError raised while a config becomes a run
    (its grid, fields, problem and time control) as bad input, not as an internal error."""
    try:
        yield
    except (ValueError, TypeError, OSError) as exc:
        raise ConfigError(str(exc)) from exc


def run_verify(cfg: cfgmod.RunConfig) -> int:
    results = verify.run_all(cfg.seed)
    rows = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(
            f"{status}  {r.name:40s} trials={r.trials:5d} "
            f"max_residual={r.max_residual:.3e} tol={r.tolerance:.1e} {r.detail}"
        )
        rows.append(
            [r.name, str(r.trials), _fmt(r.max_residual), _fmt(r.tolerance), status, r.detail]
        )
    path = os.path.join(cfg.out_dir, "verify_report.csv")
    _write_csv(path, ["identity", "trials", "max_residual", "tolerance", "status", "detail"], rows)
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"FAILED identities: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    print(f"all {len(results)} identity suites passed; report: {path}")
    return EXIT_OK


def run_symbol(cfg: cfgmod.RunConfig) -> int:
    with _reading_input():
        spec = cfg.raw.get("symbol", {})
        omega = cfgmod.parse_omega_point(spec.get("omega"))
        r = cfgmod.parse_curvature(spec.get("curvature"), seed=cfg.seed, omega=omega)
        abs_omega = spec.get("abs_omega", 1.0)
        if not 0 < abs_omega < np.inf:
            raise ConfigError(f"abs_omega must be positive and finite, got {abs_omega!r}")
        alphas = spec.get("alpha_list", [0.0])
        xis = sampling.unit_covectors(spec.get("n_dirs", 16), cfg.seed)
    rows = []
    for alpha in alphas:
        worst, margin = linearize.ellipticity_check(omega, abs_omega, r, alpha, xis)
        rows.append(
            [
                _fmt(alpha),
                _fmt(worst.min_real_part),
                str(worst.elliptic).lower(),
                _fmt(margin),
                str(worst.kernel_dim),
            ]
        )
        print(
            f"alpha'={alpha:g}: min Re = {worst.min_real_part:.6e}, "
            f"elliptic={worst.elliptic}, norm margin={margin:.6e}"
        )
    path = os.path.join(cfg.out_dir, "symbol_report.csv")
    _write_csv(
        path,
        ["alpha_prime", "min_real_part", "elliptic", "proposition_norm_margin", "kernel_dim"],
        rows,
    )
    print(f"report: {path}")
    return EXIT_OK


def _flow_outputs(cfg, grid, hist, kind, label):
    mon_path = os.path.join(cfg.out_dir, "monitors.csv")
    header = ["step", "t", "dt"] + list(hist.monitor_names)
    rows = [
        [str(s), _fmt(t), _fmt(dt)] + [_fmt(hist.monitors[m][i]) for m in hist.monitor_names]
        for i, (s, t, dt) in enumerate(zip(hist.steps, hist.times, hist.dts))
    ]
    _write_csv(mon_path, header, rows)
    final_snap = os.path.join(cfg.out_dir, f"{label}_final.anmf")
    write_snapshot(final_snap, grid, hist.final_payload, kind)
    summary = {
        "steps": len(hist.steps),
        "final_t": hist.final_t,
        "halt": None if hist.halt is None else {
            "reason": hist.halt.reason,
            "step": hist.halt.step,
            "t": hist.halt.t,
        },
        "final_monitors": {m: (vals[-1] if vals else None) for m, vals in hist.monitors.items()},
        "monitor_csv": mon_path,
        "final_snapshot": final_snap,
    }
    if hist.halt is not None:
        halt_snap = os.path.join(cfg.out_dir, f"{label}_halt.anmf")
        write_snapshot(halt_snap, grid, hist.halt.snapshot, kind)
        summary["halt"]["snapshot"] = halt_snap
    with open(os.path.join(cfg.out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
    print(f"monitors: {mon_path}")
    print(f"summary: {os.path.join(cfg.out_dir, 'summary.json')}")
    if hist.halt is not None:
        print(f"flow halted: {hist.halt.reason} at t={hist.halt.t:.6g}", file=sys.stderr)
        return EXIT_FLOW_HALT
    return EXIT_OK


def _snapshot_writer(cfg, grid, kind, label):
    if cfg.snapshot_interval <= 0:
        return None

    def on_step(step, t, dt, payload, row):
        if step % cfg.snapshot_interval == 0:
            path = os.path.join(cfg.out_dir, f"{label}_{step:06d}.anmf")
            write_snapshot(path, grid, payload, kind)

    return on_step


def run_flow_fuyau(cfg: cfgmod.RunConfig) -> int:
    with _reading_input():
        spec = cfg.raw.get("fuyau", {})
        grid = cfgmod.parse_grid(cfg.raw.get("grid", {}), {"complex_dims": 2, "points_per_dim": 16})
        prob = flowmod.FuYauProblem(
            grid,
            spec.get("alpha_prime", 0.0),
            cfgmod.materialize_scalar(grid, spec.get("f"), "f"),
            cfgmod.materialize_scalar(grid, spec.get("mu"), "mu"),
        )
        u0 = prob.initial_state(cfgmod.materialize_scalar(grid, spec.get("u0"), "u0"))
        t_final, ctrl = cfgmod.parse_time(cfg.raw.get("time"))
    hist = flowmod.fu_yau_run(
        prob, t_final, ctrl, u0=u0, on_step=_snapshot_writer(cfg, grid, KIND_SCALAR_REAL, "u")
    )
    return _flow_outputs(cfg, grid, hist, KIND_SCALAR_REAL, "u")


def run_flow_torus(cfg: cfgmod.RunConfig) -> int:
    with _reading_input():
        spec = cfg.raw.get("torus", {})
        grid = cfgmod.parse_grid(cfg.raw.get("grid", {}), {"complex_dims": 1, "points_per_dim": 64})
        alpha = spec.get("alpha_prime", 0.0)
        abs_omega = spec.get("abs_omega", 1.0)
        seed = spec.get("fixture_seed", cfg.seed)
        amplitude = spec.get("amplitude", 0.05)
        kmax = spec.get("kmax", 3)
        if spec.get("stationary", False):
            prob = flowmod.make_stationary_torus_problem(
                grid, abs_omega, alpha, seed, amplitude=amplitude, kmax=kmax
            )
        else:
            omega0 = flowmod.make_balanced_omega0(
                grid, abs_omega, seed, amplitude=amplitude, kmax=kmax
            )
            phi0 = np.zeros(grid.shape + (3, 3), dtype=complex)
            prob = flowmod.TorusProblem(grid, alpha, abs_omega, phi0, omega0)
        t_final, ctrl = cfgmod.parse_time(cfg.raw.get("time"))
    hist = flowmod.torus_run(
        prob, t_final, ctrl, on_step=_snapshot_writer(cfg, grid, KIND_PSI22, "psi")
    )
    return _flow_outputs(cfg, grid, hist, KIND_PSI22, "psi")


_RUNNERS = {
    "verify": run_verify,
    "symbol": run_symbol,
    "flow-fuyau": run_flow_fuyau,
    "flow-torus": run_flow_torus,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="anomaly",
        description="Flows of Hermitian (2,2)-forms: verification, symbol analysis, evolution",
    )
    parser.add_argument("command", choices=sorted(_RUNNERS))
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", default=None, help="override output directory")
    args = parser.parse_args(argv)
    try:
        with _reading_input():
            cfg = cfgmod.load_config(args.config)
            if cfg.command != args.command:
                raise ConfigError(
                    f"config command {cfg.command!r} does not match CLI command {args.command!r}"
                )
            if args.seed is not None:
                cfg.seed = cfgmod._read(args.seed, "integer >= 0", "--seed")
            if args.out is not None:
                cfg.out_dir = args.out
            os.makedirs(cfg.out_dir, exist_ok=True)
        return _RUNNERS[cfg.command](cfg)
    except ConfigError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except AnomalyFlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
