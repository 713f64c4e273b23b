"""Run one `anomaly` CLI command in this process and record when its work happened.

    python3 perfbench/child.py TIMES_JSON TRACE COMMAND --config CFG --out DIR

run.py starts this script from the repository root with src/ on PYTHONPATH
and one BLAS/FFT thread, and times the process from outside (spawn to exit,
peak RSS).  Inside, the script writes monotonic timestamps to TIMES_JSON:
around `import anomaly_flow.cli`, at the first unit of work, at the end of
each unit, and after the command has written its outputs; and its peak RSS.  time.monotonic is
CLOCK_MONOTONIC, one clock for every process on the machine, so run.py can
subtract its own spawn time.

Units of work, timed from outside the program:
  flow-fuyau, flow-torus  one RK4 step, through the on_step callback that the
                          CLI passes to fu_yau_run/torus_run (the CLI's own
                          snapshot writer is called inside and not counted);
  symbol                  one sweep direction: restricted_symbol plus
                          proposition_norm at one (xi, alpha');
  verify                  the first unit starts when verify.run_all is called.

With TRACE=1 no unit is timed.  Instead each function in TRACED is wrapped
in every module namespace that holds it, and one span (function, start, end,
parent span, outermost-of-its-name flag) is kept in memory per call and
written to TIMES_JSON at exit, with the bytes computed at the FFT and
snapshot boundaries.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

clock = time.monotonic

SUITES = (
    "suite_wedge_square_exact",
    "suite_wedge_square_float",
    "suite_top_determinant",
    "suite_form22_roundtrip",
    "suite_root_roundtrip",
    "suite_psi_omega_roundtrip",
    "suite_scaling_covariance",
    "suite_star_defining_identity",
    "suite_star_normalized_square",
    "suite_tilde_star_trace",
    "suite_variation_algebraic",
    "suite_variation_fd",
    "suite_kernel_identity",
    "suite_symbol_scalar_at_zero_coupling",
    "suite_curvature_bound_sufficiency",
    "suite_rotation_covariance",
    "suite_wedge_extract_constraint",
    "suite_coupled_block_spectrum",
    "suite_adversarial_flip",
)

# module -> public functions whose calls the traced run times
TRACED = {
    "flow": ("make_stationary_torus_problem", "fu_yau_run", "torus_run", "torus_rhs"),
    "grid": (
        "assert_positive_field", "along_axis", "band_forward", "band_inverse",
        "forward", "inverse", "chern_curvature", "tr_r_wedge_r", "i_ddbar_11",
        "d_residual_22",
    ),
    "pointwise": ("assert_positive", "adjugate3", "det3", "herm3_min_eig", "hermitize"),
    "snapshot": ("write_snapshot",),
    "linearize": ("restricted_symbol", "proposition_norm", "coupled_symbol_matrix"),
    "exterior": ("MultiVector.wedge",),
    "sampling": ("unit_covectors",),
    "verify": SUITES,
}
TRACED_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


def _unit_hooks(cli, command, marks):
    """Time the units of work of one command (see the module docstring)."""
    steps = marks["units_s"]

    def first():
        if marks["first"] is None:
            marks["first"] = clock()
            marks["last"] = marks["first"]

    if command in ("flow-fuyau", "flow-torus"):
        mod = cli.flowmod
        name = "fu_yau_run" if command == "flow-fuyau" else "torus_run"
        run = getattr(mod, name)

        @functools.wraps(run)
        def timed_run(*args, on_step=None, **kwargs):
            first()

            def step(*sargs):
                steps.append(clock() - marks["last"])
                if on_step is not None:
                    on_step(*sargs)
                marks["last"] = clock()

            return run(*args, on_step=step, **kwargs)

        setattr(mod, name, timed_run)
    elif command == "symbol":
        lin = cli.linearize
        restricted, norm = lin.restricted_symbol, lin.proposition_norm

        @functools.wraps(restricted)
        def timed_restricted(*args, **kwargs):
            first()
            return restricted(*args, **kwargs)

        @functools.wraps(norm)
        def timed_norm(*args, **kwargs):
            out = norm(*args, **kwargs)
            now = clock()
            steps.append(now - marks["last"])
            marks["last"] = now
            return out

        lin.restricted_symbol, lin.proposition_norm = timed_restricted, timed_norm
    elif command == "verify":
        run_all = cli.verify.run_all

        @functools.wraps(run_all)
        def timed_run_all(*args, **kwargs):
            first()
            return run_all(*args, **kwargs)

        cli.verify.run_all = timed_run_all


class Tracer:
    """Spans of calls into the TRACED functions, kept in memory."""

    def __init__(self):
        self.spans = []  # [name index, start, end, parent span or -1, outermost 0/1]
        self.stack = []
        self.depth = [0] * len(TRACED_NAMES)
        self.fft_bytes = 0
        self.snapshot_bytes = 0

    def _wrap(self, idx, fn):
        name = TRACED_NAMES[idx]
        spans, stack, depth = self.spans, self.stack, self.depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outer = depth[idx] == 0
            stack.append(me)
            depth[idx] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                depth[idx] -= 1
                stack.pop()
                spans[me] = [idx, t0, t1, parent, int(outer)]
                if name in ("grid.forward", "grid.inverse"):
                    self.fft_bytes += args[1].nbytes
                elif name == "snapshot.write_snapshot":
                    self.snapshot_bytes += os.path.getsize(args[0])

        return traced

    def install(self):
        """Replace each traced function wherever a module of the package holds it.

        Raises if a traced name is gone or the verify suites differ from
        SUITES: a renamed function would otherwise read as zero calls.
        """
        suites = tuple(f.__name__ for f in sys.modules["anomaly_flow.verify"].ALL_SUITES)
        if suites != SUITES:
            raise RuntimeError(f"verify.ALL_SUITES is {suites}, the benchmark traces {SUITES}")
        wrapped = {}  # id of the original -> its wrapper (the wrapper keeps it alive)
        for idx, name in enumerate(TRACED_NAMES):
            mod, _, attr = name.partition(".")
            owner = sys.modules[f"anomaly_flow.{mod}"]
            if "." in attr:  # a method: replace it on its class
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            fn = getattr(owner, attr, None)
            if not callable(fn):
                raise RuntimeError(f"traced function {name} not found")
            wrapped[id(fn)] = self._wrap(idx, fn)
            setattr(owner, attr, wrapped[id(fn)])
        for modname, module in list(sys.modules.items()):
            if not modname.startswith("anomaly_flow"):
                continue
            for key, value in list(vars(module).items()):
                if id(value) in wrapped:
                    setattr(module, key, wrapped[id(value)])
                elif isinstance(value, list):  # e.g. verify.ALL_SUITES
                    value[:] = [wrapped.get(id(item), item) for item in value]

    def dump(self):
        return {
            "names": TRACED_NAMES,
            "spans": self.spans,
            "fft_bytes": self.fft_bytes,
            "snapshot_bytes": self.snapshot_bytes,
        }


def peak_rss_kib():
    """VmHWM of this process's own address space.

    Not getrusage: ru_maxrss of a spawned process starts at the peak RSS of
    the process that spawned it, here run.py with its checks' arrays.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return None


def main(argv):
    times_path, trace, cli_argv = argv[0], argv[1] == "1", argv[2:]
    marks = {"start": clock(), "first": None, "last": None, "units_s": []}
    import anomaly_flow.cli as cli

    marks["imported"] = clock()
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    else:
        _unit_hooks(cli, cli_argv[0], marks)
    code = cli.main(cli_argv)
    marks["end"] = clock()
    marks.pop("last")
    if tracer is not None:
        marks["trace"] = tracer.dump()
    marks["exit_code"] = code
    marks["peak_rss_kib"] = peak_rss_kib()
    with open(times_path, "w") as fh:
        json.dump(marks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
