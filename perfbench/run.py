"""Benchmark of the `anomaly` CLI: four single-threaded, closed-loop workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each run repeats whole rounds of the
workload's CLI commands, each a fresh process with src/ on PYTHONPATH and one
BLAS/FFT thread, until S seconds have passed, and checks every round's
outputs.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

--trace 0  end-to-end metrics, medians over the rounds of the run:
  wall_s       process spawn to exit, summed over the round's commands
  setup_s      process spawn to the first unit of work (interpreter, package
               import, config, problem or fixture construction), summed
  solve_s      first unit of work to the last output written, summed
  step_ms_p50  median duration of one unit of work (child.py) over the run
  peak_rss_mb  largest peak resident memory (VmHWM) of the round's processes
--trace 1  per-layer metrics.  Rounds come in whole groups of one untraced
  round and two traced ones; the traced ones report calls, self and total
  time of each function in child.TRACED, computed bytes and the tracing
  overhead (traced minus untraced wall_s).  Counts and flow.steps must
  repeat exactly between traced rounds, and every output file of a traced
  round (summary.json aside, which holds paths) must equal the first
  untraced round's byte for byte.

Every CLI command and every check is one operation; a command fails on a
non-zero exit.  Results go to .perfbench_out/ under the working directory.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "ANOMALY_THREADS": "1"}
os.environ.update(THREAD_ENV)  # before numpy loads, here and in every child

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import child  # noqa: E402

OUT_ROOT = ".perfbench_out"

END_TO_END = {"wall_s": "s", "setup_s": "s", "solve_s": "s", "step_ms_p50": "ms", "peak_rss_mb": "MiB"}


def per_layer_units():
    """Every per-layer metric name and unit, in a fixed order."""
    units = {"cli.import_s": "s", "flow.steps": "count", "grid.fft.bytes": "B",
             "snapshot.bytes": "B", "trace.overhead_s": "s"}
    for name in child.TRACED_NAMES:
        if not name.startswith("verify."):  # each suite runs once per verify command
            units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.total_s"] = "s"
    return units


def run_command(root, round_dir, i, command, cfg, trace):
    """One CLI command in a fresh process: timing marks, wall time, peak RSS, exit code."""
    out = os.path.join(round_dir, str(i))
    os.makedirs(out)
    cfg_path = os.path.join(round_dir, f"{i}.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    times_path = os.path.join(round_dir, f"{i}.times.json")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    argv = [sys.executable, os.path.join(HERE, "child.py"), times_path, str(int(trace)),
            command, "--config", cfg_path, "--out", out]
    with open(os.path.join(round_dir, f"{i}.log"), "w") as log:
        t_spawn = child.clock()
        proc = subprocess.Popen(argv, cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no process behind
            proc.kill()
            proc.wait()
            raise
        t_exit = child.clock()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    marks = {}
    if os.path.exists(times_path):
        with open(times_path) as fh:
            marks = json.load(fh)
    return {
        "command": command, "out": out, "code": proc.returncode, "marks": marks, "wall": t_exit - t_spawn,
        "setup": (marks.get("first") or t_exit) - t_spawn,
        "solve": marks.get("end", t_exit) - (marks.get("first") or t_exit),
        "rss_mib": (marks.get("peak_rss_kib") or usage.ru_maxrss) / 1024.0,
    }


def run_round(root, run_dir, index, workload, seed, trace):
    round_dir = os.path.join(run_dir, f"round{index}")
    os.makedirs(round_dir)
    procs = [run_command(root, round_dir, i, cmd, cfg, trace)
             for i, (cmd, cfg) in enumerate(workload.commands(seed))]
    for p in procs:
        p["digests"] = output_digests(p["out"])
    failed = sum(p["code"] != 0 for p in procs)
    if failed:
        checks = None
    else:
        checks = workload.checks(seed, [p["out"] for p in procs])
    return round_dir, procs, checks


def output_digests(out):
    """sha256 of each output file of a command, summary.json aside (it holds paths)."""
    digests = {}
    for name in sorted(os.listdir(out)):
        if name != "summary.json":
            with open(os.path.join(out, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def same_outputs(procs, reference):
    """Every command wrote files, and the same files with the same bytes as in reference."""
    return all(p["digests"] and p["digests"] == r["digests"] for p, r in zip(procs, reference))


def span_metrics(procs):
    """calls, self_s and total_s per traced function, and computed bytes, over a round."""
    names = child.TRACED_NAMES
    calls, self_s, total_s = [0] * len(names), [0.0] * len(names), [0.0] * len(names)
    fft_bytes = snap_bytes = 0
    for p in procs:
        trace = p["marks"].get("trace", {"spans": [], "fft_bytes": 0, "snapshot_bytes": 0})
        spans = trace["spans"]
        covered = [0.0] * len(spans)
        for idx, t0, t1, parent, _ in spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        for (idx, t0, t1, parent, outer), cov in zip(spans, covered):
            calls[idx] += 1
            self_s[idx] += (t1 - t0) - cov
            if outer:
                total_s[idx] += t1 - t0
        fft_bytes += trace["fft_bytes"]
        snap_bytes += trace["snapshot_bytes"]
    counts = {"flow.steps": count_steps(procs), "grid.fft.bytes": fft_bytes, "snapshot.bytes": snap_bytes}
    times = {}
    for i, name in enumerate(names):
        counts[f"{name}.calls"] = calls[i]
        times[f"{name}.self_s"] = self_s[i]
        times[f"{name}.total_s"] = total_s[i]
    return counts, times


def count_steps(procs):
    steps = 0
    for p in procs:
        path = os.path.join(p["out"], "summary.json")
        if os.path.exists(path):
            with open(path) as fh:
                steps += json.load(fh)["steps"]
    return steps


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that run_command kills and reaps its running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "anomaly_flow", "cli.py")):
        print(f"no src/anomaly_flow/cli.py under {root}: run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))  # the checks call into the package
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    run_dir = os.path.join(root, OUT_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    # untimed warm-up: importing the CLI here compiles the package's bytecode
    # and reads numpy and scipy from disk once, a cost a user pays per install
    import anomaly_flow.cli  # noqa: F401

    attempted = failed = 0
    correct = True
    untraced, traced = [], []  # per round: the records of its commands
    # trace: an untraced round, then two traced ones, so that the traced
    # counts can be compared between two rounds
    pattern = (False, True, True) if args.trace else (False,)
    measured = 0.0  # wall time of the commands run so far
    index = 0
    # whole groups only; no group starts that would take the commands past --seconds
    while (index < len(pattern) or index % len(pattern)
           or measured * (index + len(pattern)) / index <= args.seconds):
        trace = pattern[index % len(pattern)]
        round_dir, procs, checks = run_round(root, run_dir, index, workload, args.seed, trace)
        measured += sum(p["wall"] for p in procs)
        (traced if trace else untraced).append(procs)
        index += 1
        ops = [(f"{p['command']} exit code {p['code']}", p["code"] == 0) for p in procs]
        if checks is None:  # a command failed: its checks count as failed, not as wrong
            ops += [(f"{name} (not run)", False) for name in workload.check_names]
        else:
            ops += [(c.line(), c.ok) for c in checks]
            correct &= all(c.ok for c in checks)
        if trace:
            same = [("traced outputs equal to untraced, byte for byte", same_outputs(procs, untraced[0]))]
            if len(traced) > 1:
                same.append(("traced counts equal to the first traced round's",
                             span_metrics(procs)[0] == span_metrics(traced[0])[0]))
            ops += same
            correct &= all(ok for _, ok in same)
        attempted += len(ops)
        for line, ok in ops:
            if not ok:
                failed += 1
                print(f"round {index}: FAILED {line}", file=sys.stderr)
        if index > len(pattern):  # keep the first group of rounds for inspection
            shutil.rmtree(round_dir)
        else:  # but not its snapshots, 8-34 MB a round, which the checks have read
            for path in glob.glob(os.path.join(round_dir, "*", "*.anmf")):
                os.remove(path)
    return report(args, run_dir, untraced, traced, attempted, failed, correct)


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def report(args, run_dir, untraced, traced, attempted, failed, correct):
    rounds = {
        "wall_s": [sum(p["wall"] for p in r) for r in untraced],
        "setup_s": [sum(p["setup"] for p in r) for r in untraced],
        "solve_s": [sum(p["solve"] for p in r) for r in untraced],
        "peak_rss_mb": [max(p["rss_mib"] for p in r) for r in untraced],
    }
    units_ms = [u * 1e3 for r in untraced for p in r for u in p["marks"].get("units_s", [])]
    if args.trace:
        units = per_layer_units()
        per_round = [span_metrics(r) for r in traced]
        values = dict(per_round[0][0])
        for name in per_round[0][1]:
            values[name] = median([times[name] for _, times in per_round])
        every = [p["marks"] for r in untraced + traced for p in r if "imported" in p["marks"]]
        values["cli.import_s"] = median([m["imported"] - m["start"] for m in every])
        values["trace.overhead_s"] = (median([sum(p["wall"] for p in r) for r in traced])
                                      - median(rounds["wall_s"]))
    else:
        units = END_TO_END
        values = {name: median(xs) for name, xs in rounds.items()}
        values["step_ms_p50"] = median(units_ms)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "rounds": len(untraced) + len(traced), "units": len(units_ms), "per_round": rounds,
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
        "threads": THREAD_ENV, "cores": os.cpu_count(), "python": sys.version.split()[0],
    }
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
