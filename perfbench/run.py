#!/usr/bin/env python3
"""phasebeam benchmark: one run of one workload, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload qutrit_surface --seed 1 --seconds 20 --trace 0

With --trace 0 the run measures the end-to-end metrics of BENCHMARK.json;
with --trace 1 it measures the per-layer metrics instead, in a separate
traced run.  Every output is checked against frozen references outside the
timed region.  End-to-end times are in reference seconds: each wall time
is scaled by how fast fixed probes ran during the same run (SpeedProbe,
START_PROBE_CODE), so that the speed of a shared machine, which drifts
over minutes, drops out.  The last line of stdout is the JSON result; a table of
the metrics, their wall-clock values, the correctness tally and the
provenance goes to stderr, and the full report (and the spans of a traced
run) to .perfbench/.  The exit code is 0 when every check passed, 1 when
one failed, 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter

from spans import NullTracer, Tracer, per_pass_median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
BENCHMARK = ROOT / "BENCHMARK.json"

SETUP_PER_ROUND = 2
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
CHILD_TIMEOUT_S = 150.0
# The probe's length, and its duration on the reference machine: one
# reference second is the time in which that machine runs the probe
# 1 / PROBE_REF_S times.
PROBE_ITERATIONS = 40_000
PROBE_REF_S = 0.020
# Least wall time between probes: often enough to sample many slow and
# fast spells of a run, rarely enough to cost under a tenth of it.
PROBE_INTERVAL_S = 0.25

# A fresh interpreter imports phasebeam and builds the workload's specs.
SETUP_CODE = """\
import json, sys
import phasebeam
from phasebeam.algebra import Family, build_structure
for family, two_s, kappa in json.loads(sys.argv[1]):
    build_structure(Family(family), two_s, kappa)
"""

# The start-up probe: a fresh interpreter that imports numpy and nothing of
# phasebeam.  It follows how fast the machine runs fresh processes, which
# start up and import before they work, better than the in-process
# SpeedProbe does.  START_REF_S is its duration on the reference machine.
START_PROBE_CODE = "import numpy"
START_REF_S = 0.200


class BenchError(Exception):
    """The run cannot be made; exit 2 without a result."""


def use_source_tree() -> None:
    """Import phasebeam from src/ of this checkout, never from elsewhere."""
    if not (SRC / "phasebeam" / "__init__.py").is_file():
        raise BenchError(f"no phasebeam sources under {SRC}")
    sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], stdout_path: Path) -> tuple[float, float, int]:
    """Run a fresh interpreter; wall seconds, peak RSS in MB, exit code.

    The peak RSS is the largest of the child and the children it reaped
    (ru_maxrss as returned by wait4), so it covers the library's pool.
    """
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = perf_counter()
        # In a session of its own, so that killing it also kills its pool.
        proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT, start_new_session=True)

        def kill_group() -> None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(CHILD_TIMEOUT_S, kill_group)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            kill_group()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def blas_info() -> tuple[str | None, int | None]:
    """Name of numpy's BLAS and its thread count, where they can be read."""
    import numpy as np
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        name = None
    libdir = os.path.dirname(np.__file__) + ".libs"
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, None


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def provenance(args, argv) -> dict:
    import numpy as np
    import phasebeam
    blas, blas_threads = blas_info()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "phasebeam": phasebeam.__version__,
        "git_commit": git_commit(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": argv,
    }


def timed(fn, *args):
    start = perf_counter()
    out = fn(*args)
    return perf_counter() - start, out


def counted(tally, cells: int, fn, *args) -> bool:
    """Run fn; if it raises, print the traceback and count `cells` as failed."""
    try:
        fn(*args)
    except Exception:  # a cell that raises is a failed cell, not a crash
        traceback.print_exc()
        tally.miss(cells)
        return False
    return True


class SpeedProbe:
    """How fast the machine ran during a run, from a fixed pure-Python probe.

    On a shared host the speed of a vCPU switches between levels about 2x
    apart, for seconds at a time, and the share of slow time drifts over
    minutes, so no statistic of the wall times of one run is steady from
    run to run.  The probe is timed before each part of a pass, set-up and
    CLI process, whenever PROBE_INTERVAL_S has passed since the last probe.
    Its mean duration is the run's average slowness, as the mean of the
    timed items is the run's average cost, so their ratio drops the
    machine's speed out.  The probe calls nothing in phasebeam, so no change
    to the program moves it.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.times: list[float] = []
        self._last = -math.inf

    def tick(self) -> None:
        if perf_counter() - self._last >= PROBE_INTERVAL_S:
            self.sample()

    def sample(self) -> None:
        start = perf_counter()
        acc, table = 0.0, {}
        for i in range(PROBE_ITERATIONS):
            acc += math.exp(-i * 1e-5) * math.cos(i * 1e-3)
            table[i & 255] = divmod(i, 7)
        self._last = perf_counter()
        self.samples.append(self._last - start)
        self.times.append(start)

    def scale(self) -> float:
        """Reference seconds per wall second in this run.

        The slowest tenth of the probes is left out.  A stall of the host
        makes a probe three or four times longer, where it hardly moves a
        timed item of a second or more.
        """
        kept = sorted(self.samples)[:len(self.samples) - len(self.samples) // 10]
        return PROBE_REF_S / statistics.fmean(kept)


class PassTimer:
    """Times each part of a pass; a pass costs the sum of per-part means.

    Means, not medians, because they pair with the probe's mean: both
    average over the same slow and fast spells of the run.
    """

    def __init__(self, probe: SpeedProbe | None = None) -> None:
        self.parts: dict[int, list[float]] = {}
        self.probe = probe

    def run(self, wl, serial: bool, tally) -> None:
        counted(tally, wl.cells_per_pass, self._run, wl, serial, tally)

    def _run(self, wl, serial: bool, tally) -> None:
        times, outs = [], []
        for part in wl.parts(serial):
            if self.probe is not None:
                self.probe.tick()
            dt, out = timed(part)
            times.append(dt)
            outs.append(out)
        wl.check(outs, tally)
        for i, dt in enumerate(times):
            self.parts.setdefault(i, []).append(dt)

    def pass_s(self) -> float:
        if not self.parts:
            raise BenchError("every pass raised; see the tracebacks above")
        return sum(statistics.fmean(times) for times in self.parts.values())


def fresh_child(argv: list[str], stem: str, what: str) -> float:
    """Wall seconds of a fresh interpreter that must exit with 0."""
    wall, _, code = run_child(argv, OUT / f"{stem}.{what}.out")
    if code != 0:
        raise BenchError(f"{what} interpreter exited with {code}")
    return wall


def measure(wl, seconds: float, stem: str):
    """End-to-end metrics: set-up, warm passes on both paths, fresh CLI runs.

    Each round runs a default pass, a serial pass where the library has a
    serial path, set-ups and one CLI process, so slow spells of the machine
    spread over all metrics alike.
    """
    from workloads import Tally
    tally = Tally()
    wl.prepare(NullTracer())
    PassTimer().run(wl, False, tally)  # warm-up: caches and pool code paths
    probe = SpeedProbe()
    default = PassTimer(probe)
    serial = PassTimer(probe) if wl.has_serial_path else default
    setup, setup_ratio, starts, round_t = [], [], [], []
    cli_wall, cli_ratio, cli_rss = [], [], []
    setup_argv = ["-c", SETUP_CODE, json.dumps(wl.spec_keys())]
    start, rounds = perf_counter(), 0
    while rounds < MIN_ROUNDS or perf_counter() - start < seconds:
        round_t.append(perf_counter() - start)
        default.run(wl, False, tally)
        if serial is not default:
            serial.run(wl, True, tally)
        probe.tick()
        starts.append(fresh_child(["-c", START_PROBE_CODE], stem, "start"))
        for _ in range(SETUP_PER_ROUND):
            probe.tick()
            setup.append(fresh_child(setup_argv, stem, "setup"))
            # Each set-up against the start-up probe just before it.
            setup_ratio.append(setup[-1] / starts[-1])
        probe.tick()
        stdout_path = OUT / f"{stem}.cli.out"
        took, rss, code = run_child(["-m", "phasebeam.cli", *wl.cli_argv()], stdout_path)
        cli_wall.append(took)
        cli_ratio.append(took / starts[-1])
        cli_rss.append(rss)
        wl.check_cli(code, stdout_path.read_bytes(), tally)
        rounds += 1
    counted(tally, 1, wl.audit, tally)
    cells = wl.cells_per_pass
    wall = {
        "setup_s": statistics.median(setup),
        "cells_per_s": cells / default.pass_s(),
        "cells_per_s_serial": cells / serial.pass_s(),
        "cli_s": statistics.fmean(cli_wall),
    }
    scale = probe.scale()
    metrics = {
        # Fresh processes against the start-up probe of their round;
        # passes against the speed probe.
        "setup_s": START_REF_S * statistics.median(setup_ratio),
        "cells_per_s": wall["cells_per_s"] / scale,
        "cells_per_s_serial": wall["cells_per_s_serial"] / scale,
        # A mean: over a handful of samples a median jumps between the
        # slow and the fast level of the machine.
        "cli_s": START_REF_S * statistics.fmean(cli_ratio),
        "peak_rss_mb": statistics.median(cli_rss),
        "probe_scale": scale,
    }
    metrics.update({f"wall.{name}": value for name, value in wall.items()})
    samples = {"setup_s": setup, "pass_parts_s": default.parts,
               "serial_pass_parts_s": serial.parts, "cli_s": cli_wall,
               "peak_rss_mb": cli_rss, "probe_s": probe.samples, "start_probe_s": starts,
               "probe_t": [t - start for t in probe.times], "round_t": round_t,
               "cells_per_pass": cells, "rounds": rounds}
    return metrics, samples, tally


# Spans left out of the evaluated path: the pass itself, and phase_state,
# which is priced on its own but also runs inside split_phase_state.
NOT_ON_PATH = {"pass", "phase_states.phase_state"}
LAYERS = (
    "phase_states.phase_state",
    "splitter.split_phase_state",
    "splitter.reduced_density",
    "splitter.validate_density",
    "entropy.linear_entropy",
    "splitter.reduced_density_closed",
    "entropy.linear_entropy_closed",
    "cli.emit",
    "checks.algebra_suite",
    "checks.phase_suite",
    "checks.splitter_suite",
    "checks.entropy_suite",
)
COUNTS = (
    "splitter.split_phase_state.terms",
    "entropy.linear_entropy_closed.terms",
    "cli.emit.bytes",
    "checks.algebra_suite.checks",
    "checks.phase_suite.checks",
    "checks.splitter_suite.checks",
    "checks.entropy_suite.checks",
)


def measure_traced(wl, seconds: float, stem: str):
    """Per-layer metrics from spans around the benchmark's own layer calls."""
    from workloads import Tally, size_ladder
    tally = Tally()
    tr = Tracer()
    wl.prepare(tr)  # pass 0: the build_structure calls of set-up
    PassTimer().run(wl, False, tally)
    default = PassTimer()
    serial = PassTimer() if wl.has_serial_path else default
    traced_ids, untraced = [], []

    def traced_pass():
        wl.check(tr.call("pass", wl.decomposed_pass, tr), tally)

    def untraced_pass():
        dt, outs = timed(wl.decomposed_pass, NullTracer())
        wl.check(outs, tally)
        untraced.append(dt)

    start, rounds = perf_counter(), 0
    while rounds < MIN_TRACED_ROUNDS or perf_counter() - start < seconds:
        tr.pass_id += 1
        traced_ids.append(tr.pass_id)
        counted(tally, wl.cells_per_pass, traced_pass)
        counted(tally, wl.cells_per_pass, untraced_pass)
        serial.run(wl, True, tally)
        if serial is not default:
            default.run(wl, False, tally)
        rounds += 1
    counted(tally, 1, wl.audit, tally)

    selfs, calls = tr.self_times(), tr.call_counts()
    passes = [s for s in tr.spans if s[3] == "pass"]
    metrics = {
        "algebra.build_structure.calls": calls.get((0, "algebra.build_structure"), 0),
        "algebra.build_structure.self_s": selfs.get((0, "algebra.build_structure"), 0.0),
    }
    for name in LAYERS:
        metrics[f"{name}.calls"] = per_pass_median(calls, name, traced_ids)
        metrics[f"{name}.self_s"] = per_pass_median(selfs, name, traced_ids)
    for key in COUNTS:
        metrics[key] = per_pass_median(tr.counts, key, traced_ids)
    path_s = statistics.median(
        sum(v for (p, name), v in selfs.items() if p == pass_id and name not in NOT_ON_PATH)
        for pass_id in traced_ids)
    metrics["experiments.overhead_s"] = serial.pass_s() - path_s
    metrics["experiments.pool_speedup"] = serial.pass_s() / default.pass_s()
    metrics["trace.overhead_frac"] = (
        statistics.median(s[5] - s[4] for s in passes) / statistics.median(untraced) - 1.0)
    metrics.update(size_ladder())
    tr.write_tsv(OUT / f"{stem}.spans.tsv.gz")
    samples = {"traced_pass_s": [s[5] - s[4] for s in passes], "untraced_pass_s": untraced,
               "pass_parts_s": default.parts, "serial_pass_parts_s": serial.parts,
               "path_self_s": path_s,
               "spans": len(tr.spans), "cells_per_pass": wl.cells_per_pass}
    return metrics, samples, tally


def declared_units(trace: bool) -> dict[str, str]:
    try:
        declared = json.loads(BENCHMARK.read_text(encoding="utf-8"))
        return {m["name"]: m["unit"]
                for m in declared["per_layer" if trace else "end_to_end"]}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise BenchError(f"cannot read metric units from {BENCHMARK}: {exc}") from None


def result_line(metrics: dict, tally, units: dict[str, str]) -> dict:
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    bad = [n for n in units if not math.isfinite(float(metrics[n]))]
    if bad:
        raise BenchError(f"metrics not finite: {bad}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }


def report_table(metrics: dict, units: dict, tally, samples: dict, prov: dict) -> str:
    lines = [f"workload {prov['workload']}  seed {prov['seed']}  trace {prov['trace']}"]
    for name, unit in units.items():
        lines.append(f"  {name:<48} {metrics[name]:>16.6g} {unit}")
    if "cli_s" in samples:
        lines.append("  wall clock: " + ", ".join(
            f"{name[5:]} {value:.6g}" for name, value in metrics.items()
            if name.startswith("wall.")) + f"; probe_scale {metrics['probe_scale']:.4g}")
        lines.append(f"  samples: {samples['rounds']} rounds, {len(samples['cli_s'])} CLI runs, "
                     f"{len(samples['setup_s'])} set-ups, {len(samples['probe_s'])} probes")
    lines.append(f"  failed_frac {tally.failed / max(tally.attempted, 1):.6g} "
                 f"({tally.failed} of {tally.attempted} cells)  "
                 f"max_abs_err {tally.max_abs_err:.3e}")
    lines.append("  " + ", ".join(f"{k}={v}" for k, v in prov.items() if k != "argv"))
    return "\n".join(lines)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def exit_on_sigterm(signum, frame):
    """Turn SIGTERM into SystemExit, so that the library's pool and the
    child processes are shut down and reaped on the way out."""
    sys.exit(128 + signum)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, exit_on_sigterm)
    try:
        use_source_tree()
        units = declared_units(bool(args.trace))
        import workloads
        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {sorted(workloads.WORKLOADS)}")
        OUT.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        wl = workloads.make(args.workload, args.seed)
        prov = provenance(args, argv)
        run = measure_traced if args.trace else measure
        metrics, samples, tally = run(wl, args.seconds, stem)
        line = result_line(metrics, tally, units)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    report = {"provenance": prov, "result": line, "all_metrics": metrics,
              "samples": samples, "failed_frac": tally.failed / max(tally.attempted, 1),
              "max_abs_err": tally.max_abs_err}
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(report_table(metrics, units, tally, samples, prov), file=sys.stderr)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
