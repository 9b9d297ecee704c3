"""Command line front end.

Three subcommands: `compute` evaluates the entropy at a single parameter
point, `sweep` produces a CSV/JSON grid with the same table builder as the
library's sweep_* functions, `check` runs the invariant suites.  Sweeps run
in one process; `sweep --serial` is accepted for compatibility and ignored.
Exit codes: 0 success, 1 usage error (a run that experiments._price prices
over CUBE_BUDGET included), 2 numerical-consistency failure (any
ArithmeticError, such as an overflow), 3 I/O failure.  Data goes to
stdout, diagnostics to stderr.  experiments._price prices every run before
it starts: compute as a 1 x 1 plane by the routes its --method runs, a
sweep slice by slice through _plan, a grid axis as the phases of a 2s = 1
sweep plus _AXIS_POINT per point.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from functools import cache
from itertools import chain
from math import inf, isfinite, pi

import numpy as np

from .algebra import Family, build_structure
from .entropy import linear_entropy, linear_entropy_closed
from .errors import PhasebeamError, RangeError, UsageError
from .experiments import SweepTable, _plan, _price, _sweep
from .splitter import SplitterParams, reduced_density, split_phase_state

# `compute --method both` refuses to report routes that disagree by more.
BOTH_ROUTES_TOL = 1e-8
# The work budget in the multiply-adds of experiments._price, checked
# against the price of a run's routes before it starts; a run priced above
# it is a usage error.  2^36 admits compute up to 2s = 2537 by the partial
# trace (4.2 s on a 2-vCPU x86 host), 720 by the closed form (2.0 s) and
# 715 by both, the default 128 x 101 sweep up to 2s = 218 (3.6-4.0 s) and
# 6 628 035 points on a grid axis (5.8-5.9 s, 1.30 GB).
CUBE_BUDGET = 1 << 36
# A grid axis point's work beyond its cell's: its Python float and CSV field.
# sweep --two-s 1 --phi 0:1:N --r2 0.5 takes 0.86 us per point, about
# 14 300 units in all; the term is held at 6 144 so that a 32-point axis
# stays within the price of a 32 x 2 sweep at 2s = 3, which a test takes
# as the budget.
_AXIS_POINT = 12 << 9

_CLI_FAMILIES = {
    "pegg-barnett": Family.PEGG_BARNETT,
    "kappa-neg": Family.KAPPA_NEG,
    "kappa-pos": Family.KAPPA_POS,
}


@dataclass(frozen=True)
class RunConfig:
    """Validated command line input."""

    command: str
    family: Family = Family.KAPPA_NEG
    two_s: tuple[int, ...] = (1,)
    kappa: float | None = None
    m: int = 0
    phi: tuple[float, ...] = (0.0,)
    r2: tuple[float, ...] = (0.5,)
    method: str = "oracle"
    fmt: str = "csv"
    seed: int = 0
    suite: str = "all"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise UsageError(message)


def parse_grid(text: str) -> tuple[float, ...]:
    """Parse a finite scalar or an inclusive `start:stop:count` grid."""
    start, stop, count = _grid_spec(text)
    if count == 1:
        return (start,)
    points = np.linspace(start, stop, count)
    # a span of a few ulps rounds some points onto their neighbours
    if not (np.diff(points) > 0.0).all():
        raise UsageError(f"grid must be strictly increasing, got {text!r}")
    return tuple(points.tolist())


def _grid_spec(text: str) -> tuple[float, float, int]:
    """Check a grid spec without building it: (start, stop, count)."""
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise UsageError(f"grid spec must be start:stop:count, got {text!r}")
    try:
        ends = [float(p) for p in parts[:2]]
        count = int(parts[2]) if len(parts) == 3 else 1
    except ValueError:
        raise UsageError(f"malformed grid spec {text!r}") from None
    if not all(isfinite(v) for v in ends):
        raise UsageError(f"grid values must be finite, got {text!r}")
    if len(parts) == 1:
        return ends[0], ends[0], 1
    start, stop = ends
    if not isfinite(stop - start):
        raise UsageError(f"grid span must be finite, got {text!r}")
    if count < 2:
        raise UsageError(f"grid needs at least 2 points, got {count}")
    # priced as the phases of the cheapest sweep (2s = 1, one r2 value), and per point
    _check_budget(f"the grid {text!r}", min(_price(2, count, 1)) + count * _AXIS_POINT)
    if not start < stop:
        raise UsageError(f"grid must be strictly increasing, got {text!r}")
    return start, stop, count


def _two_s_runs(text: str) -> tuple[range, ...]:
    """Parse an int, a comma list, or an inclusive `lo:hi` integer range as
    ranges of its values, without building them."""
    try:
        if ":" in text:
            lo_s, hi_s = text.split(":")
            runs = (range(int(lo_s), int(hi_s) + 1),)
        else:
            runs = tuple(range(int(v), int(v) + 1) for v in text.split(","))
    except ValueError:
        raise UsageError(f"malformed two-s spec {text!r}") from None
    if not all(runs):
        raise UsageError(f"empty range {text!r}")
    if min(run.start for run in runs) < 1:
        raise RangeError(f"two-s values must be >= 1: {text!r}")
    return runs


def _check_r2_range(values: tuple[float, ...]) -> tuple[float, ...]:
    if any(not 0.0 <= v <= 1.0 for v in values):
        raise RangeError("r2 values must lie in [0, 1]")
    return values


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _family(text: str) -> Family:
    if text not in _CLI_FAMILIES:
        raise UsageError(
            f"unknown family {text!r}; choose from {sorted(_CLI_FAMILIES)}")
    return _CLI_FAMILIES[text]


@cache  # one parser per process, built on first use
def build_parser() -> _Parser:
    parser = _Parser(prog="phasebeam",
                     description="Beam-splitter entanglement of phase states")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def add_common(p):
        p.add_argument("--family", default="kappa-neg",
                       help="pegg-barnett | kappa-neg | kappa-pos")
        p.add_argument("--kappa", type=_finite_float, default=None,
                       help="deformation parameter (kappa-pos only)")
        p.add_argument("--m", type=int, default=0, help="phase-state label")

    p_compute = sub.add_parser("compute", help="entropy at a single point")
    add_common(p_compute)
    p_compute.add_argument("--two-s", required=True, help="2s (integer >= 1)")
    p_compute.add_argument("--phi", required=True, help="phase parameter")
    p_compute.add_argument("--r2", required=True, help="reflection probability")
    p_compute.add_argument("--method", choices=("oracle", "closed", "both"),
                           default="oracle")

    p_sweep = sub.add_parser("sweep", help="entropy over a parameter grid")
    add_common(p_sweep)
    p_sweep.add_argument("--two-s", required=True,
                         help="2s: int, comma list, or lo:hi range")
    p_sweep.add_argument("--phi", default=f"0:{2 * pi!r}:128",
                         help="scalar or start:stop:count grid")
    p_sweep.add_argument("--r2", default="0:1:101",
                         help="scalar or start:stop:count grid")
    p_sweep.add_argument("--format", dest="fmt", choices=("csv", "json"),
                         default="csv")
    p_sweep.add_argument("--serial", action="store_true",
                         help="accepted for compatibility and ignored")

    p_check = sub.add_parser("check", help="run the invariant suites")
    p_check.add_argument("--suite", default="all",
                         choices=("all", "algebra", "phase", "splitter", "entropy"))
    p_check.add_argument("--seed", type=int, default=0)
    return parser


def parse_args(argv=None) -> RunConfig:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.command is None:
        raise UsageError("a subcommand is required: compute | sweep | check")

    if ns.command == "check":
        if ns.seed < 0:
            raise UsageError(f"--seed must be >= 0, got {ns.seed}")
        return RunConfig(command="check", suite=ns.suite, seed=ns.seed)

    family = _family(ns.family)
    if family is Family.PEGG_BARNETT and ns.kappa is not None:
        raise UsageError("--kappa does not apply to pegg-barnett")
    runs = _two_s_runs(ns.two_s)
    # Every budget is checked on the grid and 2s counts, before either is built.
    phases, r2s = _grid_spec(ns.phi)[2], _grid_spec(ns.r2)[2]
    if ns.command == "compute":
        if sum(r.stop - r.start for r in runs) != 1 or phases * r2s != 1:
            raise UsageError("compute takes scalar --two-s, --phi and --r2")
        tables, rho = _price(runs[0].start + 1, 1, 1)
        work = {"oracle": rho, "closed": tables, "both": rho + tables}[ns.method]
        _check_budget(f"compute --method {ns.method}", work)
        extra = {"method": ns.method}
    else:
        # summed slice by slice, so a long range stops at the first past the budget
        work = 0
        for two_s, _, slice_work in _plan(chain(*runs), phases, r2s):
            work += slice_work
            _check_budget("the sweep", work, f"multiply-adds by 2s = {two_s}")
        extra = {"fmt": ns.fmt}
    return RunConfig(command=ns.command, family=family, kappa=ns.kappa, m=ns.m,
                     two_s=tuple(chain(*runs)), phi=parse_grid(ns.phi),
                     r2=_check_r2_range(parse_grid(ns.r2)), **extra)


def _check_budget(what: str, work: int, unit: str = "multiply-adds") -> None:
    """Refuse a run whose estimated work exceeds CUBE_BUDGET."""
    if work > CUBE_BUDGET:
        about = work if work < 1e300 else inf  # an int beyond any float prints as inf
        raise UsageError(f"{what} needs about {about:.3g} {unit}, over the "
                         f"work budget of {CUBE_BUDGET:.3g}")


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


def render_json(table: SweepTable) -> str:
    payload = {
        "axes": [{"name": a.name, "values": list(a.values)} for a in table.axes],
        "values": table.values.tolist(),
        "meta": table.meta,
    }
    return json.dumps(payload) + "\n"


def emit(table: SweepTable, fmt: str, stream=None) -> bytes | None:
    """Serialize a sweep table: write it to the binary `stream` and return
    None, or, without a stream, return its bytes.

    A CSV is a header, then one row per cell, coordinates row-major and S
    last, each number "%.17g" % v.  phasebeam.csvfmt, loaded on the first
    CSV, formats it in blocks of rows, and each block is written to the
    stream as soon as it is formatted, until every byte is out: a write
    that takes no byte (a count of 0 or None) is an OSError.
    """
    if fmt == "csv":
        from .csvfmt import csv_blocks

        blocks = csv_blocks(table)
    elif fmt == "json":
        blocks = (render_json(table).encode("utf-8"),)
    else:
        raise UsageError(f"unknown format {fmt!r}")
    if stream is None:
        return b"".join(blocks)
    for block in blocks:
        rest = memoryview(block)
        while rest:
            count = stream.write(rest)
            if not count:
                raise OSError(f"short write: {len(rest)} bytes not written")
            rest = rest[count:]
    stream.flush()
    return None


def _check_phase_product(specs, phis) -> None:
    """Refuse phases whose product with the levels carries no phase.

    The oracle forms phi F(n); the closed form's angles are phi times a
    difference of two level differences (2 kappa k on a quadratic table),
    which reaches 2 max F for kappa-neg.  With levels >= 0, as in every CLI
    family, no angle exceeds 2 max|phi| max|F|; from 2^52 on, consecutive
    doubles are a radian or more apart, so no angle holds a phase.
    """
    phi = max(max(phis), -min(phis))
    level = max(float(np.abs(spec.levels).max()) for spec in specs)
    if not 2.0 * phi * level < 2.0**52:
        raise UsageError(f"2 max|phi| max|F| = 2 * {phi:.6g} * {level:.6g} "
                         "reaches 2^52, where a double angle carries no phase")


def _run_compute(cfg: RunConfig) -> int:
    spec = build_structure(cfg.family, cfg.two_s[0], cfg.kappa)
    _check_phase_product([spec], cfg.phi)
    params = SplitterParams(cfg.r2[0])
    phi = cfg.phi[0]

    def oracle() -> float:
        return linear_entropy(reduced_density(split_phase_state(spec, cfg.m, phi, params))).value

    if cfg.method == "oracle":
        print(_fmt_float(oracle()))
    elif cfg.method == "closed":
        print(_fmt_float(linear_entropy_closed(spec, phi, params).value))
    else:
        s_oracle = oracle()
        s_closed = linear_entropy_closed(spec, phi, params).value
        diff = abs(s_oracle - s_closed)
        print(f"oracle {_fmt_float(s_oracle)}")
        print(f"closed {_fmt_float(s_closed)}")
        print(f"diff {_fmt_float(diff)}")
        if diff > BOTH_ROUTES_TOL:
            print(f"error: routes disagree by {diff}", file=sys.stderr)
            return 2
    return 0


def _run_sweep(cfg: RunConfig) -> int:
    names = ("two_s", "phi", "r2") if len(cfg.two_s) > 1 else ("phi", "r2")
    _check_phase_product([build_structure(cfg.family, t, cfg.kappa) for t in cfg.two_s],
                         cfg.phi)
    table = _sweep(names, cfg.two_s, cfg.phi, cfg.r2, cfg.family, cfg.kappa, cfg.m)
    emit(table, cfg.fmt, sys.stdout.buffer)
    return 0


def _run_check(cfg: RunConfig) -> int:
    from .checks import run_suites  # loaded for check alone, as csvfmt for a CSV

    results = run_suites([cfg.suite], seed=cfg.seed)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        failed += 0 if res.passed else 1
        print(f"{status} {res.suite}.{res.name}: {res.detail}")
    print(f"{len(results) - failed} passed, {failed} failed")
    return 0 if failed == 0 else 2


def main(argv=None) -> int:
    try:
        cfg = parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        if cfg.command == "compute":
            return _run_compute(cfg)
        if cfg.command == "sweep":
            return _run_sweep(cfg)
        return _run_check(cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"numerical consistency error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except PhasebeamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
