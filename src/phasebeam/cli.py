"""Command line front end.

Three subcommands: `compute` evaluates the entropy at a single parameter
point, `sweep` produces a CSV/JSON grid, `check` runs the invariant suites.
Exit codes: 0 success, 1 usage error, 2 numerical-consistency failure
(any ArithmeticError, such as an overflow), 3 I/O failure.  Data goes to
stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from math import isfinite, pi

import numpy as np

from .algebra import Family, build_structure
from .checks import run_suites
from .entropy import linear_entropy_closed
from .errors import PhasebeamError, RangeError, UsageError
from .experiments import Axis, SweepTable, _entropy_grid, entropy_point
from .splitter import SplitterParams

THREADS_ENV = "PHASEBEAM_THREADS"
# `compute --method both` refuses to report routes that disagree by more.
BOTH_ROUTES_TOL = 1e-8

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
    serial: bool = False
    suite: str = "all"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise UsageError(message)


def parse_grid(text: str) -> tuple[float, ...]:
    """Parse a finite scalar or an inclusive `start:stop:count` grid."""
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
        return (ends[0],)
    start, stop = ends
    if count < 2:
        raise UsageError(f"grid needs at least 2 points, got {count}")
    if not start < stop:
        raise UsageError(f"grid must be strictly increasing, got {text!r}")
    return tuple(float(v) for v in np.linspace(start, stop, count))


def parse_two_s(text: str) -> tuple[int, ...]:
    """Parse an int, a comma list, or an inclusive `lo:hi` integer range."""
    try:
        if ":" in text:
            lo_s, hi_s = text.split(":")
            values = tuple(range(int(lo_s), int(hi_s) + 1))
        elif "," in text:
            values = tuple(int(v) for v in text.split(","))
        else:
            values = (int(text),)
    except ValueError:
        raise UsageError(f"malformed two-s spec {text!r}") from None
    if not values:
        raise UsageError(f"empty range {text!r}")
    if any(v < 1 for v in values):
        raise RangeError(f"two-s values must be >= 1: {text!r}")
    return values


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
                         help="accepted for compatibility; sweeps always run "
                              "in one process")

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
        return RunConfig(command="check", suite=ns.suite, seed=ns.seed)

    family = _family(ns.family)
    two_s = parse_two_s(ns.two_s)
    phi = parse_grid(ns.phi)
    r2 = _check_r2_range(parse_grid(ns.r2))

    if ns.command == "compute":
        if len(two_s) != 1 or len(phi) != 1 or len(r2) != 1:
            raise UsageError("compute takes scalar --two-s, --phi and --r2")
        return RunConfig(command="compute", family=family, two_s=two_s,
                         kappa=ns.kappa, m=ns.m, phi=phi, r2=r2,
                         method=ns.method)

    return RunConfig(command="sweep", family=family, two_s=two_s,
                     kappa=ns.kappa, m=ns.m, phi=phi, r2=r2,
                     fmt=ns.fmt, serial=ns.serial)


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


def render_csv(table: SweepTable) -> str:
    header = ",".join([axis.name for axis in table.axes] + ["S"])
    grids = np.meshgrid(*(axis.values for axis in table.axes), indexing="ij")
    columns = [g.ravel().tolist() for g in grids] + [table.values.tolist()]
    row = ",".join(["%.17g"] * len(columns))
    return "\n".join([header, *(row % cells for cells in zip(*columns))]) + "\n"


def render_json(table: SweepTable) -> str:
    payload = {
        "axes": [{"name": a.name, "values": list(a.values)} for a in table.axes],
        "values": [float(v) for v in table.values],
        "meta": table.meta,
    }
    return json.dumps(payload) + "\n"


def emit(table: SweepTable, fmt: str, stream=None) -> bytes:
    """Serialize a sweep table; writes to `stream` (binary) when given."""
    if fmt == "csv":
        data = render_csv(table).encode("utf-8")
    elif fmt == "json":
        data = render_json(table).encode("utf-8")
    else:
        raise UsageError(f"unknown format {fmt!r}")
    if stream is not None:
        stream.write(data)
        stream.flush()
    return data


def _check_threads_env() -> None:
    """PHASEBEAM_THREADS changes nothing but must be a positive integer."""
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        if int(raw) >= 1:
            return
    except ValueError:
        pass
    raise UsageError(f"{THREADS_ENV} must be a positive integer, got {raw!r}")


def _run_compute(cfg: RunConfig) -> int:
    spec = build_structure(cfg.family, cfg.two_s[0], cfg.kappa)
    params = SplitterParams(cfg.r2[0])
    phi = cfg.phi[0]

    def oracle() -> float:
        return entropy_point(cfg.two_s[0], cfg.m, phi, cfg.r2[0], cfg.family, cfg.kappa)

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
    _check_threads_env()
    axes = []
    if len(cfg.two_s) > 1:
        axes.append(Axis("two_s", tuple(float(v) for v in cfg.two_s)))
    axes.append(Axis("phi", cfg.phi))
    axes.append(Axis("r2", cfg.r2))
    values = _entropy_grid(cfg.two_s, cfg.phi, cfg.r2, cfg.family, cfg.kappa,
                           cfg.m)
    meta = {"family": cfg.family.value, "m": cfg.m, "kappa": cfg.kappa,
            "method": "oracle"}
    if len(cfg.two_s) == 1:
        meta["two_s"] = cfg.two_s[0]
    table = SweepTable(axes=tuple(axes), values=values.ravel(), meta=meta)
    emit(table, cfg.fmt, sys.stdout.buffer)
    return 0


def _run_check(cfg: RunConfig) -> int:
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
