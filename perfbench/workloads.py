"""The four workloads of the phasebeam benchmark.

Each workload is driven by one closed-loop client: a pass starts when the
previous one ends.  A pass calls only public functions of phasebeam.  Its
outputs are checked against values frozen in refs/ after the pass, outside
the timed region.  A decomposed pass does the same work one layer call at
a time, so that the traced run can put a span around each call.

All surfaces use the kappa-neg level table and m = 0, as the README does.
The seed picks the audited cells, the route_audit sample and the check
seed; the README grids themselves are fixed.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import math
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

from phasebeam import checks, cli, experiments
from phasebeam.algebra import Family, build_structure
from phasebeam.entropy import linear_entropy, linear_entropy_closed
from phasebeam.phase_states import phase_state
from phasebeam.splitter import (
    SplitterParams,
    reduced_density,
    reduced_density_closed,
    split_phase_state,
    tri_size,
    validate_density,
)

REFS = Path(__file__).resolve().parent / "refs"
# The repo's tolerances between the two routes: S and rho.
S_TOL = 1e-10
RHO_TOL = 1e-12
TWO_PI = 2.0 * math.pi
SUITES = tuple(checks.SUITES)
# Sizes of the per-call ladder: the ROADMAP's layer table.
LADDER_SIZES = (2, 10, 40, 80)


def load_ref(name: str) -> dict:
    return json.loads((REFS / f"{name}.json").read_text(encoding="utf-8"))


class Tally:
    """Cells attempted, cells that raised or missed their reference."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.max_abs_err = 0.0

    def compare(self, got, ref, tol: float = S_TOL) -> None:
        """One cell per element; NaN on either side is a miss."""
        ref = np.asarray(ref, dtype=float).ravel()
        got = np.asarray(got, dtype=float).ravel()
        if got.shape != ref.shape:
            self.miss(max(ref.size, got.size))
            return
        err = np.abs(got - ref)
        self.attempted += err.size
        self.failed += int(np.count_nonzero(~(err <= tol)))
        finite = err[np.isfinite(err)]
        if finite.size:
            self.max_abs_err = max(self.max_abs_err, float(finite.max()))

    def cell(self, ok: bool, *errs: float) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1
        for err in errs:
            if math.isfinite(err):
                self.max_abs_err = max(self.max_abs_err, err)

    def miss(self, cells: int) -> None:
        self.attempted += cells
        self.failed += cells


def run_cli_main(argv: list[str]) -> tuple[int, bytes]:
    """cli.main in this process, with its stdout captured as bytes."""
    sink = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="")
    with contextlib.redirect_stdout(sink):
        code = cli.main(argv)
    sink.flush()
    return code, sink.buffer.getvalue()


def closed_terms(two_s: int) -> int:
    """Terms of the folded closed form: pairs n <= n', l <= l' <= 2s - n'."""
    return sum((n2 + 1) * (two_s - n2 + 1) * (two_s - n2 + 2) // 2
               for n2 in range(two_s + 1))


def oracle_cell(tr, spec, phi: float, r2: float):
    """The sweep's partial-trace route, one span per layer call.

    phase_state is called once on its own to price it; split_phase_state
    calls it again internally, so its self time is not part of the path.
    """
    params = SplitterParams(r2)
    tr.call("phase_states.phase_state", phase_state, spec, 0, phi)
    b = tr.call("splitter.split_phase_state", split_phase_state, spec, 0, phi, params)
    tr.count("splitter.split_phase_state.terms", tri_size(spec.two_s))
    rho = tr.call("splitter.reduced_density", reduced_density, b)
    tr.call("splitter.validate_density", validate_density, rho)
    s = tr.call("entropy.linear_entropy", linear_entropy, rho, validate=False)
    return s.value, rho


class Workload:
    """Interface shared by the four workloads."""

    cells_per_pass = 0
    # Whether the library offers a serial path distinct from the default.
    has_serial_path = False

    def spec_keys(self) -> list[tuple[str, int, float | None]]:
        """(family, 2s, kappa) of every StructureSpec the workload needs."""
        raise NotImplementedError

    def prepare(self, tr) -> None:
        self.specs = {
            key: tr.call("algebra.build_structure", build_structure,
                         Family(key[0]), key[1], key[2])
            for key in self.spec_keys()}

    def parts(self, serial: bool) -> list:
        """The calls of one pass, each timed on its own; serial=True asks
        the library for its single-threaded path where it has one."""
        raise NotImplementedError

    def decomposed_pass(self, tr) -> list:
        """The same work as a pass, one layer call at a time; returns the
        outputs in the shape that `check` takes."""
        raise NotImplementedError

    def check(self, outs: list, tally: Tally) -> None:
        raise NotImplementedError

    def cli_argv(self) -> list[str]:
        raise NotImplementedError

    def check_cli(self, code: int, stdout: bytes, tally: Tally) -> None:
        raise NotImplementedError

    def audit(self, tally: Tally) -> None:
        """Extra checks against the closed form, run once after timing."""


# --- sweeps ---------------------------------------------------------------

class GridRef:
    """Frozen S on a product grid, looked up by exact cell coordinates."""

    def __init__(self, data: dict) -> None:
        self.fixed = dict(data["fixed"])
        self.S = np.asarray(data["S"], dtype=float)
        # Axis name -> {coordinate: position}, in the order of the axes of S.
        self.index = {name: {float(v): i for i, v in enumerate(values)}
                      for name, values in data["axes"]}

    def lookup(self, coords: dict[str, np.ndarray]) -> np.ndarray:
        """Reference S per cell; NaN where a cell is off the frozen grid."""
        size = len(next(iter(coords.values())))
        if not set(coords) <= set(self.index) | set(self.fixed) or not (
                set(self.index) <= set(coords)):
            return np.full(size, np.nan)
        ok = np.ones(size, dtype=bool)
        idx = []
        for name, pos in self.index.items():
            ii = np.array([pos.get(float(v), -1) for v in coords[name]], dtype=int)
            ok &= ii >= 0
            idx.append(np.maximum(ii, 0))
        for name, value in self.fixed.items():
            if name in coords:
                ok &= np.asarray(coords[name], dtype=float) == value
        return np.where(ok, self.S[tuple(idx)], np.nan)


def table_cells(table) -> tuple[dict[str, np.ndarray], np.ndarray]:
    grids = np.meshgrid(*[np.asarray(a.values, dtype=float) for a in table.axes],
                        indexing="ij")
    return ({a.name: g.ravel() for a, g in zip(table.axes, grids)},
            np.asarray(table.values, dtype=float))


def csv_cells(data: bytes) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Coordinates and S of a `phasebeam sweep` CSV; ValueError if malformed."""
    lines = data.decode("utf-8").split("\n")
    if lines[-1] != "" or lines[0].split(",")[-1] != "S":
        raise ValueError("not a sweep CSV")
    header = lines[0].split(",")
    rows = np.array([ln.split(",") for ln in lines[1:-1]], dtype=float)
    rows = rows.reshape(-1, len(header))
    return {name: rows[:, j] for j, name in enumerate(header[:-1])}, rows[:, -1]


def grid_cells(axes, fixed: dict) -> list[tuple[int, float, float]]:
    """(2s, phi, r2) of each cell of a product grid, row-major."""
    names = [a.name for a in axes]
    out = []
    for coords in itertools.product(*(a.values for a in axes)):
        cell = dict(fixed, **dict(zip(names, coords)))
        out.append((int(cell["two_s"]), float(cell["phi"]), float(cell["r2"])))
    return out


class Sweep(Workload):
    """A library sweep plus the same sweep through cli.main to CSV."""

    def __init__(self, name, seed, *, lib_sweep, lib_axes, cli_args, cli_axes,
                 audit_size) -> None:
        self.seed = seed
        self.ref = GridRef(load_ref(name))
        self.lib_sweep = lib_sweep
        self.lib_axes = lib_axes
        self.cli_args = cli_args
        self.cli_axes = cli_axes
        self.lib_cells = grid_cells(lib_axes, self.ref.fixed)
        self.cli_cells = grid_cells(cli_axes, self.ref.fixed)
        self.cells_per_pass = len(self.lib_cells) + len(self.cli_cells)
        self.audit_size = audit_size

    def _spec(self, two_s):
        return self.specs[(Family.KAPPA_NEG.value, two_s, None)]

    def spec_keys(self):
        dims = sorted({two_s for two_s, _, _ in self.lib_cells + self.cli_cells})
        return [(Family.KAPPA_NEG.value, two_s, None) for two_s in dims]

    has_serial_path = True

    def parts(self, serial):
        argv = self.cli_args + (["--serial"] if serial else [])
        return [lambda: self.lib_sweep(serial), lambda: run_cli_main(argv)]

    def decomposed_pass(self, tr):
        tables = []
        for axes, cells in ((self.lib_axes, self.lib_cells),
                            (self.cli_axes, self.cli_cells)):
            values = [oracle_cell(tr, self._spec(two_s), phi, r2)[0]
                      for two_s, phi, r2 in cells]
            tables.append(experiments.SweepTable(axes=axes, values=np.array(values)))
        csv = tr.call("cli.emit", cli.emit, tables[1], "csv")
        tr.count("cli.emit.bytes", len(csv))
        return [tables[0], (0, csv)]

    def check(self, outs, tally):
        table, (code, csv) = outs
        coords, values = table_cells(table)
        tally.compare(values, self.ref.lookup(coords))
        self.check_cli(code, csv, tally)

    def cli_argv(self):
        return list(self.cli_args)

    def check_cli(self, code, stdout, tally):
        if code != 0:
            tally.miss(len(self.cli_cells))
            return
        try:
            coords, values = csv_cells(stdout)
        except (ValueError, UnicodeDecodeError):
            tally.miss(len(self.cli_cells))
            return
        if len(values) != len(self.cli_cells):
            tally.miss(len(self.cli_cells))
            return
        tally.compare(values, self.ref.lookup(coords))

    def audit(self, tally):
        """A seeded sample of cells against the closed form."""
        rng = np.random.default_rng(self.seed)
        size = min(self.audit_size, len(self.lib_cells))
        picks = rng.choice(len(self.lib_cells), size=size, replace=False)
        for i in sorted(picks):
            two_s, phi, r2 = self.lib_cells[i]
            s = linear_entropy_closed(self._spec(two_s), phi, SplitterParams(r2)).value
            tally.compare([s], self.ref.lookup(
                {"two_s": [two_s], "phi": [phi], "r2": [r2]}))


def _axis(name, values):
    return experiments.Axis(name, tuple(float(v) for v in values))


def qutrit_surface(seed: int, tiny: bool = False) -> Sweep:
    """sweep --two-s 2: 128 phi x 101 r2 at d = 3."""
    ref = load_ref("qutrit_surface")
    phis = dict(ref["axes"])["phi"]
    r2s = dict(ref["axes"])["r2"]
    if tiny:
        lib_phis = [phis[5], phis[70]]
        cli_phi = repr(phis[5])
        cli_axes = (_axis("phi", [phis[5]]), _axis("r2", r2s))
    else:
        lib_phis = phis
        cli_phi = f"0:{TWO_PI!r}:128"
        cli_axes = (_axis("phi", phis), _axis("r2", r2s))
    return Sweep(
        "qutrit_surface", seed,
        lib_sweep=lambda serial: experiments.sweep_r2_phi(2, lib_phis, r2s, serial=serial),
        lib_axes=(_axis("phi", lib_phis), _axis("r2", r2s)),
        cli_args=["sweep", "--two-s", "2", "--phi", cli_phi, "--r2", "0:1:101"],
        cli_axes=cli_axes,
        audit_size=16)


def growth_table(seed: int, tiny: bool = False) -> Sweep:
    """sweep --two-s 1:40 --phi 0:2pi:5 --r2 0.5: ragged d = 2..41."""
    ref = load_ref("growth_table")
    phis = dict(ref["axes"])["phi"]
    top = 4 if tiny else 40
    dims = list(range(1, top + 1))
    return Sweep(
        "growth_table", seed,
        lib_sweep=lambda serial: experiments.sweep_s_balanced(top, phis, serial=serial),
        lib_axes=(_axis("phi", phis), _axis("two_s", dims)),
        cli_args=["sweep", "--two-s", f"1:{top}", "--phi", f"0:{TWO_PI!r}:5",
                  "--r2", "0.5"],
        cli_axes=(_axis("two_s", dims), _axis("phi", phis), _axis("r2", [0.5])),
        audit_size=8)


# --- both routes ------------------------------------------------------------

class RouteAudit(Workload):
    """A seeded sample of cells, each evaluated by both routes for rho and S."""

    def __init__(self, seed: int, tiny: bool = False) -> None:
        ref = load_ref("route_audit")
        rng = np.random.default_rng(seed)
        phis, r2s = ref["phi"], ref["r2"]
        self.cells = []
        for i, two_s in enumerate(ref["two_s"]):
            if tiny and two_s != ref["two_s"][0]:
                continue
            for j, (family, kappa) in enumerate(ref["families"]):
                picks = rng.choice(len(phis) * len(r2s), size=1 if tiny else 2,
                                   replace=False)
                for p in sorted(picks):
                    a, b = divmod(int(p), len(r2s))
                    self.cells.append((family, two_s, kappa, phis[a], r2s[b],
                                       ref["S"][i][j][a][b]))
        self.cells_per_pass = len(self.cells)

    def spec_keys(self):
        return sorted({(f, two_s, kappa) for f, two_s, kappa, *_ in self.cells},
                      key=lambda k: (k[1], k[0]))

    def _both_routes(self, cell):
        family, two_s, kappa, phi, r2, _ = cell
        spec = self.specs[(family, two_s, kappa)]
        params = SplitterParams(r2)
        rho_t = reduced_density(split_phase_state(spec, 0, phi, params))
        rho_c = reduced_density_closed(spec, 0, phi, params)
        return (rho_t, rho_c, linear_entropy(rho_t).value,
                linear_entropy_closed(spec, phi, params).value)

    def parts(self, serial):
        return [functools.partial(self._both_routes, cell) for cell in self.cells]

    def decomposed_pass(self, tr):
        out = []
        for family, two_s, kappa, phi, r2, _ in self.cells:
            spec = self.specs[(family, two_s, kappa)]
            params = SplitterParams(r2)
            s_o, rho_t = oracle_cell(tr, spec, phi, r2)
            rho_c = tr.call("splitter.reduced_density_closed", reduced_density_closed,
                            spec, 0, phi, params)
            s_c = tr.call("entropy.linear_entropy_closed", linear_entropy_closed,
                          spec, phi, params).value
            tr.count("entropy.linear_entropy_closed.terms", closed_terms(two_s))
            out.append((rho_t, rho_c, s_o, s_c))
        return out

    def check(self, outs, tally):
        if len(outs) != len(self.cells):
            tally.miss(len(self.cells))
            return
        for (rho_t, rho_c, s_o, s_c), cell in zip(outs, self.cells):
            ref = cell[-1]
            rho_err = float(np.max(np.abs(rho_t - rho_c)))
            err_o, err_c = abs(s_o - ref), abs(s_c - ref)
            tally.cell(rho_err <= RHO_TOL and err_o <= S_TOL and err_c <= S_TOL,
                       err_o, err_c)

    def _cli_cell(self):
        """The first sampled cell of the largest size."""
        top = max(cell[1] for cell in self.cells)
        return next(cell for cell in self.cells if cell[1] == top)

    def cli_argv(self):
        family, two_s, kappa, phi, r2, _ = self._cli_cell()
        argv = ["compute", "--family", family, "--two-s", str(two_s),
                "--phi", repr(phi), "--r2", repr(r2), "--method", "both"]
        return argv + (["--kappa", repr(kappa)] if kappa is not None else [])

    def check_cli(self, code, stdout, tally):
        ref = self._cli_cell()[-1]
        try:
            fields = dict(line.split(" ", 1) for line in
                          stdout.decode("utf-8").splitlines())
            s_o, s_c = float(fields["oracle"]), float(fields["closed"])
        except (ValueError, KeyError, UnicodeDecodeError):
            tally.miss(1)
            return
        err_o, err_c = abs(s_o - ref), abs(s_c - ref)
        tally.cell(code == 0 and err_o <= S_TOL and err_c <= S_TOL, err_o, err_c)


# --- invariant suites -------------------------------------------------------

class CheckSuites(Workload):
    """run_suites over every suite; a cell is one CheckResult."""

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.suites = SUITES[:1] if tiny else SUITES
        self.names = [n for n in load_ref("check_suites")["names"]
                      if n.split(".")[0] in self.suites]
        self.cells_per_pass = len(self.names)

    def spec_keys(self):
        keys = [(family.value, two_s, kappa)
                for family, kappa in checks.FAMILIES for two_s in range(1, 11)]
        return keys + [(Family.KAPPA_NEG.value, two_s, None) for two_s in range(11, 41)]

    def parts(self, serial):
        """One run_suites call per suite, which is what run_suites(["all"])
        does, so that the speed probe can run between them."""
        return [functools.partial(checks.run_suites, [suite], seed=self.seed)
                for suite in self.suites]

    def decomposed_pass(self, tr):
        out = []
        for suite in self.suites:
            name = f"checks.{suite}_suite"
            results = tr.call(name, checks.SUITES[suite], self.seed)
            tr.count(f"{name}.checks", len(results))
            out.extend(results)
        return [out]

    def _check_names(self, got: dict[str, bool], tally: Tally) -> None:
        for name in self.names:
            tally.cell(got.pop(name, False))
        tally.miss(len(got))

    def check(self, outs, tally):
        self._check_names({f"{r.suite}.{r.name}": r.passed
                           for results in outs for r in results}, tally)

    def cli_argv(self):
        suite = "all" if self.suites == SUITES else self.suites[0]
        return ["check", "--suite", suite, "--seed", str(self.seed)]

    def check_cli(self, code, stdout, tally):
        got = {}
        for line in stdout.decode("utf-8", errors="replace").splitlines():
            status, _, rest = line.partition(" ")
            if status in ("PASS", "FAIL"):
                got[rest.split(":", 1)[0]] = code == 0 and status == "PASS"
        self._check_names(got, tally)


WORKLOADS = {
    "qutrit_surface": qutrit_surface,
    "growth_table": growth_table,
    "route_audit": RouteAudit,
    "check_suites": CheckSuites,
}


def make(name: str, seed: int, tiny: bool = False) -> Workload:
    return WORKLOADS[name](seed, tiny)


# --- per-call ladder --------------------------------------------------------

def median_call_us(fn, *args, **kwargs) -> float:
    """Median wall time of one call, repeated for at least 0.25 s (3 calls)
    unless the calls already took 1 s."""
    times = []
    total = 0.0
    while total < 1.0 and (len(times) < 3 or total < 0.25):
        start = perf_counter()
        fn(*args, **kwargs)
        times.append(perf_counter() - start)
        total += times[-1]
    return statistics.median(times) * 1e6


def size_ladder(sizes=LADDER_SIZES) -> dict[str, float]:
    """`<function>.call_us.2s<N>`: per-call cost of each layer at each size."""
    out = {}
    phi, params = 1.0, SplitterParams(0.5)
    for two_s in sizes:
        spec = build_structure(Family.KAPPA_NEG, two_s)
        b = split_phase_state(spec, 0, phi, params)
        rho = reduced_density(b)
        probes = {
            "algebra.build_structure": (build_structure, (Family.KAPPA_NEG, two_s), {}),
            "phase_states.phase_state": (phase_state, (spec, 0, phi), {}),
            "splitter.split_phase_state": (split_phase_state, (spec, 0, phi, params), {}),
            "splitter.reduced_density": (reduced_density, (b,), {}),
            "splitter.validate_density": (validate_density, (rho,), {}),
            "entropy.linear_entropy": (linear_entropy, (rho,), {"validate": False}),
            "splitter.reduced_density_closed":
                (reduced_density_closed, (spec, 0, phi, params), {}),
            "entropy.linear_entropy_closed": (linear_entropy_closed, (spec, phi, params), {}),
        }
        for name, (fn, args, kwargs) in probes.items():
            out[f"{name}.call_us.2s{two_s}"] = median_call_us(fn, *args, **kwargs)
    return out
