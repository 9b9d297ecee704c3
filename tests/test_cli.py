import contextlib
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction
from math import exp, inf, nextafter, pi
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phasebeam
from phasebeam import (
    Family,
    NumericalConsistencyError,
    RangeError,
    SweepTable,
    Axis,
    UsageError,
    build_structure,
    linear_entropy,
    linear_entropy_closed,
    reduced_density,
    SplitterParams,
    split_phase_state,
)
from phasebeam import cli, csvfmt, experiments
from phasebeam.cli import (
    emit,
    main,
    parse_args,
    parse_grid,
    render_json,
)
from test_acceptance import _eigh_oracle_rho

SRC = str(Path(__file__).resolve().parents[1] / "src")
NO_PHASE = "reaches 2^52, where a double angle carries no phase"


def _render_csv_reference(table):
    """CSV with every coordinate of every row formatted again."""
    header = ",".join([axis.name for axis in table.axes] + ["S"])
    grids = np.meshgrid(*(axis.values for axis in table.axes), indexing="ij")
    columns = [g.ravel().tolist() for g in grids] + [table.values.tolist()]
    row = ",".join(["%.17g"] * len(columns))
    return "\n".join([header, *(row % cells for cells in zip(*columns))]) + "\n"


def _render_json_reference(table):
    """JSON with every value converted by float() one at a time."""
    payload = {
        "axes": [{"name": a.name, "values": list(a.values)} for a in table.axes],
        "values": [float(v) for v in table.values],
        "meta": table.meta,
    }
    return json.dumps(payload) + "\n"


def _kernel_bytes(values):
    """The S records of the CSV's decimal kernel, padding removed."""
    return csvfmt.g17_records(np.asarray(values, dtype=float)).tobytes().replace(b"\0", b"")


def _assert_prints_as_g17(values):
    """Every value prints as "%.17g" % v, through the kernel and, where the
    value is a valid entropy, through emit's CSV."""
    values = np.asarray(values, dtype=float)
    assert _kernel_bytes(values) == b"".join(b"%.17g\n" % v for v in values.tolist())
    entropies = values[(values >= 0.0) & (values <= 1.0)]  # SweepTable refuses NaN
    if entropies.size:
        table = SweepTable(axes=(Axis("i", tuple(map(float, range(entropies.size)))),),
                           values=entropies)
        assert emit(table, "csv").decode() == _render_csv_reference(table)


class TestParseGrid:
    def test_scalar(self):
        assert parse_grid("0.5") == (0.5,)
        assert parse_grid("-3.25") == (-3.25,)

    def test_linear_grid(self):
        got = parse_grid("0:1:101")
        assert len(got) == 101
        assert got[0] == 0.0
        assert got[-1] == 1.0
        assert got[50] == 0.5

    def test_strictly_increasing(self):
        values = parse_grid("0:6.283185307179586:128")
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("grid", ["0:5e-324:3", "1:1.0000000000000004:4"])
    def test_repeated_points_refused(self, capsys, grid):
        # the ends increase, but a span of a few ulps repeats points
        assert main(["sweep", "--two-s", "2", "--phi", grid, "--r2", "0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: grid must be strictly increasing, got {grid!r}\n"

    def test_tight_grid_admitted(self, capsys):
        assert main(["sweep", "--two-s", "2", "--phi", "1:1.0000000000000004:3",
                     "--r2", "0.5"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["1", "1.0000000000000002",
                                                       "1.0000000000000004"]

    @pytest.mark.parametrize("bad", ["0:1:1", "1:0:5", "a:b:c", "1:2", "x",
                                     "0:1:0", "1:1:5", "0:1:2:3",
                                     "nan", "inf", "-inf", "0:inf:3",
                                     "-1.7e308:1.7e308:3", "-1e308:1e308:64"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(UsageError):
            parse_grid(bad)


def _two_s(text):
    """The 2s values of a one-point sweep's --two-s text."""
    return parse_args(["sweep", "--phi", "0", "--r2", "0.5", "--two-s", text]).two_s


class TestParseTwoS:
    def test_forms(self):
        assert _two_s("2") == (2,)
        assert _two_s("1,2,5") == (1, 2, 5)
        assert _two_s("1:4") == (1, 2, 3, 4)

    @pytest.mark.parametrize("bad", ["0", "x", "3:1", "1,0", "-2"])
    def test_rejects(self, bad):
        with pytest.raises(UsageError):
            _two_s(bad)

    def test_range_error_is_usage_error(self):
        with pytest.raises(RangeError):
            _two_s("0")


class TestParseArgs:
    def test_compute_roundtrip(self):
        cfg = parse_args(["compute", "--two-s", "2", "--phi",
                          "3.141592653589793", "--r2", "0.5"])
        assert cfg.command == "compute"
        assert cfg.two_s == (2,)
        assert cfg.phi == (3.141592653589793,)
        assert cfg.r2 == (0.5,)
        assert cfg.method == "oracle"
        assert cfg.family is Family.KAPPA_NEG

    def test_sweep_defaults(self):
        cfg = parse_args(["sweep", "--two-s", "2"])
        assert len(cfg.phi) == 128
        assert cfg.phi[-1] == pytest.approx(2 * pi)
        assert len(cfg.r2) == 101
        assert cfg.fmt == "csv"

    def test_check_defaults(self):
        cfg = parse_args(["check"])
        assert cfg.command == "check"
        assert cfg.suite == "all"
        assert cfg.seed == 0

    def test_missing_subcommand(self):
        with pytest.raises(UsageError):
            parse_args([])

    def test_unknown_flag(self):
        with pytest.raises(UsageError):
            parse_args(["compute", "--two-s", "2", "--phi", "0", "--r2", "0",
                        "--bogus", "1"])

    def test_compute_rejects_grids(self):
        with pytest.raises(UsageError):
            parse_args(["compute", "--two-s", "2", "--phi", "0:1:4",
                        "--r2", "0.5"])

    def test_r2_out_of_range(self):
        with pytest.raises(RangeError):
            parse_args(["compute", "--two-s", "2", "--phi", "0", "--r2", "1.5"])

    def test_unknown_family(self):
        with pytest.raises(UsageError):
            parse_args(["compute", "--family", "glauber", "--two-s", "2",
                        "--phi", "0", "--r2", "0.5"])


class TestEmit:
    def _table(self):
        return SweepTable(
            axes=(Axis("phi", (0.0, pi)), Axis("r2", (0.0, 0.5, 1.0))),
            values=np.array([0.0, 0.125, 0.0, 0.0, 0.125, 0.0]),
            meta={"family": "kappa-neg", "two_s": 1})

    def test_csv_layout(self):
        text = emit(self._table(), "csv").decode()
        lines = text.split("\n")
        assert lines[0] == "phi,r2,S"
        assert len(lines) == 8          # header + 6 rows + trailing newline
        assert lines[-1] == ""
        assert "\r" not in text

    def test_csv_roundtrip_precision(self):
        table = SweepTable(axes=(Axis("phi", (pi / 7,)),),
                           values=np.array([1.0 / 3.0]), meta={})
        line = emit(table, "csv").decode().split("\n")[1]
        phi_text, s_text = line.split(",")
        assert float(phi_text) == pi / 7
        assert float(s_text) == 1.0 / 3.0

    def test_one_by_one_sweep_is_two_lines(self):
        table = SweepTable(axes=(Axis("phi", (0.5,)), Axis("r2", (0.25,))),
                           values=np.array([0.1]), meta={})
        lines = emit(table, "csv").decode().splitlines()
        assert len(lines) == 2

    def test_no_bom_lf_only(self):
        data = emit(self._table(), "csv")
        assert not data.startswith(b"\xef\xbb\xbf")
        assert b"\r" not in data
        assert data.endswith(b"\n")

    def test_bytes_identical_across_calls(self):
        assert emit(self._table(), "csv") == emit(self._table(), "csv")
        assert emit(self._table(), "json") == emit(self._table(), "json")

    def test_json_roundtrip(self):
        payload = json.loads(render_json(self._table()))
        assert payload["axes"][0]["name"] == "phi"
        assert payload["axes"][0]["values"][1] == pi
        assert payload["values"][1] == 0.125
        assert payload["meta"]["two_s"] == 1

    def test_unknown_format(self):
        with pytest.raises(UsageError):
            emit(self._table(), "xml")

    @pytest.mark.parametrize("axes", [
        (Axis("phi", (0.1, 1e-300, 5e-324, 1.0, pi)),),
        (Axis("two_s", (1.0, 2.0, 40.0)), Axis("phi", (0.0, 0.1, 2 * pi / 3))),
        (Axis("two_s", (3.0, 2200.0)), Axis("phi", (5e-324, 1e-300)),
         Axis("r2", (0.0, 0.1, 0.5, 1.0))),
    ])
    def test_csv_bytes_match_per_row_formatting(self, axes):
        size = int(np.prod([len(a.values) for a in axes]))
        values = np.resize([0.1, 1e-300, 5e-324, 1.0, 0.0, 1.0 / 3.0], size)
        table = SweepTable(axes=axes, values=values)
        assert emit(table, "csv") == _render_csv_reference(table).encode("utf-8")

    @pytest.mark.parametrize("shape", [
        (csvfmt.BLOCK_ROWS - 1,), (csvfmt.BLOCK_ROWS,), (csvfmt.BLOCK_ROWS + 1,),
        (5 * csvfmt.BLOCK_ROWS // 2,), (3, 4, 1), (2, 3, 2 * csvfmt.BLOCK_ROWS + 5),
        (9, 128, 101),
    ], ids=["one-short", "one-block", "one-over", "two-and-a-half", "last-axis-1",
            "last-axis-long", "partial-last-block"])
    def test_csv_blocks_match_per_row_formatting(self, shape):
        # the blocks hold whole runs of the last axis, or slices of one run
        # where the last axis is longer than a block, so each edge is checked
        axes = tuple(Axis(f"x{i}", tuple(np.linspace(i, i + 1, n).tolist()))
                     for i, n in enumerate(shape))
        values = np.random.default_rng(len(shape)).uniform(0.0, 1.0, int(np.prod(shape)))
        values[::7] = np.resize([0.0, -0.0, 1e-300, 1.0, 5e-324], values[::7].size)
        table = SweepTable(axes=axes, values=values)
        expected = _render_csv_reference(table).encode("utf-8")
        assert emit(table, "csv") == expected
        stream = io.BytesIO()
        assert emit(table, "csv", stream) is None
        assert stream.getvalue() == expected
        blocks = list(csvfmt.csv_blocks(table))
        assert max(block.count(b"\n") for block in blocks[1:]) <= csvfmt.BLOCK_ROWS

    def test_csv_memory_is_bounded(self):
        # 258 560 rows, 15 MB of CSV: joined into one bytes, the writer
        # traced over 30 MB; streamed, the reused block buffer is all it keeps
        class Md5Stream:
            def __init__(self):
                self.md5 = hashlib.md5()

            def write(self, data):
                self.md5.update(data)
                return len(data)

            def flush(self):
                pass

        shape = (20, 128, 101)
        axes = tuple(Axis(name, tuple(np.linspace(0.0, 1.0, n).tolist()))
                     for name, n in zip(("two_s", "phi", "r2"), shape))
        table = SweepTable(axes=axes, values=np.random.default_rng(28).uniform(
            0.0, 1.0, int(np.prod(shape))))
        stream = Md5Stream()
        tracemalloc.start()
        try:
            emit(table, "csv", stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert stream.md5.hexdigest() == hashlib.md5(emit(table, "csv")).hexdigest()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_short_writes_are_resumed(self, fmt):
        # a stream that takes at most 1 000 bytes per write, as a pipe can:
        # each block, the last one and a JSON payload included, is written on
        # until every byte is out
        class ShortStream:
            def __init__(self):
                self.data = bytearray()

            def write(self, data):
                taken = bytes(data[:1000])
                self.data += taken
                return len(taken)

            def flush(self):
                pass

        shape = (2, csvfmt.BLOCK_ROWS + 5)
        axes = tuple(Axis(f"x{i}", tuple(np.linspace(0.0, 1.0, n).tolist()))
                     for i, n in enumerate(shape))
        table = SweepTable(axes=axes, values=np.random.default_rng(29).uniform(
            0.0, 1.0, int(np.prod(shape))))
        stream = ShortStream()
        assert emit(table, fmt, stream) is None
        assert bytes(stream.data) == emit(table, fmt)


class TestCsvDecimalKernel:
    """S prints as "%.17g" % v from the CSV's exact decimal kernel."""

    def test_seeded_decades(self):
        rng = np.random.default_rng(2024)
        for e in range(-6, 17):
            _assert_prints_as_g17(10.0 ** rng.uniform(e, e + 1, 2000))
        _assert_prints_as_g17(rng.uniform(0.0, 1.0, 20000))

    @pytest.mark.parametrize("e10", [-1, -2, -3, -4])
    def test_half_even_ties(self, e10):
        # x = m 2^-(q+1) with m odd puts x 10^q, q = 16 - e10, exactly halfway
        # between two 17-digit integers
        q = 16 - e10
        lo, hi = int(np.ceil(10.0**e10 * 2 ** (q + 1))), int(10.0 ** (e10 + 1) * 2 ** (q + 1))
        m = np.random.default_rng(q).integers(lo // 2, hi // 2, 5000) * 2 + 1
        ties = m * 2.0 ** -(q + 1)
        assert all((Fraction(x) * 10**q).denominator == 2 for x in ties.tolist())
        assert np.all((10.0**e10 <= ties) & (ties < 10.0 ** (e10 + 1)))
        _assert_prints_as_g17(ties)

    def test_powers_of_ten_and_edges(self):
        powers = 10.0 ** np.arange(-8, 17)
        _assert_prints_as_g17(np.concatenate([
            powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
            [1.0 - 2.0**-53, np.nextafter(1e-4, 0.0), 1e-4, 0.0, -0.0, 5e-324,
             np.nan, np.inf, -np.inf, -0.5]]))

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_any_finite_double(self, x):
        _assert_prints_as_g17([x])

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=64))
    def test_any_entropy_column(self, values):
        _assert_prints_as_g17(values)

    @pytest.mark.parametrize("argv", [
        ["--two-s", "1"], ["--two-s", "2"], ["--two-s", "3"],
        ["--two-s", "1:10", "--r2", "0.5"],
        ["--two-s", "1:40", "--phi", "0:6.283185307179586:5", "--r2", "0.5"],
        # every S below 1e-4: the per-value fallback
        ["--two-s", "5", "--r2", "0:1e-6:11"],
    ])
    def test_sweeps_pinned_to_reference(self, argv, capsysbinary, monkeypatch):
        tables = []

        def record(table, fmt, stream=None):
            tables.append(table)
            return emit(table, fmt, stream)

        monkeypatch.setattr(cli, "emit", record)
        assert main(["sweep", *argv]) == 0
        (table,) = tables
        if argv[-1] == "0:1e-6:11":
            assert np.all(table.values < 1e-4)
        assert capsysbinary.readouterr().out == _render_csv_reference(table).encode()

    def test_cli_import_leaves_the_writer_unloaded(self):
        # compute and check pay nothing for the CSV writer, not even its
        # compile, and compute and sweep nothing for the check suites
        code = ("import sys, phasebeam.cli; "
                "print(*(f'phasebeam.{m}' in sys.modules for m in ('csvfmt', 'checks')))")
        assert _fresh(code) == "False False\n"

    def test_json_pinned_to_reference(self, capsys, monkeypatch):
        tables = []
        monkeypatch.setattr(cli, "render_json",
                            lambda table: tables.append(table) or render_json(table))
        assert main(["sweep", "--two-s", "2", "--format", "json"]) == 0
        (table,) = tables
        assert capsys.readouterr().out == _render_json_reference(table)
        odd = SweepTable(axes=(Axis("phi", (0.0, 1.0, 2.0, 3.0)),),
                         values=np.array([0.0, -0.0, 5e-324, 0.1]))
        assert render_json(odd) == _render_json_reference(odd)


def _fresh(code):
    """The stdout of code run by a fresh interpreter on this checkout's sources."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": SRC}).stdout


LOADED = "sorted(m for m in sys.modules if m.startswith('phasebeam.'))"


class TestLazyPackage:
    """The package loads each module on the first use of one of its names."""

    def test_bare_import_loads_no_module(self):
        bare, after = _fresh(f"import sys, phasebeam; print({LOADED}); "
                             f"phasebeam.entropy; print({LOADED})").splitlines()
        assert bare == "[]"
        assert "'phasebeam.entropy'" in after

    def test_module_import_loads_that_module_alone(self):
        code = f"import sys; from phasebeam.algebra import build_structure; print({LOADED})"
        assert _fresh(code) == "['phasebeam.algebra', 'phasebeam.errors']\n"

    def test_public_names_are_their_modules_objects(self):
        # fresh, so that every name is first looked up through the package
        code = ("import importlib, phasebeam\n"
                "for name in phasebeam.__all__[:-1]:\n"
                "    value = getattr(phasebeam, name)\n"
                "    assert getattr(importlib.import_module(value.__module__), name) is value\n"
                "print(phasebeam.__version__)")
        assert _fresh(code) == "0.1.0\n"

    def test_unknown_name_and_dir(self):
        with pytest.raises(AttributeError, match="has no attribute 'nope'"):
            phasebeam.nope
        assert not hasattr(phasebeam, "nope")
        assert set(phasebeam.__all__) <= set(dir(phasebeam))

    def test_failing_module_raises_its_own_error(self):
        # an ImportError, not the AttributeError that hasattr turns into False
        code = ("import sys, phasebeam\n"
                "sys.modules['numpy'] = None  # every module's import of numpy fails\n"
                "for probe in (lambda: phasebeam.linear_entropy,\n"
                "              lambda: hasattr(phasebeam, 'linear_entropy')):\n"
                "    try:\n"
                "        probe()\n"
                "    except ImportError as exc:\n"
                "        print(type(exc).__name__, exc.name)\n")
        assert _fresh(code) == "ModuleNotFoundError numpy\n" * 2


class TestMainCompute:
    def test_single_value(self, capsys):
        code = main(["compute", "--two-s", "1", "--phi", "0.7", "--r2", "0.3"])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(0.105, abs=1e-12)

    def test_closed_method(self, capsys):
        code = main(["compute", "--two-s", "2", "--phi", "1.0", "--r2", "0.3",
                     "--method", "closed"])
        assert code == 0
        got = float(capsys.readouterr().out.strip())
        assert got == pytest.approx(0.17928373411758292, abs=1e-12)

    def test_closed_method_every_family(self, capsys):
        for family, kappa in (("pegg-barnett", []), ("kappa-neg", []),
                              ("kappa-pos", ["--kappa", "0.5"])):
            code = main(["compute", "--family", family, *kappa, "--two-s", "7",
                         "--phi", "1.0", "--r2", "0.3", "--method", "closed"])
            assert code == 0
            spec = build_structure(Family(family), 7, 0.5 if kappa else None)
            want = linear_entropy_closed(spec, 1.0, SplitterParams(0.3)).value
            assert capsys.readouterr().out == f"{want:.17g}\n"

    def test_method_spectral_is_usage_error(self, capsys):
        assert main(["compute", "--two-s", "7", "--phi", "1.0", "--r2", "0.3",
                     "--method", "spectral"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: argument --method: invalid choice")

    @pytest.mark.parametrize("command", [
        ["compute", "--r2", "0.5"],
        ["sweep", "--r2", "0:1:2", "--format", "json"],
    ])
    def test_kappa_with_pegg_barnett_is_usage_error(self, capsys, command):
        assert main([*command, "--family", "pegg-barnett", "--kappa", "0.3",
                     "--two-s", "1", "--phi", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: --kappa does not apply to pegg-barnett\n"

    def test_both_methods_agree(self, capsys):
        code = main(["compute", "--two-s", "3", "--phi", "2.0", "--r2", "0.6",
                     "--method", "both"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("oracle ")
        assert lines[1].startswith("closed ")
        assert lines[2].startswith("diff ")
        assert float(lines[2].split()[1]) <= 1e-10

    def test_matches_library(self, capsys):
        spec = build_structure(Family.KAPPA_POS, 2, kappa=0.5)
        rho = reduced_density(split_phase_state(spec, 1, 0.9, SplitterParams(0.4)))
        expected = linear_entropy(rho).value
        code = main(["compute", "--family", "kappa-pos", "--kappa", "0.5",
                     "--two-s", "2", "--m", "1", "--phi", "0.9", "--r2", "0.4"])
        assert code == 0
        assert float(capsys.readouterr().out.strip()) == expected

    def test_usage_exit_code(self, capsys):
        assert main([]) == 1
        assert main(["compute", "--two-s", "2", "--phi", "zzz", "--r2", "0"]) == 1
        assert main(["compute", "--two-s", "2", "--phi", "0", "--r2", "2"]) == 1
        assert main(["bogus"]) == 1
        capsys.readouterr()
        assert main(["check", "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "seed" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["compute", "--two-s", "2", "--phi", "nan", "--r2", "0.5"],
        ["compute", "--two-s", "2", "--phi", "inf", "--r2", "0.5"],
        ["sweep", "--two-s", "2", "--phi", "nan", "--r2", "0.5"],
        ["sweep", "--two-s", "2", "--phi", "0:inf:3", "--r2", "0.5"],
        # finite ends whose span overflows
        ["sweep", "--two-s", "2", "--phi=-1.7e308:1.7e308:3", "--r2", "0.5"],
        ["sweep", "--two-s", "40", "--phi=-1e308:1e308:64", "--r2", "0:1:3"],
    ])
    def test_non_finite_phi_is_usage_error(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage error" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        *(["compute", "--family", "kappa-pos", "--kappa", "1e300", "--two-s", "3",
           f"--phi={phi}", "--r2", "0.5", "--method", method]
          for method, phi in (("oracle", "1e10"), ("closed", "1e10"), ("closed", "-1e10"),
                              ("both", "1e10"))),
        ["sweep", "--family", "kappa-pos", "--kappa", "1e300", "--two-s", "1:3",
         "--phi=-1e10:0:4", "--r2", "0:1:3"],
    ])
    def test_phase_product_overflow_is_usage_error(self, capsys, argv):
        # F(3) = 6e300 at kappa = 1e300, and phi F(3) overflows a double
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("usage error: 2 max|phi| max|F| = 2 * 1e+10 * 6e+300 "
                                f"{NO_PHASE}\n")

    @pytest.mark.parametrize("method", ["closed"])
    def test_doubled_phase_product_overflow_is_usage_error(self, capsys, method):
        # max F = 1.5 at 2s = 4: phi max F is finite, but an angle of the
        # closed form, 2 phi, is not
        assert main(["compute", "--two-s", "4", "--phi", "1.1e308", "--r2", "0.5",
                     "--method", method]) == 1
        assert capsys.readouterr().err == ("usage error: 2 max|phi| max|F| = "
                                           f"2 * 1.1e+308 * 1.5 {NO_PHASE}\n")

    @pytest.mark.parametrize("method", ["oracle", "closed"])
    @pytest.mark.parametrize("argv", [
        # 2 phi max F = 4.5e15 (max F = 1.5) and 2.7e15 (max F = 4/3), under 2^52
        ["--two-s", "4", "--phi", "1.5e15"],
        ["--two-s", "3", "--phi", "1e15"],
    ])
    def test_phase_product_within_a_double_runs(self, capsys, argv, method):
        assert main(["compute", *argv, "--r2", "0.5", "--method", method]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", [
        ["compute", "--method", "oracle"], ["compute", "--method", "closed"],
        ["compute", "--method", "both"], ["sweep"],
    ], ids=["oracle", "closed", "both", "sweep"])
    @pytest.mark.parametrize("argv, product", [
        # finite products from 2^52 on, where a double angle carries no phase
        (["--family", "kappa-pos", "--kappa", "1e300", "--two-s", "3", "--phi", "1.5"],
         "2 * 1.5 * 6e+300"),
        (["--two-s", "4", "--phi", "1.6e15"], "2 * 1.6e+15 * 1.5"),
    ], ids=["kappa-1e300", "phi-1.6e15"])
    def test_phase_product_past_2_52_is_usage_error(self, capsys, command, argv, product):
        assert main([*command, *argv, "--r2", "0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: 2 max|phi| max|F| = {product} {NO_PHASE}\n"

    def test_kappa_not_a_float_is_usage_error(self, capsys):
        assert main(["compute", "--family", "kappa-pos", "--kappa", "abc", "--two-s", "2",
                     "--phi", "0", "--r2", "0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: argument --kappa: invalid float value: 'abc'\n"

    def test_both_routes_disagreeing_exit_2(self, capsys, monkeypatch):
        # which phases set the routes apart depends on how their angles are
        # rounded, so the tolerance is moved below any difference instead
        monkeypatch.setattr(cli, "BOTH_ROUTES_TOL", -1.0)
        assert main(["compute", "--two-s", "3", "--phi", "0.7", "--r2", "0.4",
                     "--method", "both"]) == 2
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert [line.split()[0] for line in lines] == ["oracle", "closed", "diff"]
        assert captured.err == f"error: routes disagree by {float(lines[2].split()[1])}\n"

    @pytest.mark.parametrize("argv", [
        ["compute", "--two-s", "2", "--phi", "0.7", "--r2", "0.5"],
        ["sweep", "--two-s", "2", "--phi", "0:1:3", "--r2", "0.5"],
    ], ids=["compute", "sweep"])
    def test_broken_pipe_exit_3(self, capsys, monkeypatch, argv):
        class BrokenPipe:
            def write(self, data):
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

            buffer = property(lambda self: self)

        monkeypatch.setattr(sys, "stdout", BrokenPipe())
        assert main(argv) == 3
        assert capsys.readouterr().err == "i/o error: [Errno 32] Broken pipe\n"

    def test_label_beyond_int64(self, capsys):
        argv = ["compute", "--two-s", "2", "--phi", "0", "--r2", "0.5", "--m"]
        assert main(argv + [str(10**20)]) == 0
        huge = capsys.readouterr()
        assert main(argv + [str(10**20 % 3)]) == 0
        assert huge == capsys.readouterr()
        assert huge.err == ""

    @pytest.mark.parametrize("kappa", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", [
        ["compute", "--two-s", "2", "--phi", "0", "--r2", "0.5",
         "--method", "closed"],
        ["sweep", "--two-s", "2", "--phi", "0", "--r2", "0.5"],
    ])
    def test_non_finite_kappa_is_usage_error(self, capsys, command, kappa):
        assert main(command + ["--family", "kappa-pos", f"--kappa={kappa}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage error" in captured.err
        assert "finite" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("kappa", ["1.7976931348623157e+308", "1e308"])
    @pytest.mark.parametrize("command", [
        ["compute", "--phi", "1.5", "--r2", "0.5"],
        ["compute", "--phi", "1.5", "--r2", "0.5", "--method", "closed"],
        ["sweep"],
        ["sweep", "--two-s", "1:3", "--phi", "1.5", "--r2", "0.5"],
    ], ids=["compute", "compute-closed", "sweep", "sweep-range"])
    def test_levels_past_the_float_range_exit_1(self, capsys, command, kappa):
        # F(3) = 3 (1 + 2 kappa) overflows a double: the table is refused
        # before it is formed, so no numpy warning escapes main
        argv = ["--family", "kappa-pos", "--kappa", kappa]
        if "--two-s" not in command:
            argv += ["--two-s", "3"]
        assert main(command + argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: level table must be finite\n"

    def test_arithmetic_error_exit_code(self, capsys, monkeypatch):
        # an overflow raised inside the oracle route ends the run as a
        # numerical error; _log_powers runs on every call, whatever the
        # per-size tables already hold, and here it meets exp(1000)
        def overflow(x, two_s):
            return exp(1000.0)

        monkeypatch.setattr("phasebeam.splitter._log_powers", overflow)
        code = main(["compute", "--two-s", "2", "--phi", "0", "--r2", "0.5"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numerical consistency error: math range error" in captured.err

    def test_missing_kappa_exit_code(self, capsys):
        code = main(["compute", "--family", "kappa-pos", "--two-s", "2",
                     "--phi", "0", "--r2", "0.5"])
        assert code == 1
        assert "kappa" in capsys.readouterr().err


LONG_AXIS_SWEEP = ["sweep", "--two-s", "1", "--phi", "0:1:4194304", "--r2", "0:1:5"]

# Values at the edges of a double: signed zeros, the least and the largest
# subnormal, the least normal, 1 - 2^-53 and 1e300, and some of their negatives.
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
               1.0 - 2.0**-53, 1.0, 0.5, 1e300, -1e300)
ERROR_PREFIXES = ("usage error: ", "numerical consistency error: ", "error: ")


def _main_captured(argv):
    """cli.main(argv) in process, every warning an error: (exit code, stdout, stderr)."""
    out, err = io.BytesIO(), io.StringIO()
    text = io.TextIOWrapper(out, encoding="utf-8", newline="")  # sweeps write its buffer
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(text), contextlib.redirect_stderr(err):
            code = main(argv)
    text.flush()
    return code, out.getvalue().decode(), err.getvalue()


def _assert_clean_exit(code, err):
    """Exit 0, 1 or 2, and one diagnostic line with a documented prefix unless 0."""
    assert code in (0, 1, 2)
    lines = err.splitlines()
    if code:
        assert len(lines) == 1 and lines[0].startswith(ERROR_PREFIXES)
    else:
        assert lines == []


class TestComputeContract:
    """Every compute argv either prints entropies in [0, 1 - 1/d], each
    within 1e-10 of the eigh oracle where |phi| <= 10, or exits cleanly with
    a documented code and one diagnostic line."""

    FAMILY_KAPPA = st.sampled_from((
        ("kappa-neg", None), ("pegg-barnett", None), ("kappa-pos", 0.5),
        ("kappa-pos", 5e-324), ("kappa-pos", 1e300), ("kappa-pos", None),
        ("pegg-barnett", 0.5)))

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(family_kappa=FAMILY_KAPPA,
           two_s=st.integers(1, 12),
           method=st.sampled_from(("oracle", "closed", "both")),
           phi=st.sampled_from(EDGE_FLOATS) | st.floats(-10.0, 10.0),
           r2=st.sampled_from(EDGE_FLOATS) | st.floats(0.0, 1.0))
    def test_exit_codes_and_range(self, family_kappa, two_s, method, phi, r2):
        family, kappa = family_kappa
        argv = ["compute", "--family", family, "--two-s", str(two_s), f"--phi={phi!r}",
                f"--r2={r2!r}", "--method", method]
        if kappa is not None:
            argv += ["--kappa", repr(kappa)]
        code, out, err = _main_captured(argv)
        _assert_clean_exit(code, err)
        if code:
            return
        lines = out.splitlines()
        values = [float(line.split()[-1]) for line in (lines[:2] if method == "both" else lines)]
        assert len(values) == (2 if method == "both" else 1)
        assert all(0.0 <= v <= 1.0 - 1.0 / (two_s + 1) for v in values)
        # every kappa drawn is finite; the oracle shares no code with the package
        if abs(phi) <= 10.0:
            rho = _eigh_oracle_rho(cli._CLI_FAMILIES[family], two_s, kappa, 0, phi, r2)
            want = 1.0 - float(np.sum(np.abs(rho) ** 2))
            assert all(abs(v - want) <= 1e-10 for v in values)


def _ulps_above(value, ulps):
    """The double ulps steps above value."""
    for _ in range(ulps):
        value = nextafter(value, inf)
    return value


def _grids(inner):
    """(points, spec) of a --phi or --r2 grid: a scalar, or start:stop:count
    with ends from EDGE_FLOATS or inner, often ascending, some 1-3 ulps apart
    (a span too short for distinct points), and a count that may be refused."""
    end = st.sampled_from(EDGE_FLOATS) | inner
    near = st.tuples(end, st.integers(1, 3)).map(lambda e: (e[0], _ulps_above(*e)))
    ends = st.tuples(end, end).map(sorted) | st.tuples(end, end) | near
    return (end.map(lambda v: (1, repr(v)))
            | st.tuples(ends, st.integers(1, 4)).map(
                lambda g: (g[1], f"{g[0][0]!r}:{g[0][1]!r}:{g[1]}")))


class TestSweepContract:
    """Every sweep argv either prints one row per cell with S in [0, 1 - 1/d]
    and distinct points on each axis, or exits cleanly with a documented code
    and one diagnostic line."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(family_kappa=TestComputeContract.FAMILY_KAPPA,
           # (the 2s values in order, the spec): ints, lists with repeats and
           # descending runs, and ranges, some empty or below 1
           two_s=(st.integers(1, 12).map(lambda v: ([v], str(v)))
                  | st.lists(st.integers(1, 9), min_size=2, max_size=4).map(
                      lambda vs: (vs, ",".join(map(str, vs))))
                  | st.tuples(st.integers(0, 8), st.integers(-1, 3)).map(
                      lambda r: (list(range(r[0], r[0] + r[1] + 1)), f"{r[0]}:{r[0] + r[1]}"))),
           phi=_grids(st.floats(-10.0, 10.0)),
           r2=_grids(st.floats(0.0, 1.0)),
           m=st.integers(-2**70, 2**70) | st.sampled_from((2**63, -2**63 - 1, 2**64)),
           fmt=st.sampled_from(("csv", "json")))
    def test_exit_codes_and_rows(self, family_kappa, two_s, phi, r2, m, fmt):
        family, kappa = family_kappa
        (two_s, two_s_spec), (phis, phi_spec), (r2s, r2_spec) = two_s, phi, r2
        argv = ["sweep", "--family", family, f"--two-s={two_s_spec}", f"--phi={phi_spec}",
                f"--r2={r2_spec}", f"--m={m}", "--format", fmt]
        if kappa is not None:
            argv += ["--kappa", repr(kappa)]
        code, out, err = _main_captured(argv)
        _assert_clean_exit(code, err)
        if code:
            return
        # the rows run over 2s, then phi, then r2
        dims = np.repeat(np.array(two_s) + 1, phis * r2s)
        if fmt == "csv":
            header, *rows = out.splitlines()
            cells = np.array([row.split(",") for row in rows], dtype=float)
            assert header == ("two_s,phi,r2,S" if len(two_s) > 1 else "phi,r2,S")
            if len(two_s) > 1:
                assert np.array_equal(cells[:, 0] + 1, dims)
            points = cells[:, -3], cells[:, -2]
            values = cells[:, -1]
        else:
            payload = json.loads(out)
            axes = {a["name"]: a["values"] for a in payload["axes"]}
            points = axes["phi"], axes["r2"]
            values = np.array(payload["values"])
        assert values.shape == dims.shape
        # each axis prints its points once per block, all distinct
        assert [len(set(p)) for p in points] == [phis, r2s]
        assert np.all((0.0 <= values) & (values <= 1.0 - 1.0 / dims))


class TestWorkBudget:
    """Runs estimated over a budget are refused before any work starts."""

    @pytest.mark.parametrize("argv, route", [
        (["sweep", "--two-s", "1:100000"], "_entropy_grid"),
        (["compute", "--two-s", "1000", "--phi", "0", "--r2", "0.5",
          "--method", "closed"], "linear_entropy_closed"),
        # 1e9 cells of d^3 = 8: each cell's floor cost puts it over
        (["sweep", "--two-s", "1", "--phi", "0:1:100000", "--r2", "0:1:10000"],
         "_entropy_grid"),
        # a grid axis too long to build
        (["sweep", "--two-s", "1", "--phi", "0:1:1000000000000", "--r2", "0.5"],
         "_entropy_grid"),
        # each axis within its bound, the product of the two over the budget
        (LONG_AXIS_SWEEP, "_entropy_grid"),
        # a 2s range too long to build, and one whose estimate is beyond any float
        (["sweep", "--two-s", "1:10000000000"], "_entropy_grid"),
        (["sweep", "--two-s", "1:" + "9" * 400], "_entropy_grid"),
        (["compute", "--two-s", "512", "--phi", "0", "--r2", "0.5",
          "--method", "closed"], "linear_entropy_closed"),
        # the default grid's 101 Gram tables at 2s = 161
        (["sweep", "--two-s", "161"], "_entropy_grid"),
    ])
    def test_refused_without_starting(self, capsys, monkeypatch, argv, route):
        def started(*args, **kwargs):
            raise AssertionError("the computation started")

        # the sweep builder looks its grid evaluator up in experiments
        monkeypatch.setattr(experiments if route == "_entropy_grid" else cli, route, started)
        start = time.perf_counter()
        assert main(argv) == 1
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: ")
        assert "budget" in captured.err
        assert "Traceback" not in captured.err

    def test_refused_before_the_grids_are_built(self):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(UsageError, match="the sweep needs"):
                parse_args(LONG_AXIS_SWEEP)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1
        assert peak < 10 * 2**20

    def test_two_s_range_refused_before_it_is_built(self):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            # the plan is summed up to the first 2s past the budget
            with pytest.raises(UsageError, match=r"the sweep needs about 1\.76e\+10 "
                               r"multiply-adds by 2s = 78,"):
                parse_args(["sweep", "--two-s", "1:10000000000"])
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1
        assert peak < 2**20
        # a range of more than 2^63 values is a usage error for compute too
        with pytest.raises(UsageError, match="compute takes scalar"):
            parse_args(["compute", "--two-s", "1:" + "9" * 30, "--phi", "0", "--r2", "0.5"])

    @pytest.mark.parametrize("spec", ["1:40", "7:23", "40:40", "2,5,9", "3"])
    def test_two_s_estimate_is_exact(self, monkeypatch, spec):
        # the plan's work summed over the 2s values: on 32 phases x 2 r2
        # values, Gram tables from 2s = 7 on and one rho per cell below
        argv = ["sweep", "--two-s", spec, "--phi", "0:1:32", "--r2", "0:1:2"]
        values = parse_args(argv).two_s
        work = sum(w for _, _, w in experiments._plan(values, 32, 2))
        monkeypatch.setattr(cli, "CUBE_BUDGET", work)
        assert parse_args(argv).two_s == values
        monkeypatch.setattr(cli, "CUBE_BUDGET", work - 1)
        with pytest.raises(UsageError, match="the sweep needs"):
            parse_args(argv)

    def test_message_names_estimate_and_budget(self):
        with pytest.raises(UsageError, match=r"1\.72e\+10") as err:
            parse_args(["compute", "--two-s", "1000", "--phi", "0", "--r2", "0.5",
                        "--method", "both"])
        assert "2.51e+11 multiply-adds" in str(err.value)
        with pytest.raises(UsageError, match=r"1\.72e\+10"):
            parse_args(["compute", "--two-s", "3000", "--phi", "0", "--r2", "0.5"])
        with pytest.raises(UsageError, match="the closed form needs about 1.73e"):
            parse_args(["compute", "--two-s", "512", "--phi", "0", "--r2", "0.5",
                        "--method", "closed"])

    def test_large_standard_runs_admitted(self):
        big = ["--two-s", "2200", "--phi", "0", "--r2", "0.5"]
        for argv in (["compute", *big], ["sweep", *big], ["sweep", "--two-s", "80"],
                     ["sweep", "--two-s", "160"],
                     # tables priced at the rho route they passed over
                     ["sweep", "--two-s", "161", "--phi", "0:1:32"],
                     ["sweep", "--two-s", "400", "--phi", "0:1:66", "--r2", "0:1:3"],
                     ["sweep", "--two-s", "1:40", "--phi", "0:6.283185307179586:5",
                      "--r2", "0.5"],
                     ["compute", "--two-s", "511", *big[2:], "--method", "closed"]):
            assert parse_args(argv).command == argv[0]


class TestMainSweep:
    def test_csv_output(self, capsys):
        code = main(["sweep", "--two-s", "1", "--phi", "0:3.14:4",
                     "--r2", "0:1:3", "--serial"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "phi,r2,S"
        assert len(lines) == 1 + 4 * 3
        mid = lines[1 + 1].split(",")     # phi = 0 row, r2 = 0.5
        assert float(mid[1]) == 0.5
        assert float(mid[2]) == pytest.approx(0.125, abs=1e-12)

    def test_multi_dimension_axis(self, capsys):
        code = main(["sweep", "--two-s", "1,2", "--phi", "0.5",
                     "--r2", "0.5", "--serial"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "two_s,phi,r2,S"
        assert len(lines) == 3

    def test_json_output(self, capsys):
        code = main(["sweep", "--two-s", "2", "--phi", "0:6.283185307179586:5",
                     "--r2", "0.5", "--format", "json", "--serial"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [a["name"] for a in payload["axes"]] == ["phi", "r2"]
        assert len(payload["values"]) == 5
        assert payload["meta"]["two_s"] == 2
        assert list(payload["meta"]) == ["family", "m", "kappa", "method", "two_s"]

    # Re-frozen when the Gram table came to be binned from the diagonal sums
    # of each G_j: of the 12 928 values of the qubit, qutrit and quartit
    # sweeps 2 560, 4 914 and 6 130 moved, and 253 of the 1 280 of
    # balanced_phi, each by at most 2.2e-16; growth goes by the rho route.
    @pytest.mark.parametrize("argv, md5", [
        (["--two-s", "1"], "b6c9c6502c4108d3585b8ccb6bd35076"),
        (["--two-s", "2"], "295caa3b05aaa3976b89e2d07e3d1970"),
        (["--two-s", "3"], "a1dfbda632f285ba0e530e850515114e"),
        (["--two-s", "1:10", "--r2", "0.5"], "8f9ed7938ce8a06e46891cc58f2ba09f"),
        (["--two-s", "1:40", "--phi", "0:6.283185307179586:5", "--r2", "0.5"],
         "bf73f882ee89ec5fe86484c716b7130b"),
    ], ids=["qubit", "qutrit", "quartit", "balanced_phi", "growth"])
    def test_readme_sweeps_pinned_md5(self, argv, md5, capsysbinary):
        # the five standard sweeps of README, every stdout byte
        assert main(["sweep", *argv]) == 0
        assert hashlib.md5(capsysbinary.readouterr().out).hexdigest() == md5

    @pytest.mark.parametrize("count", [0, None])
    def test_write_that_takes_nothing_exits_3(self, capsys, monkeypatch, count):
        class Stuck:
            def write(self, data):
                return count

            def flush(self):
                pass

            buffer = property(lambda self: self)

        monkeypatch.setattr(sys, "stdout", Stuck())
        assert main(["sweep", "--two-s", "2", "--phi", "0:1:3", "--r2", "0.5"]) == 3
        assert capsys.readouterr().err.startswith("i/o error: short write: ")

    def test_sweep_into_a_closed_pipe_exits_3(self):
        # a reader that leaves after 100 bytes of a 15 MB CSV; written whole,
        # the CSV went out as one write that came back short, unseen, and the
        # run exited 0
        proc = subprocess.Popen([sys.executable, "-m", "phasebeam.cli", "sweep", "--two-s", "1:20"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env={**os.environ, "PYTHONPATH": SRC})
        with proc:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 3
        assert err == b"i/o error: [Errno 32] Broken pipe\n"

    def test_failing_sweep_prints_nothing(self, capsysbinary, monkeypatch):
        # the table is finished before emit writes its first block, so a
        # slice that fails leaves no partial CSV on stdout
        closed = experiments.linear_entropy_closed
        slices = []

        def fail_last(spec, phi, params):
            slices.append(spec.two_s)
            if spec.two_s == 3:
                raise NumericalConsistencyError("purity above 1 at 2s = 3")
            return closed(spec, phi, params)

        monkeypatch.setattr(experiments, "linear_entropy_closed", fail_last)
        assert main(["sweep", "--two-s", "1:3"]) == 2
        out, err = capsysbinary.readouterr()
        assert slices == [1, 2, 3]
        assert out == b""
        assert err.decode().splitlines() == [
            "numerical consistency error: purity above 1 at 2s = 3"]

    def test_byte_identical_reruns(self, capsys):
        argv = ["sweep", "--two-s", "2", "--phi", "0:6.28:6", "--r2", "0:1:5",
                "--serial"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second


class TestMainCheck:
    def test_single_suite(self, capsys):
        code = main(["check", "--suite", "algebra", "--seed", "42"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out
        assert out.strip().endswith("0 failed")

    def test_splitter_suite(self, capsys):
        assert main(["check", "--suite", "splitter", "--seed", "7"]) == 0
        capsys.readouterr()

    def test_all_suites_pass(self, capsys):
        code = main(["check", "--suite", "all", "--seed", "42"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out
        # one report line per check plus the summary
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
