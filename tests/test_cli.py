import json
from math import pi

import numpy as np
import pytest

from phasebeam import (
    Family,
    RangeError,
    SweepTable,
    Axis,
    UsageError,
    build_structure,
    linear_entropy,
    reduced_density,
    SplitterParams,
    split_phase_state,
)
from phasebeam.cli import (
    emit,
    main,
    parse_args,
    parse_grid,
    parse_two_s,
    render_csv,
    render_json,
)


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

    @pytest.mark.parametrize("bad", ["0:1:1", "1:0:5", "a:b:c", "1:2", "x",
                                     "0:1:0", "1:1:5", "0:1:2:3",
                                     "nan", "inf", "-inf", "0:inf:3"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(UsageError):
            parse_grid(bad)


class TestParseTwoS:
    def test_forms(self):
        assert parse_two_s("2") == (2,)
        assert parse_two_s("1,2,5") == (1, 2, 5)
        assert parse_two_s("1:4") == (1, 2, 3, 4)

    @pytest.mark.parametrize("bad", ["0", "x", "3:1", "1,0", "-2"])
    def test_rejects(self, bad):
        with pytest.raises(UsageError):
            parse_two_s(bad)

    def test_range_error_is_usage_error(self):
        with pytest.raises(RangeError):
            parse_two_s("0")


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
        assert not cfg.serial

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
        text = render_csv(self._table())
        lines = text.split("\n")
        assert lines[0] == "phi,r2,S"
        assert len(lines) == 8          # header + 6 rows + trailing newline
        assert lines[-1] == ""
        assert "\r" not in text

    def test_csv_roundtrip_precision(self):
        table = SweepTable(axes=(Axis("phi", (pi / 7,)),),
                           values=np.array([1.0 / 3.0]), meta={})
        line = render_csv(table).split("\n")[1]
        phi_text, s_text = line.split(",")
        assert float(phi_text) == pi / 7
        assert float(s_text) == 1.0 / 3.0

    def test_one_by_one_sweep_is_two_lines(self):
        table = SweepTable(axes=(Axis("phi", (0.5,)), Axis("r2", (0.25,))),
                           values=np.array([0.1]), meta={})
        lines = render_csv(table).splitlines()
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

    @pytest.mark.parametrize("argv", [
        ["compute", "--two-s", "2", "--phi", "nan", "--r2", "0.5"],
        ["compute", "--two-s", "2", "--phi", "inf", "--r2", "0.5"],
        ["sweep", "--two-s", "2", "--phi", "nan", "--r2", "0.5"],
        ["sweep", "--two-s", "2", "--phi", "0:inf:3", "--r2", "0.5"],
    ])
    def test_non_finite_phi_is_usage_error(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage error" in captured.err
        assert "Traceback" not in captured.err

    def test_missing_kappa_exit_code(self, capsys):
        code = main(["compute", "--family", "kappa-pos", "--two-s", "2",
                     "--phi", "0", "--r2", "0.5"])
        assert code == 1
        assert "kappa" in capsys.readouterr().err


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

    def test_byte_identical_reruns(self, capsys):
        argv = ["sweep", "--two-s", "2", "--phi", "0:6.28:6", "--r2", "0:1:5",
                "--serial"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_threads_env_validation(self, capsys, monkeypatch):
        monkeypatch.setenv("PHASEBEAM_THREADS", "abc")
        argv = ["sweep", "--two-s", "1", "--phi", "0.5", "--r2", "0.5"]
        assert main(argv) == 1
        monkeypatch.setenv("PHASEBEAM_THREADS", "0")
        assert main(argv) == 1
        monkeypatch.setenv("PHASEBEAM_THREADS", "2")
        assert main(argv) == 0
        capsys.readouterr()


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
