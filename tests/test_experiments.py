from math import pi

import numpy as np
import pytest

from phasebeam import (
    Family,
    SweepTable,
    Axis,
    entropy_point,
    sweep_phi_balanced,
    sweep_r2_phi,
    sweep_s_balanced,
)
from phasebeam.cli import main


class TestSweepTable:
    def test_shape_and_grid(self):
        table = SweepTable(
            axes=(Axis("a", (1.0, 2.0)), Axis("b", (0.0, 0.5, 1.0))),
            values=np.arange(6, dtype=float) / 10.0)
        assert table.shape == (2, 3)
        assert np.array_equal(table.grid(), np.arange(6).reshape(2, 3) / 10.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            SweepTable(axes=(Axis("a", (1.0,)),), values=np.zeros(3))

    def test_empty_axis(self):
        with pytest.raises(ValueError):
            SweepTable(axes=(Axis("a", ()),), values=np.zeros(0))

    def test_values_read_only(self):
        table = SweepTable(axes=(Axis("a", (1.0,)),), values=np.zeros(1))
        with pytest.raises(ValueError):
            table.values[0] = 2.0


class TestEntropyPoint:
    def test_matches_analytic_qubit(self):
        assert entropy_point(1, 0, 0.7, 0.3) == pytest.approx(0.105, abs=1e-12)

    def test_families(self):
        # reference from an independent brute-force partial trace
        assert entropy_point(2, 0, 1.0, 0.3, Family.PEGG_BARNETT) == pytest.approx(
            0.11860673417851075, abs=1e-12)
        assert entropy_point(2, 0, 1.0, 0.3, Family.KAPPA_POS, 0.5) == pytest.approx(
            0.17928373411758292, abs=1e-12)


class TestSweepR2Phi:
    def test_qubit_rows(self):
        table = sweep_r2_phi(1, (0.0, pi), (0.0, 0.5, 1.0), serial=True)
        assert [a.name for a in table.axes] == ["phi", "r2"]
        expected = [0.0, 0.125, 0.0, 0.0, 0.125, 0.0]
        assert np.allclose(table.values, expected, atol=1e-12)
        assert table.meta["two_s"] == 1
        assert table.meta["family"] == "kappa-neg"

    def test_qutrit_peak_point(self):
        # reference from an independent brute-force partial trace
        table = sweep_r2_phi(2, (pi,), (0.5,), serial=True)
        assert table.values[0] == pytest.approx(0.4488015069303436, abs=1e-12)

    def test_endpoints_always_pure(self):
        for two_s in (1, 2, 4):
            table = sweep_r2_phi(two_s, (0.9, 2.7), (0.0, 1.0), serial=True)
            assert np.max(np.abs(table.values)) <= 1e-12

    def test_phi_major_ordering(self):
        table = sweep_r2_phi(2, (0.0, pi), (0.2, 0.5), serial=True)
        grid = table.grid()
        assert grid.shape == (2, 2)
        assert grid[1, 1] == pytest.approx(0.4488015069303436, abs=1e-12)

    def test_every_cell_is_checked(self, monkeypatch):
        from phasebeam import InvalidDensityError, NumericalConsistencyError
        from phasebeam import experiments

        good = np.eye(2) / 2.0
        # not PSD; and PSD within 1e-10 but S = -2e-10, beyond the clamp band
        for bad, error in ((np.diag([1.5, -0.5]), InvalidDensityError),
                           (np.diag([1.0 + 1e-10, -1e-10]), NumericalConsistencyError)):
            stack = np.stack([good, bad.astype(complex), good])
            monkeypatch.setattr(experiments, "reduced_density_closed",
                                lambda spec, m, phi, params: stack)
            with pytest.raises(error):
                sweep_r2_phi(1, (0.0, 1.0, 2.0), (0.5,))

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            sweep_r2_phi(2, (), (0.5,), serial=True)
        with pytest.raises(ValueError):
            sweep_r2_phi(2, (0.0,), (1.5,), serial=True)


class TestSweepPhiBalanced:
    def test_qubit_row_constant(self):
        table = sweep_phi_balanced((1,), np.linspace(0, 2 * pi, 16), serial=True)
        assert np.allclose(table.values, 0.125, atol=1e-12)

    def test_qutrit_row_parity(self):
        grid = np.linspace(0.0, 2 * pi, 17)
        table = sweep_phi_balanced((2,), grid, serial=True)
        row = table.grid()[0]
        assert np.max(np.abs(row - row[::-1])) <= 1e-12

    def test_quartit_row_sign_pattern(self):
        # rises, falls, rises again across [0, 2pi]
        grid = np.linspace(0.0, 2 * pi, 33)
        table = sweep_phi_balanced((3,), grid, serial=True)
        signs = np.sign(np.diff(table.grid()[0]))
        runs = []
        for s in signs:
            if not runs or runs[-1][0] != s:
                runs.append([s, 1])
            else:
                runs[-1][1] += 1
        assert [r[0] for r in runs] == [1.0, -1.0, 1.0]

    def test_axes_and_meta(self):
        table = sweep_phi_balanced((1, 2), (0.0, 1.0), serial=True)
        assert [a.name for a in table.axes] == ["two_s", "phi"]
        assert table.shape == (2, 2)
        assert table.meta["r2"] == 0.5


class TestSweepSBalanced:
    def test_growth_and_bounds(self):
        table = sweep_s_balanced(20, (0.0, pi), serial=True)
        grid = table.grid()
        assert grid.shape == (2, 20)
        for row in grid:
            # 2s = 1 entries are the flat qubit value
            assert row[0] == pytest.approx(0.125, abs=1e-12)
            assert row[19] > row[1]
        for i, two_s in enumerate(range(1, 21)):
            assert np.all(grid[:, i] <= 1.0 - 1.0 / (two_s + 1) + 1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            sweep_s_balanced(0, (0.0,), serial=True)
        with pytest.raises(ValueError):
            sweep_s_balanced(3, (), serial=True)


class TestSweepCrossCheck:
    def test_cells_match_closed_form_on_subsample(self):
        # every cell is cross-checkable against the closed form at small d;
        # a random 10% subsample bounds the runtime
        from phasebeam import SplitterParams, build_structure, linear_entropy_closed

        phis = tuple(np.linspace(0.0, 2 * pi, 10))
        r2s = tuple(np.linspace(0.0, 1.0, 9))
        table = sweep_r2_phi(4, phis, r2s, serial=True)
        spec = build_structure(Family.KAPPA_NEG, 4)
        cells = [(phi, r2) for phi in phis for r2 in r2s]
        rng = np.random.default_rng(73)
        picks = rng.choice(len(cells), size=len(cells) // 10, replace=False)
        for idx in picks:
            phi, r2 = cells[int(idx)]
            closed = linear_entropy_closed(spec, phi, SplitterParams(r2)).value
            assert abs(table.values[int(idx)] - closed) <= 1e-10

    def test_values_bounded(self):
        with pytest.raises(ValueError):
            SweepTable(axes=(Axis("a", (1.0,)),), values=np.array([1.5]))
        with pytest.raises(ValueError):
            SweepTable(axes=(Axis("a", (1.0,)),), values=np.array([-0.1]))


class TestDeterminismAndParallel:
    def test_serial_repeatable_bitwise(self):
        args = dict(two_s=2, phi_grid=np.linspace(0, 2 * pi, 7),
                    r2_grid=np.linspace(0, 1, 5), serial=True)
        a = sweep_r2_phi(args["two_s"], args["phi_grid"], args["r2_grid"], serial=True)
        b = sweep_r2_phi(args["two_s"], args["phi_grid"], args["r2_grid"], serial=True)
        assert np.array_equal(a.values, b.values)

    def test_phi_blocks_match_one_block(self, monkeypatch):
        from phasebeam import experiments

        phis = np.linspace(0, 2 * pi, 7)
        whole = sweep_r2_phi(3, phis, (0.2, 0.5))
        # blocks of two phases, the last one short
        monkeypatch.setattr(experiments, "_BLOCK_ENTRIES", 2 * 4 * 4)
        assert np.array_equal(sweep_r2_phi(3, phis, (0.2, 0.5)).values,
                              whole.values)


class TestSweepsPinnedToEntropyPoint:
    """Every sweep path against the single-point partial-trace route."""

    PHIS = (0.0, pi / 2, pi)     # the CLI grid 0:pi:3
    R2S = (0.0, 0.5, 1.0)        # the CLI grid 0:1:3

    @pytest.mark.parametrize("family, kappa", [
        (Family.PEGG_BARNETT, None), (Family.KAPPA_NEG, None),
        (Family.KAPPA_POS, 0.5)])
    def test_sweeps_match_entropy_point(self, family, kappa, capsys):
        worst = 0.0

        def compare(got, expected):
            nonlocal worst
            worst = max(worst, float(np.max(np.abs(
                np.asarray(got) - np.asarray(expected)))))

        kw = dict(family=family, kappa=kappa)
        cli_kappa = [] if kappa is None else ["--kappa", str(kappa)]
        for two_s in (1, 2, 3, 10, 40):
            for m in sorted({0, 1, two_s}):
                point = {(phi, r2): entropy_point(two_s, m, phi, r2, family, kappa)
                         for phi in self.PHIS for r2 in self.R2S}
                balanced = [point[phi, 0.5] for phi in self.PHIS]
                compare(sweep_r2_phi(two_s, self.PHIS, self.R2S, m=m, **kw).values,
                        [point[phi, r2] for phi in self.PHIS for r2 in self.R2S])
                compare(sweep_phi_balanced((two_s,), self.PHIS, m=m, **kw).values,
                        balanced)
                compare(sweep_s_balanced(two_s, self.PHIS, m=m, **kw).grid()[:, -1],
                        balanced)
                assert main(["sweep", "--family", family.value, *cli_kappa,
                             "--two-s", str(two_s), "--m", str(m),
                             "--phi", f"0:{pi!r}:3", "--r2", "0:1:3"]) == 0
                rows = [line.split(",") for line in
                        capsys.readouterr().out.splitlines()[1:]]
                assert [(float(phi), float(r2)) for phi, r2, _ in rows] == list(point)
                compare([float(s) for _, _, s in rows], list(point.values()))
        assert worst <= 1e-12
