from math import pi

import numpy as np
import pytest

from phasebeam import (
    Family,
    InvalidStructureError,
    SweepTable,
    Axis,
    entropy_point,
    sweep_r2_phi,
    sweep_s_balanced,
)
from phasebeam.cli import main


def _phi_balanced(two_s, phis, family=Family.KAPPA_NEG, kappa=None, m=0):
    """S against phi at the balanced splitter, one row per 2s, as the CLI builds it."""
    from phasebeam import experiments

    return experiments._sweep(("two_s", "phi"), two_s, phis, (0.5,), family, kappa, m)


def _force_route(monkeypatch, tables):
    """Have the plan take every sweep slice by tables, or every one by rho."""
    from phasebeam import experiments

    monkeypatch.setattr(experiments, "_plan",
                        lambda dims, *args: ((two_s, tables, 0) for two_s in dims))


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

    def test_every_cell_is_checked(self, monkeypatch, spy_products):
        from phasebeam import InvalidDensityError, NumericalConsistencyError
        from phasebeam import entropy, experiments

        # three phases of one r2 value at 2s = 1 go by one rho per cell
        good = np.eye(2) / 2.0
        # not PSD; and PSD within 1e-10 but S = -2e-10, beyond the clamp band
        for bad, error in ((np.diag([1.5, -0.5]), InvalidDensityError),
                           (np.diag([1.0 + 1e-10, -1e-10]), NumericalConsistencyError)):
            stack = np.stack([good, bad.astype(complex), good])
            monkeypatch.setattr(experiments, "reduced_density_closed",
                                lambda spec, m, phi, params: stack)
            with pytest.raises(error):
                sweep_r2_phi(1, (0.0, 1.0, 2.0), (0.5,))
        monkeypatch.undo()

        # the same slice by Gram tables
        _force_route(monkeypatch, True)
        # each tile product with the weights of one r2 value of three (column
        # 1 of the transposed weight tile) scaled: S = -0.05 there, beyond the
        # clamp band, then S = 0.9125 > 1 - 1/d
        for scale in (1.2, 0.1):
            columns = np.r_[1.0, scale, np.ones(14)]
            spy_products(lambda a, b, out, columns=columns: np.matmul(a, b * columns, out=out))
            with pytest.raises(NumericalConsistencyError):
                sweep_r2_phi(1, (0.0, 1.0, 2.0), (0.2, 0.5, 0.8))
        monkeypatch.setattr(entropy, "np", np)
        # one binomial column of one r2 value sums to 1 + 1e-11
        pmf_call = entropy._binomial_pmf

        def off(spec, r2):
            pmf = pmf_call(spec, r2)
            pmf[1, 0, 1] += 1e-11
            return pmf

        monkeypatch.setattr(entropy, "_binomial_pmf", off)
        with pytest.raises(NumericalConsistencyError, match="pmf"):
            sweep_r2_phi(1, (0.0, 1.0, 2.0), (0.2, 0.5, 0.8))

    def test_family_name_coerced_before_the_grid(self):
        by_name = sweep_r2_phi(2, (0.0, 0.7), (0.3, 0.5), family="kappa-neg")
        by_member = sweep_r2_phi(2, (0.0, 0.7), (0.3, 0.5), family=Family.KAPPA_NEG)
        assert by_name.meta == by_member.meta
        assert by_name.meta["family"] == "kappa-neg"
        assert np.array_equal(by_name.values, by_member.values)
        with pytest.raises(InvalidStructureError, match="^unknown family"):
            sweep_r2_phi(2, (0.0, 0.7), (0.3, 0.5), family="bogus")

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            sweep_r2_phi(2, (), (0.5,), serial=True)
        with pytest.raises(ValueError):
            sweep_r2_phi(2, (0.0,), (1.5,), serial=True)


class TestSweepPhiBalanced:
    def test_qubit_row_constant(self):
        table = _phi_balanced((1,), np.linspace(0, 2 * pi, 16))
        assert np.allclose(table.values, 0.125, atol=1e-12)

    def test_qutrit_row_parity(self):
        grid = np.linspace(0.0, 2 * pi, 17)
        table = _phi_balanced((2,), grid)
        row = table.grid()[0]
        assert np.max(np.abs(row - row[::-1])) <= 1e-12

    def test_quartit_row_sign_pattern(self):
        # rises, falls, rises again across [0, 2pi]
        grid = np.linspace(0.0, 2 * pi, 33)
        table = _phi_balanced((3,), grid)
        signs = np.sign(np.diff(table.grid()[0]))
        runs = []
        for s in signs:
            if not runs or runs[-1][0] != s:
                runs.append([s, 1])
            else:
                runs[-1][1] += 1
        assert [r[0] for r in runs] == [1.0, -1.0, 1.0]

    def test_axes_and_meta(self):
        table = _phi_balanced((1, 2), (0.0, 1.0))
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

    def test_nan_refused(self):
        # NaN fails every comparison, so a range check written as two
        # "outside" tests let it through to CSV "nan" and JSON "NaN".
        with pytest.raises(ValueError, match="must lie in"):
            SweepTable(axes=(Axis("phi", (0.0, 1.0)),), values=np.array([np.nan, 0.5]))


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
        _force_route(monkeypatch, False)
        whole = sweep_r2_phi(3, phis, (0.2, 0.5))
        # blocks of two phases, the last one short
        monkeypatch.setattr(experiments, "_BLOCK_ENTRIES", 2 * 4 * 4)
        assert np.array_equal(sweep_r2_phi(3, phis, (0.2, 0.5)).values,
                              whole.values)

    def test_tiles_match_one_block(self, monkeypatch):
        from phasebeam import experiments

        phis = np.linspace(0, 2 * pi, 7)
        r2s = (0.0, 0.2, 0.5, 0.9, 1.0)
        _force_route(monkeypatch, False)
        whole = sweep_r2_phi(3, phis, r2s)
        tiles = []
        tile_call = experiments.reduced_density_closed

        def spy(spec, m, phi, params):
            tiles.append((len(phi), len(params.r2)))
            return tile_call(spec, m, phi, params)

        # tiles of 2 phi x 2 r2 cells, the last row and column short
        monkeypatch.setattr(experiments, "_BLOCK_ENTRIES", 4 * 4 * 4)
        monkeypatch.setattr(experiments, "reduced_density_closed", spy)
        assert np.array_equal(sweep_r2_phi(3, phis, r2s).values, whole.values)
        assert sorted(set(tiles)) == [(1, 1), (1, 2), (2, 1), (2, 2)]
        assert len(tiles) == 4 * 3

    @staticmethod
    def _spy_tables(monkeypatch, spy_products, calls, tiles):
        """Take every slice by tables; record (2s, phi shape, r2 shape) per
        linear_entropy_closed call and (2s, phase tiles, r2 tiles) per
        contraction product."""
        from phasebeam import experiments

        closed_call = experiments.linear_entropy_closed

        def closed(spec, phi, params):
            calls.append((spec.two_s, np.shape(phi), np.shape(params.r2)))
            return closed_call(spec, phi, params)

        def product(a, b, out):
            tiles.append((calls[-1][0], a.shape[0], b.shape[1]))
            return np.matmul(a, b, out=out)

        _force_route(monkeypatch, True)
        monkeypatch.setattr(experiments, "linear_entropy_closed", closed)
        spy_products(product)

    def test_table_phi_blocks_match_one_block(self, monkeypatch, spy_products):
        from phasebeam import entropy

        phis = np.linspace(0, 2 * pi, 40)
        calls, tiles = [], []
        self._spy_tables(monkeypatch, spy_products, calls, tiles)
        whole = sweep_r2_phi(3, phis, (0.2, 0.5))
        # 40 phases fill 3 tiles of 16, and both r2 values one
        assert calls == [(3, (40, 1), (2,))]
        assert tiles == [(3, 3, 1)]
        calls.clear()
        tiles.clear()
        # 3 distinct k at 2s = 3: one table of both r2 values, contracted in
        # blocks of 96 // (16 * 3) = 2 phase tiles, the last one short
        monkeypatch.setattr(entropy, "_BLOCK_ENTRIES", 2 * 16 * 3)
        assert np.array_equal(sweep_r2_phi(3, phis, (0.2, 0.5)).values, whole.values)
        assert calls == [(3, (40, 1), (2,))]
        assert tiles == [(3, 2, 1), (3, 1, 1)]

    def test_table_tiles_match_one_block(self, monkeypatch, spy_products):
        from phasebeam import SplitterParams, build_structure, entropy, experiments
        from phasebeam.algebra import structure_from_spacings

        phis = np.linspace(0, 2 * pi, 40)
        r2s = (0.0, 0.2, 0.5, 0.9, 1.0)

        def sweep():
            return experiments._sweep(("two_s", "phi", "r2"), (2, 3), phis, r2s,
                                      Family.KAPPA_NEG, None, 0)

        # kappa-neg at 2s = 2 and 3, and a CUSTOM table of d = 4, against r2
        # of shape (6,) and (2, 3)
        specs = [build_structure(Family.KAPPA_NEG, 2), build_structure(Family.KAPPA_NEG, 3),
                 structure_from_spacings(np.array([1.0, 1.7, 0.6, -3.3]))]
        grids = [np.linspace(0.0, 1.0, 6), np.linspace(0.0, 1.0, 6).reshape(2, 3)]

        def builds():
            return [entropy._gram_table(spec, SplitterParams(r2))
                    for spec in specs for r2 in grids]

        calls, tiles = [], []
        self._spy_tables(monkeypatch, spy_products, calls, tiles)
        whole, whole_builds = sweep(), builds()
        # one call per 2s slice, contracted with all 3 phase tiles at once
        assert calls == [(2, (40, 1), (5,)), (3, (40, 1), (5,))]
        assert tiles == [(2, 3, 1), (3, 3, 1)]
        calls.clear()
        tiles.clear()
        pmfs = []
        pmf_call = entropy._binomial_pmf

        def spy_pmf(spec, r2):
            pmfs.append((spec.two_s, np.size(r2)))
            return pmf_call(spec, r2)

        # the table builds its r2 cells in tiles of 32 // d^2: 3 at 2s = 2
        # and 2 at 2s = 3, the last one short; with 2 and 3 distinct k, a
        # contraction block holds max(1, 32 // (16 k)) = 1 phase tile
        monkeypatch.setattr(entropy, "_BLOCK_ENTRIES", 32)
        monkeypatch.setattr(entropy, "_binomial_pmf", spy_pmf)
        assert np.array_equal(sweep().values, whole.values)
        assert calls == [(2, (40, 1), (5,)), (3, (40, 1), (5,))]
        assert tiles == [(2, 1, 1)] * 3 + [(3, 1, 1)] * 3
        assert pmfs == [(2, 3), (2, 2), (3, 2), (3, 2), (3, 1)]
        # each tiled table is the whole build to the bit, in the shape of r2
        for tiled, one in zip(builds(), whole_builds, strict=True):
            assert tiled.weights.shape == one.weights.shape
            assert tiled.rates.tobytes() == one.rates.tobytes()
            assert tiled.weights.tobytes() == one.weights.tobytes()

    def test_routes_agree(self, monkeypatch):
        from phasebeam import experiments

        phis = np.linspace(0, 2 * pi, 7)
        r2s = (0.0, 0.2, 0.5, 0.9, 1.0)
        for family, kappa in ((Family.PEGG_BARNETT, None), (Family.KAPPA_NEG, None),
                              (Family.KAPPA_POS, 0.5)):
            sweeps = []
            for tables in (False, True):
                _force_route(monkeypatch, tables)
                sweeps.append(experiments._sweep(("two_s", "phi", "r2"), (1, 4, 9), phis,
                                                 r2s, family, kappa, 0).values)
            assert np.max(np.abs(sweeps[0] - sweeps[1])) <= 1e-13


def test_sweeps_use_only_public_entropy_names():
    # the sweep's tables slice is one linear_entropy_closed call, so the
    # contraction and its tile bound live in entropy alone
    import ast
    import inspect

    from phasebeam import experiments

    from_entropy = [alias.name
                    for node in ast.walk(ast.parse(inspect.getsource(experiments)))
                    if isinstance(node, ast.ImportFrom) and node.module in ("entropy",
                                                                            "phasebeam.entropy")
                    for alias in node.names]
    assert "linear_entropy_closed" in from_entropy
    assert [name for name in from_entropy if name.startswith("_")] == []


class TestRouteChoice:
    """The plan's route and work for each 2s slice, as the sweep runs them."""

    # Each slice by the route that ran faster, in process (medians of 5
    # alternating rounds, 2-vCPU x86 host): one case on either side of each
    # measured crossover of phases per r2 value, and the README sweeps.
    @pytest.mark.parametrize("dim, phases, r2s, tables", [
        (3, 128, 101, True),     # the default qutrit surface
        (3, 15, 101, True),      # 0.21 against 1.70 ms at 16 phases
        (3, 5, 101, True),       # 0.16 against 0.65 ms
        (7, 5, 101, True),       # 0.43 against 1.67 ms
        (11, 128, 1, True),      # sweep --two-s 1:10 --r2 0.5 at 2s = 10
        (4, 128, 1, True),       # ... and at 2s = 3
        (41, 5, 1, True),        # the growth table at 2s = 40: 0.45 against 0.55 ms
        (21, 2, 101, False),     # rho 4.8 against 8.2 ms
        (21, 16, 101, True),     # tables 9.1 against 27 ms
        (41, 1, 101, False),     # rho 10 against 25 ms
        (41, 5, 101, True),      # tables 23 against 46 ms
        (81, 1, 101, False),     # rho 47 against 127 ms
        (81, 5, 101, True),      # tables 109 against 203 ms
        (161, 5, 1, False),      # rho 9.4 against 12.6 ms
        (161, 5, 8, False),      # rho 75 against 94 ms
        (161, 8, 8, True),
        (161, 25, 1, True),      # tables 13.7 against 30 ms at 16 phases
        (161, 26, 1, True),
        (2201, 1, 1, False),     # sweep --two-s 2200 --phi 0 --r2 0.5
    ])
    def test_threshold(self, dim, phases, r2s, tables):
        from phasebeam import experiments

        [(two_s, route, _)] = experiments._plan((dim - 1,), phases, r2s)
        assert (two_s, route) == (dim - 1, tables)

    def test_work_is_the_route_taken(self):
        from itertools import count

        from phasebeam import experiments

        floor = experiments.CELL_FLOOR
        # the default grid at 2s = 160 by tables: per r2 value 161^4 // 4
        # multiply-adds and 4 * 2^9 per entry of 161^2, and 2^9 // 16 per
        # entry per phase; 2s = 2200 by one rho per cell, 4 * 2201 + 2^9 per
        # entry
        plan = experiments._plan((160, 2200), 128, 101)
        assert next(plan) == (160, True, 161**2 * (101 * (6480 + 2048) + 128 * 32)
                              + 128 * 101 * floor)
        assert next(plan) == (2200, False, 128 * 101 * (2201**2 * (8804 + 512) + floor))
        assert list(experiments._plan((1, 40), 5, 1)) == [
            (1, True, 4 * (2049 + 5 * 32) + 5 * floor),
            (40, True, 41**2 * (420 + 2048 + 5 * 32) + 5 * floor)]
        # dims is read lazily, so a range need not be built
        assert next(experiments._plan(count(1), 1, 3)) == (1, False, 3 * (4 * 520 + floor))

    @pytest.mark.parametrize("dim", [2, 3, 4, 7, 11, 21, 41, 81, 161, 321, 2201])
    def test_route_is_the_cheaper_price(self, dim):
        from phasebeam import experiments

        for phases in (1, 2, 5, 8, 16, 32, 128):
            for r2s in (1, 8, 101):
                tables, rho = experiments._price(dim, phases, r2s)
                assert list(experiments._plan((dim - 1,), phases, r2s)) == [
                    (dim - 1, tables < rho, min(tables, rho))]

    def test_each_slice_picks_its_route(self, monkeypatch):
        from phasebeam import experiments

        named, ran = [], []
        plan_call = experiments._plan

        def plan(*args):
            for two_s, tables, work in plan_call(*args):
                tables ^= flip  # flipped, a route the rule did not pick must run
                named.append((two_s, "linear_entropy_closed" if tables else "_rho_tiles"))
                yield two_s, tables, work

        for name in ("linear_entropy_closed", "_rho_tiles"):
            call = getattr(experiments, name)

            def spy(spec, *args, name=name, call=call):
                ran.append((spec.two_s, name))
                return call(spec, *args)

            monkeypatch.setattr(experiments, name, spy)
        monkeypatch.setattr(experiments, "_plan", plan)
        for flip in (True, False):
            for phases in (1, 128, 32, 5):
                named.clear()
                ran.clear()
                _phi_balanced((1, 30, 200), np.linspace(0, 2 * pi, phases))
                assert ran == named and len(named) == 3
        # on 5 phases one table per slice is the cheaper up to d = 95
        assert ran == [(1, "linear_entropy_closed"), (30, "linear_entropy_closed"),
                       (200, "_rho_tiles")]


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
                compare(_phi_balanced((two_s,), self.PHIS, m=m, **kw).values,
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


class TestReadmeSweepsPinnedToRhoRoute:
    """The five README sweeps, every cell, against one rho per cell.

    The reference is one stack of reduced_density_closed per 2s,
    S = 1 - Tr(rho^2); the sweeps take Gram tables at every 2s.
    """

    @pytest.mark.parametrize("argv", [
        ["--two-s", "1"], ["--two-s", "2"], ["--two-s", "3"],
        ["--two-s", "1:10", "--r2", "0.5"],
        ["--two-s", "1:40", "--phi", "0:6.283185307179586:5", "--r2", "0.5"]])
    def test_every_cell(self, argv, capsys):
        from phasebeam import SplitterParams, build_structure, linear_entropy
        from phasebeam.splitter import reduced_density_closed

        assert main(["sweep", *argv]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = np.array([line.split(",") for line in lines[1:]], dtype=float)
        if lines[0] == "phi,r2,S":
            rows = np.column_stack([np.full(len(rows), float(argv[1])), rows])
        dims, phis, r2s = (np.unique(rows[:, i]) for i in range(3))
        got = rows[:, 3].reshape(len(dims), len(phis), len(r2s))
        for two_s, plane in zip(dims, got):
            spec = build_structure(Family.KAPPA_NEG, int(two_s))
            rho = reduced_density_closed(spec, 0, phis[:, None], SplitterParams(r2s))
            assert np.max(np.abs(plane - linear_entropy(rho).value)) <= 1e-12
