import re

import numpy as np
import pytest
from scipy.signal import butter, sosfiltfilt

from dhnopt.errors import ValidationError
from dhnopt.fixtures import (daily_load_profile, demand_set_for, desk_network,
                             desk_scenario, two_level_price)
from dhnopt.objective import ConstraintSet
from dhnopt.scenario import (LoadSeries, PriceSeries,
                             _butter_sos, _sosfiltfilt, build_scenario,
                             lowpass, read_demand_set,
                             read_load_series, read_price_series,
                             synthesize_variations, write_demand_set,
                             write_load_series, write_price_series)
from dhnopt.thermal import PhysicalConstants, TimeGrid

CUTOFF_HZ = 69.4e-6  # one cycle per ~4 h


def _sine_series(freq_hz, n=4096, dt=900.0, offset=10.0, amplitude=1.0):
    t = np.arange(n) * dt
    return LoadSeries(values_w=offset + amplitude * np.sin(2 * np.pi * freq_hz * t),
                      dt_s=dt)


class TestLowpass:
    def test_unit_dc_gain(self):
        series = LoadSeries(values_w=np.full(512, 321.5), dt_s=900.0)
        out = lowpass(series, CUTOFF_HZ)
        np.testing.assert_allclose(out.values_w, 321.5, rtol=1e-9)

    def test_cutoff_period_is_about_four_hours(self):
        assert 1.0 / CUTOFF_HZ == pytest.approx(4 * 3600.0, rel=0.01)

    def test_strong_attenuation_above_cutoff(self):
        # |H|^2 at 10 fc for a 4th-order Butterworth is ~1e-8; demand at
        # least 60 dB on the residual ripple away from the edges
        series = _sine_series(10.0 * CUTOFF_HZ, offset=10.0, amplitude=1.0)
        out = lowpass(series, CUTOFF_HZ)
        mid = slice(1024, 3072)
        ripple = np.max(np.abs(out.values_w[mid] - 10.0))
        assert ripple < 1e-3

    def test_daily_cycle_passes(self):
        daily = 1.0 / 86400.0
        series = _sine_series(daily, offset=10.0)
        out = lowpass(series, CUTOFF_HZ)
        mid = slice(1024, 3072)
        amp = 0.5 * np.ptp(out.values_w[mid])
        assert amp == pytest.approx(1.0, rel=1e-3)

    def test_idempotent_on_band_limited_signal(self):
        # passband droop at f/fc = 1/8 is (1/8)^8 / 2 ~ 3e-9 per double
        # pass, far below tolerance; edges excluded (padding transients)
        series = _sine_series(CUTOFF_HZ / 8.0, offset=10.0)
        once = lowpass(series, CUTOFF_HZ)
        twice = lowpass(once, CUTOFF_HZ)
        diff = np.abs(twice.values_w - once.values_w)[100:-100]
        assert diff.max() < 1e-6 * np.max(once.values_w)

    def test_series_too_short_for_padding(self):
        series = LoadSeries(values_w=np.full(10, 5.0), dt_s=900.0)
        with pytest.raises(ValidationError, match="too short"):
            lowpass(series, CUTOFF_HZ)

    def test_cutoff_must_be_below_nyquist(self):
        series = LoadSeries(values_w=np.full(64, 5.0), dt_s=900.0)
        with pytest.raises(ValidationError, match="Nyquist"):
            lowpass(series, 1.0 / 900.0)

    @pytest.mark.parametrize("order", [-1, 0, 2.0, 4.5, "4"])
    def test_order_must_be_an_integer_of_at_least_one(self, order):
        series = LoadSeries(values_w=np.full(64, 5.0), dt_s=900.0)
        with pytest.raises(ValidationError, match=re.escape(
                f"filter order must be an integer >= 1, got {order!r}")):
            lowpass(series, CUTOFF_HZ, order=order)


# (cutoff Hz, dt s): the default, finer and coarser steps, and a cutoff
# at a quarter of Nyquist; each padlen leaves room for >= 8 samples
_ORACLE_PAIRS = [(CUTOFF_HZ, 900.0), (CUTOFF_HZ, 300.0), (1e-4, 60.0),
                 (2e-5, 3600.0), (1.5e-4, 900.0)]


class TestLowpassAgainstScipy:
    """The numpy filter is scipy's ``sosfiltfilt(butter(...))``, bit for
    bit; scipy.signal is imported by the tests only."""

    @pytest.mark.parametrize("order", range(1, 9))
    @pytest.mark.parametrize("cutoff_hz, dt_s", _ORACLE_PAIRS)
    def test_sections_and_output(self, order, cutoff_hz, dt_s):
        fs = 1.0 / dt_s
        padlen = int(np.ceil(1.0 / (cutoff_hz * dt_s)))
        sos = butter(order, cutoff_hz, fs=fs, output="sos")
        assert np.array_equal(_butter_sos(order, cutoff_hz / (fs / 2)), sos)

        # sparse spikes: in about a third of these cases the ringing
        # falls below zero, where the clamp acts
        rng = np.random.default_rng(order)
        x = rng.uniform(0.0, 1e6, padlen + 1) * (rng.uniform(size=padlen + 1)
                                                > 0.9)
        expected = sosfiltfilt(sos, x, padtype="even", padlen=padlen)
        assert np.array_equal(_sosfiltfilt(sos, x, padlen), expected)
        out = lowpass(LoadSeries(values_w=x, dt_s=dt_s), cutoff_hz,
                      order=order)
        assert np.array_equal(out.values_w, np.maximum(expected, 0.0))

    @pytest.mark.parametrize("order", range(1, 9))
    def test_sections_over_the_whole_band(self, order):
        # up to Nyquist, where an odd order's zero at 0 moves to the
        # real pole's section
        for wn in np.linspace(0.01, 0.99, 99):
            assert np.array_equal(_butter_sos(order, wn),
                                  butter(order, wn, output="sos")), wn


class TestSynthesizeVariations:
    BASE = daily_load_profile(mean_w=500e3)

    def test_zero_noise_reproduces_base_shape(self):
        out = synthesize_variations(self.BASE, 3, sigma=0.0, seed=5)
        for series in out:
            scale = series.mean() / self.BASE.mean()
            np.testing.assert_allclose(series.values_w,
                                       scale * self.BASE.values_w, rtol=1e-12)

    def test_means_hit_targets_exactly(self):
        targets = np.array([10e3, 20e3, 70e3])
        out = synthesize_variations(self.BASE, 3, sigma=0.4, seed=1,
                                    target_means=targets)
        for series, target in zip(out, targets):
            assert series.mean() == pytest.approx(target, rel=1e-9)
            assert np.all(series.values_w >= 0.0)

    def test_means_exact_even_with_clamping(self):
        # violent noise drives negative excursions; the final rescale
        # restores the target mean exactly
        out = synthesize_variations(self.BASE, 2, sigma=3.0, seed=9,
                                    target_means=np.array([50e3, 50e3]))
        for series in out:
            assert series.mean() == pytest.approx(50e3, rel=1e-9)

    def test_seed_determinism(self):
        a = synthesize_variations(self.BASE, 2, sigma=0.3, seed=42)
        b = synthesize_variations(self.BASE, 2, sigma=0.3, seed=42)
        c = synthesize_variations(self.BASE, 2, sigma=0.3, seed=43)
        for s_a, s_b in zip(a, b):
            np.testing.assert_array_equal(s_a.values_w, s_b.values_w)
        assert any(not np.array_equal(s_a.values_w, s_c.values_w)
                   for s_a, s_c in zip(a, c))

    def test_keyed_streams_are_order_independent(self):
        out = synthesize_variations(self.BASE, 2, sigma=0.3, seed=7,
                                    keys=["S1", "S2"])
        swapped = synthesize_variations(self.BASE, 2, sigma=0.3, seed=7,
                                        keys=["S2", "S1"])
        np.testing.assert_array_equal(out[0].values_w, swapped[1].values_w)
        np.testing.assert_array_equal(out[1].values_w, swapped[0].values_w)

    def test_empty_band_rejected(self):
        with pytest.raises(ValidationError):
            synthesize_variations(self.BASE, 1, band_hz=(1e-9, 2e-9), seed=0)

    def test_band_must_exclude_dc(self):
        with pytest.raises(ValidationError):
            synthesize_variations(self.BASE, 1, band_hz=(0.0, 1e-4), seed=0)


class TestResample:
    """Price curves read onto the solved steps of a grid."""

    def test_linear_midpoint(self):
        prices = PriceSeries([0.0, 3600.0], [10.0, 20.0])
        grid = TimeGrid(dt_s=1800.0, n_steps=2)
        np.testing.assert_allclose(prices.on_grid(grid), [15.0, 20.0])

    def test_knot_values_reproduced(self):
        times = np.array([0.0, 900.0, 1800.0, 2700.0])
        vals = np.array([5.0, 7.0, 6.5, 9.0])
        grid = TimeGrid(dt_s=900.0, n_steps=3)
        np.testing.assert_array_equal(PriceSeries(times, vals).on_grid(grid),
                                      vals[1:])

    def test_exact_for_affine_series(self):
        times = np.arange(0.0, 7200.1, 600.0)
        prices = PriceSeries(times, 3.0 + 0.25 * times)
        grid = TimeGrid(dt_s=450.0, n_steps=16)
        np.testing.assert_allclose(prices.on_grid(grid),
                                   3.0 + 0.25 * grid.times()[1:], rtol=1e-14)

    def test_three_day_grid_has_288_steps(self):
        grid = TimeGrid(dt_s=900.0, n_steps=int(3 * 86400 / 900))
        assert grid.n_steps == 288

    def test_grid_outside_span_rejected(self):
        prices = PriceSeries([0.0, 3600.0], [10.0, 20.0])
        with pytest.raises(ValidationError, match="not covered"):
            prices.on_grid(TimeGrid(dt_s=3600.0, n_steps=2))


class TestBuildScenario:
    def test_desk_scenario_shape(self):
        scenario = desk_scenario()
        assert scenario.grid.n_steps == 288
        assert scenario.deltas.shape == (10, 289)
        assert scenario.price.static
        assert scenario.system.bc.n_plants == 1

    def test_dynamic_scenario_prices_recovery_at_zero(self):
        scenario = desk_scenario(static=False, beta=0.0)
        assert not scenario.price.static
        assert scenario.price.beta == 0.0

    def test_dynamic_scenario_holds_the_curve_on_its_steps(self):
        scenario = desk_scenario(static=False)
        step_prices = scenario.price.step_prices
        np.testing.assert_array_equal(
            step_prices, two_level_price().on_grid(scenario.grid))
        assert step_prices.shape == (288,)
        with pytest.raises(ValueError):
            step_prices[0] = 0.0

    def test_curve_must_cover_the_initial_time(self):
        # the curve covers every solved step but not t = 0
        graph, flow = desk_network()
        demands = demand_set_for(graph, daily_load_profile())
        grid = TimeGrid(dt_s=900.0, n_steps=288)
        late = PriceSeries([900.0, grid.times()[-1]], [10.0, 20.0])
        with pytest.raises(ValidationError, match="not covered"):
            build_scenario(graph, flow, demands, late, ConstraintSet(), grid,
                           PhysicalConstants())

    def test_same_seed_same_scenario(self):
        a = desk_scenario(seed=3)
        b = desk_scenario(seed=3)
        np.testing.assert_array_equal(a.deltas, b.deltas)

    def test_missing_consumer_series_rejected(self):
        graph, flow = desk_network()
        base = daily_load_profile()
        demands = demand_set_for(graph, base)
        short = dict(demands)
        missing = list(demands)[3]
        del short[missing]
        grid = TimeGrid(dt_s=900.0, n_steps=288)
        with pytest.raises(ValidationError, match=re.escape(
                f"no demand series for consumer {missing!r}")):
            build_scenario(graph, flow, short, None, ConstraintSet(), grid,
                           PhysicalConstants())

    def test_series_for_other_ids_are_not_read(self):
        graph, flow = desk_network()
        demands = demand_set_for(graph, daily_load_profile())
        grid = TimeGrid(dt_s=900.0, n_steps=288)
        extra = {"not_a_consumer": LoadSeries(values_w=np.full(8, -0.0),
                                              dt_s=1.0), **demands}
        a, b = (build_scenario(graph, flow, d, None, ConstraintSet(), grid,
                               PhysicalConstants()) for d in (demands, extra))
        assert a.deltas.tobytes() == b.deltas.tobytes()

    def test_demand_shorter_than_the_grid_rejected(self):
        graph, flow = desk_network()
        demands = demand_set_for(graph, daily_load_profile(n_days=1))
        grid = TimeGrid(dt_s=900.0, n_steps=288)
        with pytest.raises(ValidationError,
                           match=r"load series covers \[0.0, 86400.0\] s"):
            build_scenario(graph, flow, demands, None, ConstraintSet(), grid,
                           PhysicalConstants())

    def test_absurd_demand_rejected(self):
        graph, flow = desk_network()
        grid = TimeGrid(dt_s=900.0, n_steps=288)
        ids = [graph.edge_ids[e] for e in graph.consumer_edges]
        huge = {cid: LoadSeries(values_w=np.full(289, 1e9), dt_s=900.0)
                for cid in ids}
        with pytest.raises(ValidationError, match="absolute zero"):
            build_scenario(graph, flow, huge, None, ConstraintSet(), grid,
                           PhysicalConstants())


class TestFileFormats:
    def test_load_series_round_trip(self, tmp_path):
        base = daily_load_profile()
        write_load_series(base, tmp_path / "load.csv")
        back = read_load_series(tmp_path / "load.csv")
        np.testing.assert_array_equal(back.values_w, base.values_w)
        assert back.dt_s == base.dt_s

    def test_price_series_round_trip(self, tmp_path):
        prices = two_level_price()
        write_price_series(prices, tmp_path / "prices.csv")
        back = read_price_series(tmp_path / "prices.csv")
        np.testing.assert_array_equal(back.prices_eur_mwh,
                                      prices.prices_eur_mwh)

    def test_demand_set_round_trip(self, tmp_path):
        graph, _ = desk_network(n_consumers=3)
        demands = demand_set_for(graph, daily_load_profile(), seed=2)
        write_demand_set(demands, tmp_path / "demands.csv")
        back = read_demand_set(tmp_path / "demands.csv")
        assert list(back) == list(demands)
        for cid in demands:
            np.testing.assert_array_equal(back[cid].values_w,
                                          demands[cid].values_w)

    def test_nonuniform_load_rejected(self, tmp_path):
        (tmp_path / "load.csv").write_text(
            "time_s,power_w\n0,1\n900,2\n2000,3\n3000,1\n"
            "4000,2\n5000,3\n6000,1\n7000,5\n")
        with pytest.raises(ValidationError, match="uniform"):
            read_load_series(tmp_path / "load.csv")
