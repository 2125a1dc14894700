"""Scenario construction: demand synthesis, price curves, time gridding.

Consumer demand profiles are synthesized from one district-total load
curve: the curve is low-pass filtered (zero-phase Butterworth) and then
varied per consumer by multiplicative log-normal noise on a band of its
Fourier spectrum. The filter is designed and run here, in numpy and
plain Python floats, and equals scipy's
``sosfiltfilt(butter(...), padtype="even")`` bit for bit, so the
package never imports scipy's signal module, which loads most of scipy
with it. Price curves are piecewise linear in time and read
onto the simulation grid once, when the scenario is built.
"""

from __future__ import annotations

import hashlib
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .network import check_finite, control_volumes, read_csv, write_csv
from .objective import ConstraintSet, PriceModel
from .thermal import (PhysicalConstants, TimeGrid, assemble, condense,
                      demand_to_delta)

#: Default cutoff of the demand low-pass: one cycle per ~4 h.
DEFAULT_CUTOFF_HZ = 69.4e-6
#: Default Fourier noise band: periods between 2 h and 24 h.
DEFAULT_NOISE_BAND_HZ = (1.0 / (24 * 3600.0), 1.0 / (2 * 3600.0))
DEFAULT_NOISE_SIGMA = 0.2
#: Default smoothness weight, in working objective units per (°C/s)^2.
#: Calibrated on the bundled desk fixture: damps step-to-step control
#: jitter while contributing well under 1 % of the baseline loss.
DEFAULT_TIKHONOV_WEIGHT = 300.0

_MIN_FILTER_SAMPLES = 8
_ABS_ZERO_C = -273.15
#: Bytes of one block of varied series. Blocks this small are heap
#: allocations, as one series alone is; a single (consumers, samples)
#: block on the feeder is mapped and unmapped, which lifts the
#: allocator's mmap threshold, and the feeder-sweep benchmark's peak
#: resident memory read about 1.5 MB higher with it (BENCH_29.json).
_VARIATION_BLOCK_BYTES = 1 << 16


def interpolate(t, knot_times, knot_values, what):
    """``np.interp`` at ``t``, once the knots named ``what`` are checked
    to cover ``t`` within 1e-9 s."""
    t = np.asarray(t, dtype=float)
    lo, hi = knot_times[0], knot_times[-1]
    if t.min() < lo - 1e-9 or t.max() > hi + 1e-9:
        raise ValidationError(f"{what} covers [{lo}, {hi}] s; "
                              f"[{t.min()}, {t.max()}] s is not covered")
    return np.interp(t, knot_times, knot_values)


@dataclass(frozen=True)
class LoadSeries:
    """Uniformly sampled power series, watts."""

    values_w: np.ndarray
    dt_s: float
    start_s: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values_w, dtype=float)
        object.__setattr__(self, "values_w", v)
        if v.ndim != 1 or v.size < _MIN_FILTER_SAMPLES:
            raise ValidationError(
                f"load series needs >= {_MIN_FILTER_SAMPLES} samples, got {v.size}"
            )
        if not np.isfinite(v).all():
            raise ValidationError("load series contains non-finite values")
        if (v < 0).any():
            raise ValidationError("load series contains negative power")
        if not self.dt_s > 0:
            raise ValidationError("sample interval must be > 0")

    def times(self):
        return self.start_s + np.arange(self.values_w.size) * self.dt_s

    def mean(self):
        return float(self.values_w.mean())


@dataclass(frozen=True)
class PriceSeries:
    """Price curve knots in time, EUR/MWh, linearly interpolated between.

    The knots are finite, matching and 1-d, at least two, and strictly
    increasing in time. This is the only holder of a price curve; a
    scenario reads it onto its grid once with :meth:`on_grid`.
    """

    times_s: np.ndarray
    prices_eur_mwh: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times_s, dtype=float)
        p = np.asarray(self.prices_eur_mwh, dtype=float)
        if t.ndim != 1 or t.shape != p.shape or t.size < 2:
            raise ValidationError("price curve needs matching 1-d knots")
        if np.any(np.diff(t) <= 0):
            raise ValidationError("price knots must be strictly increasing")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(p))):
            raise ValidationError("price curve contains non-finite values")
        object.__setattr__(self, "times_s", t)
        object.__setattr__(self, "prices_eur_mwh", p)

    def on_grid(self, grid):
        """Prices at the solved steps 1..n of ``grid``, EUR/MWh.

        The curve must cover the whole grid from t = 0, the initial
        state included, although step 0 is not priced.
        """
        return interpolate(grid.times(), self.times_s, self.prices_eur_mwh,
                           "price curve")[1:]


# ---------------------------------------------------------------------------
# signal operations
# ---------------------------------------------------------------------------

def lowpass(series, cutoff_hz, order=4):
    """Zero-phase Butterworth low-pass of a load series.

    The filter is applied forward and backward (no phase shift, squared
    magnitude response) with reflective edge padding of one settling
    length, roughly a cutoff period. Negative excursions from ringing
    are clamped to zero. The result equals scipy's
    ``sosfiltfilt(butter(order, cutoff_hz, fs=fs, output="sos"), x,
    padtype="even", padlen=padlen)`` bit for bit. ``order`` is an
    integer of at least 1.
    """
    if not isinstance(order, numbers.Integral) or order < 1:
        raise ValidationError(
            f"filter order must be an integer >= 1, got {order!r}")
    fs = 1.0 / series.dt_s
    if not 0 < cutoff_hz < 0.5 * fs:
        raise ValidationError(
            f"cutoff {cutoff_hz} Hz must lie in (0, Nyquist={0.5 * fs} Hz)"
        )
    padlen = int(np.ceil(1.0 / (cutoff_hz * series.dt_s)))
    if padlen >= series.values_w.size:
        raise ValidationError(
            f"series too short for edge padding: need > {padlen} samples, "
            f"got {series.values_w.size}"
        )
    sos = _butter_sos(int(order), cutoff_hz / (fs / 2))
    filtered = _sosfiltfilt(sos, series.values_w, padlen)
    return LoadSeries(values_w=np.maximum(filtered, 0.0),
                      dt_s=series.dt_s, start_s=series.start_s)


def _butter_sos(order, wn):
    """Second-order sections ``[b0, b1, b2, 1, a1, a2]`` of a digital
    Butterworth low-pass with cutoff ``wn`` (a fraction of Nyquist), as
    scipy's ``butter(order, wn, output="sos")`` makes them.

    The analog prototype's poles, scaled by the prewarped cutoff, are
    mapped by the bilinear transform ``(4 + s) / (4 - s)``; every zero
    sits at -1. Section 0 holds the gain and the poles farthest from the
    unit circle, the last section the nearest. An odd order's real pole
    comes first, paired with a pole at 0, and the section nearest the
    unit circle whose pole lies nearer 0 than -1 takes the matching
    zero at 0, ``[1, 1, 0]``, as ``zpk2sos`` pairs them.
    """
    m = np.arange(1 - order, order, 2, dtype=float)
    wo = float(4.0 * np.tan(np.pi * wn / 2.0))
    s = wo * -np.exp(1j * np.pi * m / (2 * order))
    gain = wo ** order * np.real(1.0 / np.prod(4.0 - s))
    z = (4.0 + s) / (4.0 - s)
    upper = z[z.imag > 0]
    upper = upper[np.argsort(-np.abs(1 - np.abs(upper)), kind="stable")]
    poles = [[p, p.conjugate()] for p in upper]
    numerators = [[1.0, 2.0, 1.0]] * ((order + 1) // 2)
    if order % 2:
        poles.insert(0, [z[order // 2].real, 0.0])
        nearer_zero = [k for k, (p, _) in enumerate(poles)
                       if np.abs(p) < np.abs(p + 1.0)]
        numerators[max(nearer_zero, default=0)] = [1.0, 1.0, 0.0]
    sos = np.array([b + np.poly(p).real.tolist()
                    for b, p in zip(numerators, poles)])
    sos[0, :3] *= gain
    return sos


def _sosfilt_zi(sos):
    """Each section's state for a unit step input in steady state, as
    scipy's ``sosfilt_zi`` solves for it."""
    zi = np.empty((sos.shape[0], 2))
    scale = 1.0
    for k, (b, a) in enumerate(zip(sos[:, :3], sos[:, 3:])):
        i_minus_a = np.array([[1.0 + a[1], -1.0], [a[2], 1.0]])
        zi[k] = scale * np.linalg.solve(i_minus_a, b[1:] - a[1:] * b[0])
        scale *= np.sum(b) / np.sum(a)
    return zi


def _sosfilt(sos, x, zi):
    """``x`` (a list) through the sections ``sos`` (a list of rows) from
    the states ``zi``: transposed direct form II, in scipy's order of
    operations, one section after another over the whole signal."""
    for (b0, b1, b2, _, a1, a2), (z0, z1) in zip(sos, zi):
        y = []
        for xn in x:
            yn = b0 * xn + z0
            z0 = b1 * xn - a1 * yn + z1
            z1 = b2 * xn - a2 * yn
            y.append(yn)
        x = y
    return x


def _sosfiltfilt(sos, x, padlen):
    """Forward-backward pass of ``sos`` over ``x`` evenly extended by
    ``padlen`` samples each side, each pass started in the steady state
    of its first input sample."""
    ext = np.concatenate((x[padlen:0:-1], x, x[-2:-(padlen + 2):-1]))
    zi = _sosfilt_zi(sos)
    rows = sos.tolist()
    y = _sosfilt(rows, ext.tolist(), (zi * ext[0]).tolist())
    y = _sosfilt(rows, y[::-1], (zi * y[-1]).tolist())
    return np.array(y[padlen:-padlen][::-1])


def _consumer_rng(master_seed, key):
    """Independent RNG stream derived from (master seed, consumer key)."""
    digest = hashlib.sha256(str(key).encode("utf-8")).digest()
    salt = int.from_bytes(digest[:8], "big")
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), salt]))


def synthesize_variations(base, n, band_hz=DEFAULT_NOISE_BAND_HZ,
                          sigma=DEFAULT_NOISE_SIGMA, seed=0,
                          target_means=None, keys=None):
    """Create ``n`` demand variations of a base profile.

    Every variation multiplies the Fourier bins of the base inside the
    band by independent positive factors ``exp(N(0, sigma^2))``; the DC
    bin is untouched, so the pre-clamp mean equals the rescaling target
    exactly. Negative samples are clamped to zero and the series is
    rescaled to its target mean (default: equal shares of the base
    mean). Stream ``i`` is derived from ``(seed, keys[i])`` so the
    output is reproducible and independent of evaluation order.

    Only the draws are per consumer, each from its own stream. The
    rest is whole-array passes over a block of rows at a time (the band
    scaling, one inverse FFT, the rescale, clamp and rescale), each row
    the same arithmetic as a series made alone; a block holds 64 KiB of
    series, 28 consumers on a three-day base at 15 min (289 samples).

    ``sigma`` is finite and >= 0; an explicit target mean is finite and
    >= 0, and the first one that is not is named by its key.
    """
    if n < 1:
        raise ValidationError("need at least one variation")
    if not (np.isfinite(sigma) and sigma >= 0):
        raise ValidationError(f"noise sigma must be finite and >= 0, "
                              f"got {sigma!r}")
    values = base.values_w
    nyquist = 0.5 / base.dt_s
    lo, hi = float(band_hz[0]), float(band_hz[1])
    if not (0.0 < lo < hi <= nyquist):
        raise ValidationError(
            f"noise band ({lo}, {hi}) Hz must lie within (0, {nyquist}] Hz"
        )
    freqs = np.fft.rfftfreq(values.size, d=base.dt_s)
    # the bin frequencies increase, so the band is one run of bins
    in_band = np.flatnonzero((freqs >= lo) & (freqs <= hi))
    if not in_band.size:
        raise ValidationError("noise band contains no Fourier bins")
    band = slice(in_band[0], in_band[-1] + 1)
    if keys is None:
        keys = [str(i) for i in range(n)]
    if len(keys) != n:
        raise ValidationError(f"need {n} keys")
    if target_means is None:
        target_means = np.full(n, base.mean() / n)
    else:
        target_means = np.asarray(target_means, dtype=float)
        if target_means.shape != (n,):
            raise ValidationError(f"need {n} target means")
        bad = np.flatnonzero(~(np.isfinite(target_means)
                               & (target_means >= 0)))
        if bad.size:
            raise ValidationError(
                f"consumer {keys[bad[0]]!r}: target mean "
                f"{target_means[bad[0]]} W must be finite and >= 0")

    spectrum = np.fft.rfft(values)
    rows = max(1, _VARIATION_BLOCK_BYTES // values.nbytes)
    varied = []
    for first in range(0, n, rows):
        varied += _vary_block(spectrum, band, values.size, sigma, seed,
                              keys[first:first + rows],
                              target_means[first:first + rows])
    return [LoadSeries(values_w=row, dt_s=base.dt_s, start_s=base.start_s)
            for row in varied]


def _vary_block(spectrum, band, size, sigma, seed, keys, target_means):
    """The varied series of ``keys``, one row each: each key's draws
    from its own stream, then every step one pass over all rows."""
    n = len(keys)
    factors = np.empty((n, band.stop - band.start))
    for row, key in zip(factors, keys):
        row[:] = _consumer_rng(seed, key).normal(0.0, sigma, size=row.size)
    spec = np.empty((n, spectrum.size), dtype=complex)
    spec[:] = spectrum
    spec[:, band] *= np.exp(factors, out=factors)
    varied = np.fft.irfft(spec, n=size, axis=1)
    means = varied.mean(axis=1)
    flat = np.flatnonzero(means <= 0)
    if flat.size:
        raise ValidationError(f"consumer {keys[flat[0]]!r}: varied profile "
                              f"has non-positive mean")
    varied *= (target_means / means)[:, None]
    np.maximum(varied, 0.0, out=varied)
    means = varied.mean(axis=1)
    # a zero target leaves a zero row, kept as it is
    varied *= np.divide(target_means, means, out=np.ones(n),
                        where=means > 0)[:, None]
    return list(varied)


def synthesize_demand_set(graph, base, *, seed, sigma, mean_w_per_consumer,
                          cutoff_hz=DEFAULT_CUTOFF_HZ, order=4,
                          band_hz=DEFAULT_NOISE_BAND_HZ):
    """One demand series per consumer edge of ``graph``: a dict from
    consumer edge id to :class:`LoadSeries`, in edge order.

    ``base`` is low-passed (:func:`lowpass`) and varied per consumer
    (:func:`synthesize_variations`), the stream of each keyed by its
    edge id. Each series has mean ``mean_w_per_consumer``, or, if that
    is ``None``, an equal share of the base mean.
    """
    consumer_ids = [graph.edge_ids[e] for e in graph.consumer_edges]
    n = len(consumer_ids)
    targets = (None if mean_w_per_consumer is None
               else np.full(n, mean_w_per_consumer))
    series = synthesize_variations(lowpass(base, cutoff_hz, order=order), n,
                                   band_hz=band_hz, sigma=sigma, seed=seed,
                                   target_means=targets, keys=consumer_ids)
    return dict(zip(consumer_ids, series))


# ---------------------------------------------------------------------------
# scenario assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Scenario:
    """Complete immutable optimization scenario.

    Bundles the network, the edge mass flows (the array of
    :func:`~dhnopt.network.check_flow`), time grid, boundary data
    (consumer temperature drops, ambient), price model, constraint set
    and the control's initial value. ``system`` lazily assembles and
    caches the sparse operators, ``condensed`` the control-to-output map
    built from them. :func:`build_scenario` stores ``deltas``, ``ambient`` and
    ``u_init`` as read-only copies, so the cached map cannot go stale.
    """

    graph: object
    flow: np.ndarray
    volumes: np.ndarray
    constants: PhysicalConstants
    grid: TimeGrid
    deltas: np.ndarray
    ambient: np.ndarray
    price: PriceModel
    constraints: ConstraintSet
    tikhonov_weight: float
    u_init: np.ndarray

    @cached_property
    def system(self):
        return assemble(self.graph, self.flow, self.volumes, self.constants,
                        self.grid.dt_s)

    @cached_property
    def condensed(self):
        """:class:`~dhnopt.thermal.CondensedMap` of the plant return and
        consumer supply nodes."""
        return condense(self.system, self.deltas, self.ambient, self.u_init)

    @cached_property
    def supply_bound(self):
        """Consumer supply bound ``max(smin, rmin + delta)`` per solved
        step: a return node sits ``delta`` below its supply node."""
        c = self.constraints
        return _read_only(np.maximum(c.consumer_supply_min_c,
                                     c.consumer_return_min_c
                                     + self.deltas[:, 1:]))


def build_scenario(graph, flow, demands, prices, constraints, grid, constants,
                   *, alpha=1.0, beta=0.0, tikhonov_weight=DEFAULT_TIKHONOV_WEIGHT,
                   initial_control_c=110.0):
    """Assemble a scenario from validated pieces.

    ``flow`` is the edge mass flow array of
    :func:`~dhnopt.network.check_flow`, ``demands`` a dict from consumer
    edge id to :class:`LoadSeries` with an entry for every consumer
    (entries for other ids are not read). Demand powers are converted
    to consumer temperature drops with each consumer's mass flow. The
    run is dynamic exactly when ``prices``, a :class:`PriceSeries`, is
    given: its curve is read onto the grid here, once, and the
    scenario's :class:`~dhnopt.objective.PriceModel` holds the step
    prices. ``prices=None`` selects the static model (every step
    weighted 1, ``alpha`` and ``beta`` unread). The initial control
    defines the steady state the horizon starts from.
    """
    bc = graph.boundary
    if tikhonov_weight < 0:
        raise ValidationError("tikhonov weight must be >= 0")

    consumer_ids = [graph.edge_ids[e] for e in bc.consumer_edges]
    times = grid.times()
    demands_w = np.empty((len(consumer_ids), times.size))
    for i, cid in enumerate(consumer_ids):
        series = demands.get(cid)
        if series is None:
            raise ValidationError(f"no demand series for consumer {cid!r}")
        demands_w[i] = interpolate(times, series.times(), series.values_w,
                                   "load series")

    mdot_c = np.abs(flow[bc.consumer_edges])
    deltas = demand_to_delta(demands_w, mdot_c[:, None],
                             constants.cp_j_per_kg_c)
    max_drop = constraints.plant_max_c - _ABS_ZERO_C
    bad = np.flatnonzero(np.max(deltas, axis=1) > max_drop)
    if bad.size:
        raise ValidationError(
            f"consumer {consumer_ids[bad[0]]!r}: temperature drop "
            f"{deltas[bad[0]].max():.1f} °C would push the return below "
            f"absolute zero"
        )

    price = PriceModel(alpha=alpha, beta=beta, step_prices=(
        None if prices is None else _read_only(prices.on_grid(grid))))

    u_init = np.asarray(initial_control_c, dtype=float)
    if u_init.ndim == 0:
        u_init = np.full(bc.n_plants, float(u_init))
    if u_init.shape != (bc.n_plants,):
        raise ValidationError(
            f"initial control needs {bc.n_plants} plant values, got {u_init.shape}"
        )

    return Scenario(
        graph=graph,
        flow=flow,
        volumes=control_volumes(graph),
        constants=constants,
        grid=grid,
        deltas=_read_only(deltas),
        ambient=_read_only(constants.ambient_series(grid.n_steps)),
        price=price,
        constraints=constraints,
        tikhonov_weight=float(tikhonov_weight),
        u_init=_read_only(u_init),
    )


def _read_only(values):
    """Private float copy that raises on any later write."""
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

_LOAD_HEADER = ["time_s", "power_w"]
_PRICE_HEADER = ["time_s", "price_eur_mwh"]
_DEMAND_HEADER = ["time_s", "consumer_edge_id", "power_w"]


def _uniform_series(whos, times, powers, sizes):
    """One :class:`LoadSeries` per part of the samples: part ``k`` is the
    next ``sizes[k]`` samples, and their spacing must be uniform. Only a
    lone part may be empty.

    ``whos[k]`` starts each message about part ``k``: the file, or the
    file and consumer. The rules apply part by part, in order, so the
    first part that breaks one is named, with the first rule it breaks.
    """
    starts = np.cumsum(sizes) - sizes
    steps = np.diff(times)
    first = np.zeros(sizes.size)
    first[sizes >= 2] = steps[starts[sizes >= 2]]
    # step i, from sample i to i + 1, against the first step of the part
    # of sample i + 1; in place, as the steps of a long file take space
    ref = np.repeat(first, sizes)[1:]
    deviation = np.abs(np.subtract(steps, ref, out=steps), out=steps)
    uneven = deviation > np.multiply(np.abs(ref, out=ref), 1e-6, out=ref)
    uneven[starts[1:] - 1] = False  # the step into the next part
    bad = sizes < 2
    bad[np.searchsorted(starts, np.flatnonzero(uneven), side="right") - 1] = True
    stop = np.argmax(bad) if bad.any() else sizes.size
    series = []
    for k in range(stop):
        try:
            series.append(LoadSeries(
                values_w=powers[starts[k]:starts[k] + sizes[k]],
                dt_s=float(first[k]), start_s=float(times[starts[k]])))
        except ValidationError as exc:
            raise ValidationError(f"{whos[k]}: {exc}") from None
    if stop < sizes.size:
        raise ValidationError(f"{whos[stop]} needs at least two samples"
                              if sizes[stop] < 2 else
                              f"{whos[stop]} spacing not uniform")
    return series


def read_load_series(path):
    """Read a base load CSV (`time_s,power_w`); spacing must be uniform."""
    lines, cols = read_csv(path, _LOAD_HEADER, _LOAD_HEADER)
    check_finite(path, lines, cols, ("time_s",))
    return _uniform_series([path], cols["time_s"], cols["power_w"],
                           np.array([cols["time_s"].size]))[0]


def write_load_series(series, path):
    write_csv(path, {"time_s": series.times(), "power_w": series.values_w})


def read_price_series(path):
    """Read a price CSV (`time_s,price_eur_mwh`); knots must increase."""
    lines, cols = read_csv(path, _PRICE_HEADER, _PRICE_HEADER)
    check_finite(path, lines, cols, _PRICE_HEADER)
    try:
        return PriceSeries(times_s=cols["time_s"],
                           prices_eur_mwh=cols["price_eur_mwh"])
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def write_price_series(series, path):
    write_csv(path, {"time_s": series.times_s,
                     "price_eur_mwh": series.prices_eur_mwh})


def read_demand_set(path):
    """Read a per-consumer demand CSV in long format.

    Returns a dict from consumer edge id to :class:`LoadSeries`. Rows
    may come in any order. Consumers keep the order in which they first
    appear; each consumer's rows are sorted by time, stably, and
    checked by :func:`_uniform_series`, so the first consumer in that
    order whose samples it rejects is named.
    """
    lines, cols = read_csv(path, _DEMAND_HEADER, ("time_s", "power_w"))
    ids = cols["consumer_edge_id"]
    check_finite(path, lines, cols, ("time_s",), ids)
    code = {cid: k for k, cid in enumerate(dict.fromkeys(ids))}
    key = np.fromiter(map(code.__getitem__, ids), np.int64, len(ids))
    order = np.lexsort((cols["time_s"], key))
    sizes = np.bincount(key, minlength=len(code))
    times, powers = cols["time_s"][order], cols["power_w"][order]
    del key, order  # before the checks, which take space per sample
    series = _uniform_series([f"{path}: consumer {cid!r}" for cid in code],
                             times, powers, sizes)
    return dict(zip(code, series))


def write_demand_set(demands, path):
    """Write a consumer-to-series dict in the long format
    :func:`read_demand_set` reads, one consumer after another."""
    series = demands.values()
    write_csv(path, {
        "time_s": np.concatenate([np.empty(0)] + [s.times() for s in series]),
        "consumer_edge_id": [cid for cid, s in demands.items()
                             for _ in range(s.values_w.size)],
        "power_w": np.concatenate([np.empty(0)] + [s.values_w for s in series]),
    })
