"""Shortest intervals, quantile-level conversion, and exact-interval oracles."""

import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import modalband
from modalband import intervals
from modalband.intervals import (
    _MIN_EXPONENT,
    ModalInterval,
    QuantileLevelSet,
    _capped_source,
    _shortest_indices,
    _shortest_rows,
    _windows,
    estimate_intervals_at,
    estimate_levels_all,
    mi_quantile_levels,
    shortest_interval,
    true_mi_lognormal,
    true_mi_normal,
)
from modalband.kde import (
    RELATIVE_FLOOR,
    WEIGHT_FLOOR,
    Dataset,
    WeightedECDF,
    conditional_cdf,
    gaussian_kernel,
    select_bandwidth,
)
from modalband.simulate import gen_dist1

Z75 = 0.6744897501960817  # standard normal quantile at 0.75


def brute_force_interval(ecdf, alpha):
    """All-pairs scan: minimal width, ties to the smallest left endpoint."""
    values, cum, pw = ecdf.values, ecdf.cum, ecdf.point_weight
    m = values.size
    mass = cum[None, :] - (cum - pw)[:, None]     # closed-interval mass [i, j]
    feasible = (mass >= alpha) & (np.arange(m)[None, :] >= np.arange(m)[:, None])
    feasible &= (pw > 0.0)[:, None]               # zero-mass atoms are no endpoints
    if not feasible.any():
        return None
    width = np.where(feasible, values[None, :] - values[:, None], np.inf)
    best = width.min()
    i, j = min(zip(*np.nonzero(width == best)))   # smallest i among minimal widths
    return float(values[i]), float(values[j])


def random_ecdf(rng):
    m = int(rng.integers(1, 51))
    if rng.random() < 0.3:
        values = np.round(rng.normal(size=m), 1)  # force duplicate merging
    else:
        values = rng.normal(size=m)
    weights = rng.exponential(size=m)
    weights[rng.random(m) < 0.15] = 0.0
    if weights.sum() == 0.0:
        weights[0] = 1.0
    return WeightedECDF.from_samples(values, weights)


# ---------------------------------------------------------------------------
# shortest_interval
# ---------------------------------------------------------------------------

def test_shortest_interval_equal_weights():
    ecdf = WeightedECDF.from_samples([1.0, 2.0, 4.0, 10.0], np.ones(4))
    mi = shortest_interval(ecdf, 0.5)
    assert (mi.low, mi.up) == (1.0, 2.0)


def test_shortest_interval_tie_breaks_leftmost():
    ecdf = WeightedECDF.from_samples([1.0, 2.0, 3.0, 10.0], np.ones(4))
    mi = shortest_interval(ecdf, 0.5)
    assert (mi.low, mi.up) == (1.0, 2.0)  # [2, 3] has equal width


def test_shortest_interval_full_coverage():
    rng = np.random.default_rng(2)
    for _ in range(50):
        m = int(rng.integers(2, 40))
        ecdf = WeightedECDF.from_samples(rng.normal(size=m), rng.uniform(0.1, 1, m))
        alpha = 1.0 - 0.5 * ecdf.point_weight.min()
        mi = shortest_interval(ecdf, alpha)
        assert mi.low == ecdf.values[0]
        assert mi.up == ecdf.values[-1]


def test_shortest_interval_zero_width_on_heavy_atom():
    ecdf = WeightedECDF.from_samples([1.0, 2.0, 3.0], [0.2, 0.6, 0.2])
    mi = shortest_interval(ecdf, 0.5)
    assert (mi.low, mi.up) == (2.0, 2.0)
    assert mi.width == 0.0


def test_shortest_interval_matches_brute_force():
    rng = np.random.default_rng(99)
    for _ in range(10_000):
        ecdf = random_ecdf(rng)
        alpha = float(rng.uniform(0.02, 0.98))
        expected = brute_force_interval(ecdf, alpha)
        if expected is None:
            continue
        mi = shortest_interval(ecdf, alpha)
        assert (mi.low, mi.up) == expected


def test_shortest_interval_mass_reaches_alpha():
    rng = np.random.default_rng(4)
    for _ in range(300):
        ecdf = random_ecdf(rng)
        alpha = float(rng.uniform(0.05, 0.95))
        mi = shortest_interval(ecdf, alpha)
        inside = (ecdf.values >= mi.low) & (ecdf.values <= mi.up)
        assert ecdf.point_weight[inside].sum() >= alpha - 1e-12


def test_shortest_interval_never_wider_than_equal_tailed():
    rng = np.random.default_rng(6)
    for _ in range(300):
        ecdf = random_ecdf(rng)
        alpha = float(rng.uniform(0.05, 0.9))
        mi = shortest_interval(ecdf, alpha)
        lo_idx = int(np.searchsorted(ecdf.cum, (1.0 - alpha) / 2.0))
        up_idx = int(np.searchsorted(ecdf.cum, (1.0 + alpha) / 2.0))
        up_idx = min(up_idx, ecdf.values.size - 1)
        assert mi.width <= ecdf.values[up_idx] - ecdf.values[lo_idx] + 1e-12


def test_shortest_interval_ignores_zero_mass_atoms():
    # integer weights put interval masses on decimal alphas, where rounding
    # decides; atoms of zero mass anywhere must change neither the interval
    # nor its levels, since the level scan leaves such atoms out
    rng = np.random.default_rng(14)
    for _ in range(2000):
        m = int(rng.integers(2, 12))
        values = np.cumsum(rng.uniform(0.5, 1.5, m))
        weights = rng.integers(0, 6, m).astype(float)
        weights[0] += 1.0
        alpha = float(rng.integers(1, 10)) / 10
        full = WeightedECDF.from_samples(values, weights)
        kept = WeightedECDF.from_samples(values[weights > 0], weights[weights > 0])
        a, b = shortest_interval(kept, alpha), shortest_interval(full, alpha)
        assert (a.low, a.up) == (b.low, b.up)
        assert mi_quantile_levels(kept, a) == mi_quantile_levels(full, b)


def test_shortest_interval_rejects_bad_alpha():
    ecdf = WeightedECDF.from_samples([1.0, 2.0], np.ones(2))
    for alpha in (0.0, 1.0, -0.3, 1.5):
        with pytest.raises(ValueError, match="coverage level"):
            shortest_interval(ecdf, alpha)


# ---------------------------------------------------------------------------
# mi_quantile_levels
# ---------------------------------------------------------------------------

def test_levels_equal_weight_example():
    ecdf = WeightedECDF.from_samples([1.0, 2.0, 4.0, 10.0], np.ones(4))
    p_low, p_up = mi_quantile_levels(ecdf, ModalInterval(1.0, 2.0, 0.5))
    assert p_low == 0.125  # clamp: half the smallest point weight
    assert p_up == 0.5


def test_levels_full_interval_hits_clamps():
    ecdf = WeightedECDF.from_samples([1.0, 2.0, 4.0, 10.0], np.ones(4))
    p_low, p_up = mi_quantile_levels(ecdf, ModalInterval(1.0, 10.0, 0.99))
    assert p_low == 0.125
    assert p_up == 0.875


def test_levels_symmetric_central_interval():
    ecdf = WeightedECDF.from_samples([1.0, 2.0, 3.0, 4.0], np.ones(4))
    p_low, p_up = mi_quantile_levels(ecdf, ModalInterval(2.0, 3.0, 0.5))
    assert abs(p_low + p_up - 1.0) < 1e-12


def test_levels_difference_equals_closed_mass():
    rng = np.random.default_rng(8)
    for _ in range(200):
        m = int(rng.integers(2, 30))
        ecdf = WeightedECDF.from_samples(rng.normal(size=m), rng.uniform(0.1, 1, m))
        alpha = float(rng.uniform(0.1, 0.8))
        mi = shortest_interval(ecdf, alpha)
        p_low, p_up = mi_quantile_levels(ecdf, mi)
        inside = (ecdf.values >= mi.low) & (ecdf.values <= mi.up)
        mass = ecdf.point_weight[inside].sum()
        # equality holds unless a clamp bound was the tighter constraint
        i = int(np.searchsorted(ecdf.values, mi.low))
        j = int(np.searchsorted(ecdf.values, mi.up))
        eps = 0.5 * ecdf.point_weight[ecdf.point_weight > 0].min()
        if ecdf.cum[i] - ecdf.point_weight[i] >= eps and ecdf.cum[j] <= 1.0 - eps:
            assert abs((p_up - p_low) - mass) < 1e-12


def test_levels_round_trip_to_endpoints():
    rng = np.random.default_rng(10)
    for _ in range(200):
        m = int(rng.integers(4, 30))
        ecdf = WeightedECDF.from_samples(rng.normal(size=m), rng.uniform(0.1, 1, m))
        mi = shortest_interval(ecdf, 0.5)
        p_low, p_up = mi_quantile_levels(ecdf, mi)
        i = int(np.searchsorted(ecdf.values, mi.low))
        j = int(np.searchsorted(ecdf.values, mi.up))
        eps = 0.5 * ecdf.point_weight.min()
        if ecdf.cum[i] - ecdf.point_weight[i] < eps or ecdf.cum[j] > 1.0 - eps:
            continue  # clamped level no longer inverts exactly
        assert ecdf.values[np.searchsorted(ecdf.cum, p_up, side="left")] == mi.up
        # p_low sits on the cumulative weight just below the interval up to
        # rounding, so query a hair above it to land on the low endpoint
        k = int(np.searchsorted(ecdf.cum, p_low + 1e-9, side="left"))
        assert ecdf.values[k] == mi.low


def test_levels_stay_interior_with_underflowed_tail_weight():
    # a far-tail atom can carry a kernel weight below machine epsilon; the
    # clamp must still land strictly inside (0, 1) in float64
    ecdf = WeightedECDF.from_samples([0.0, 1.0, 1.5, 2.0], [0.2, 0.3, 1e-20, 0.5])
    mi = shortest_interval(ecdf, 0.5)
    assert (mi.low, mi.up) == (2.0, 2.0)
    p_low, p_up = mi_quantile_levels(ecdf, mi)
    assert 0.0 < p_low < p_up < 1.0


def test_levels_of_a_lone_atom_stay_interior():
    # the relative weight floor can leave an isolated observation alone in
    # its conditional distribution; it gets the levels it gets when its
    # neighbours carry weights under machine epsilon
    eps = np.finfo(float).eps
    for weights in ([1.0, 0.0], [1.0, 1e-30]):
        ecdf = WeightedECDF.from_samples([2.0, 5.0], weights)
        mi = shortest_interval(ecdf, 0.5)
        assert (mi.low, mi.up) == (2.0, 2.0)
        assert mi_quantile_levels(ecdf, mi) == (eps, 1.0 - eps)


def test_levels_reject_foreign_endpoints():
    ecdf = WeightedECDF.from_samples([1.0, 2.0, 3.0], np.ones(3))
    with pytest.raises(ValueError, match="not a support point"):
        mi_quantile_levels(ecdf, ModalInterval(1.5, 3.0, 0.5))
    with pytest.raises(ValueError, match="not a support point"):
        mi_quantile_levels(ecdf, ModalInterval(1.0, 3.5, 0.5))


def test_level_set_validation():
    QuantileLevelSet(np.array([0.2, 0.3]), np.array([0.7, 0.8]))
    with pytest.raises(ValueError, match="p_low < p_up"):
        QuantileLevelSet(np.array([0.8]), np.array([0.3]))
    with pytest.raises(ValueError, match="p_low < p_up"):
        QuantileLevelSet(np.array([0.0]), np.array([0.5]))
    with pytest.raises(ValueError, match="equal length"):
        QuantileLevelSet(np.array([0.2, 0.3]), np.array([0.7]))


# ---------------------------------------------------------------------------
# estimate_levels_all / estimate_intervals_at
# ---------------------------------------------------------------------------

def test_estimate_levels_below_cap_uses_all_points():
    # up to 1000 observations the source is the data, whatever the seed
    for n in (200, 1000):
        data = gen_dist1(n, 1)
        h = select_bandwidth(data.x)
        assert _capped_source(data, h, 5) is data
        a = estimate_levels_all(data, 0.5, h, rng=0)
        b = estimate_levels_all(data, 0.5, h, rng=5)
        assert np.array_equal(a.p_low, b.p_low)
        assert np.array_equal(a.p_up, b.p_up)


def test_estimate_levels_capped_is_deterministic():
    data = gen_dist1(1200, 2)
    h = select_bandwidth(data.x)
    a = estimate_levels_all(data, 0.5, h, rng=5)
    b = estimate_levels_all(data, 0.5, h, rng=5)
    assert np.array_equal(a.p_low, b.p_low)
    assert np.array_equal(a.p_up, b.p_up)
    assert len(a) == 1200


def lognormal_covariate(n, seed):
    """x ~ lognormal(0, 2): its right tail is sparse enough that a
    1000-point subsample leaves observations without kernel support."""
    rng = np.random.default_rng(seed)
    x = rng.lognormal(0.0, 2.0, n)
    return Dataset(x, np.sin(np.log(x)) + rng.normal(0.0, 0.3, n))


def far_outlier(n, seed, gap, h):
    """gen_dist1(n, seed) with one more observation ``gap`` past the
    largest x, put at the first index the 1000-point subsample draw of
    seed 0 leaves out."""
    base = gen_dist1(n, seed)
    drawn = np.random.default_rng(0).choice(n + 1, size=1000, replace=False)
    k = int(np.setdiff1d(np.arange(n + 1), drawn)[0])
    return Dataset(np.insert(base.x, k, base.x.max() + gap * h), np.insert(base.y, k, 0.0))


def source_by_definition(data, h, rng):
    """The seeded 1000-point subsample plus every observation that gets no
    weight at or above WEIGHT_FLOOR from it, by the kernel at every pair;
    returns (source, indices of the subsample, indices added)."""
    drawn = np.sort(np.random.default_rng(rng).choice(len(data), size=1000, replace=False))
    best = np.array([gaussian_kernel((data.x[drawn] - x0) / h).max() for x0 in data.x])
    added = np.flatnonzero(best < WEIGHT_FLOOR)
    keep = np.sort(np.concatenate([drawn, added]))
    return Dataset(data.x[keep], data.y[keep]), drawn, added


@pytest.mark.parametrize("name", ["lognormal-2000-3", "lognormal-2000-4", "lognormal-2000-5",
                                  "lognormal-5000-3", "outlier-40h", "outlier-30h"])
def test_capped_source_is_the_subsample_plus_what_it_leaves_unsupported(name):
    if name.startswith("lognormal"):
        _, n, seed = name.split("-")
        data = lognormal_covariate(int(n), int(seed))
        h = select_bandwidth(data.x)
    else:
        h = 0.5
        data = far_outlier(1500, 10, float(name[len("outlier-"):-1]), h)
    source = _capped_source(data, h, 0)
    expected, drawn, added = source_by_definition(data, h, 0)
    assert np.array_equal(source.x, expected.x)
    assert np.array_equal(source.y, expected.y)
    # every observation takes a nonzero weight from some source point
    best = np.array([gaussian_kernel((source.x - x0) / h).max() for x0 in data.x])
    assert np.all(best >= WEIGHT_FLOOR)
    if name == "outlier-40h":  # exp(-800) underflows: the outlier is added back
        assert added.size == 1 and data.x[added[0]] == data.x.max()
    elif name == "outlier-30h":  # exp(-450) / sqrt(2 pi) is above the floor
        assert added.size == 0
    else:
        assert added.size > 0


def test_capped_source_is_the_plain_subsample_on_the_uniform_benchmark_draws():
    # the two n = 10 000 draws of the fit benchmark, fitted with seed 0
    for k in range(2):
        rng = np.random.default_rng(np.random.SeedSequence([0, 1, k, 0]))
        x = rng.uniform(0.0, 10.0, 10_000)
        data = Dataset(x, np.zeros_like(x))
        source = _capped_source(data, select_bandwidth(x), 0)
        drawn = np.sort(np.random.default_rng(0).choice(x.size, size=1000, replace=False))
        assert np.array_equal(source.x, x[drawn])


def test_estimate_levels_mean_mass_near_target():
    data = gen_dist1(400, 3)
    h = select_bandwidth(data.x)
    levels = estimate_levels_all(data, 0.5, h)
    mean_mass = float(np.mean(levels.p_up - levels.p_low))
    assert 0.5 <= mean_mass <= 0.6


def test_estimate_levels_take_an_isolated_observation():
    # an observation 40h from the rest is alone in its conditional
    # distribution; its levels take the machine-epsilon clamp
    base, h = gen_dist1(200, 3), 0.3
    data = Dataset(np.append(base.x, base.x.max() + 40 * h), np.append(base.y, 5.0))
    levels = estimate_levels_all(data, 0.5, h)
    eps = np.finfo(float).eps
    assert (levels.p_low[-1], levels.p_up[-1]) == (eps, 1.0 - eps)


def test_estimate_levels_rejects_bad_inputs():
    data = gen_dist1(60, 5)
    with pytest.raises(ValueError, match="coverage level"):
        estimate_levels_all(data, 1.2, 0.5)
    with pytest.raises(ValueError, match="bandwidth"):
        estimate_levels_all(data, 0.5, -0.1)
    with pytest.raises(ValueError, match="bandwidth must be positive and finite, got nan"):
        estimate_levels_all(data, 0.5, float("nan"))
    with pytest.raises(ValueError, match="bandwidth must be positive and finite, got inf"):
        estimate_levels_all(data, 0.5, float("inf"))


def direct_scan(data, queries, alpha, h):
    """Rows low, up, p_low, p_up from one conditional CDF per query, built
    on the same source sample as the scan."""
    source = _capped_source(data, h, 0)
    rows = []
    for x0 in queries:
        ecdf = conditional_cdf(float(x0), source, h)
        mi = shortest_interval(ecdf, alpha)
        rows.append((mi.low, mi.up, *mi_quantile_levels(ecdf, mi)))
    return np.array(rows).T


def scan_case(name):
    """(data, bandwidth, queries) of one oracle input."""
    rng = np.random.default_rng(12)
    h, queries = None, None
    if name == "dist1":
        data = gen_dist1(150, 6)
    elif name.startswith("queries-"):
        # query counts around the scan's 64-query blocks
        data = gen_dist1(150, 6)
        queries = np.linspace(0.5, 9.5, int(name.split("-")[1]))
    elif name == "tied":
        data = gen_dist1(300, 7)
        data = Dataset(data.x, np.round(data.y))
    elif name in ("hourly", "hourly-x10"):
        x = np.repeat(np.arange(241.0), 10 if name == "hourly-x10" else 2)
        y = np.exp(1.0 + 0.3 * np.sin(2 * np.pi * x / 24) + 0.4 * rng.normal(size=x.size))
        data = Dataset(x, y)
    elif name == "above-cap":
        # n > 1000: the source is the 1000-point subsample
        data, h = gen_dist1(1500, 8), 0.4
    elif name == "heavy-atom":
        # 60% of the responses sit on one value, so low levels pick a zero-width interval
        y = np.where(rng.random(200) < 0.6, 2.0, rng.normal(size=200))
        data = Dataset(rng.uniform(0.0, 10.0, 200), y)
    elif name == "equal-weights":
        # one covariate value: every query weighs all responses alike, and
        # sums of 1/20 land on either side of alpha by rounding
        data, h = Dataset(np.full(20, 5.0), np.arange(20.0)), 1.0
    elif name == "underflow":
        # at h = 1 every query sees weights below the floor from far covariates
        data, h = Dataset(rng.uniform(0.0, 100.0, 300), rng.normal(size=300)), 1.0
    elif name == "shuffled":
        # repeated queries, and queries between the observations, in no order
        data = gen_dist1(150, 6)
        queries = rng.permutation(np.concatenate([data.x, data.x[:40], np.linspace(0, 10, 33)]))
    elif name == "far-queries":
        # 30h beyond both ends the weights are ~1e-196: supported, and the
        # reach h*sqrt(30^2 + 73.5) still takes in the sources at the ends
        data, h = gen_dist1(150, 6), 0.3
        queries = np.array([data.x.min() - 30 * h, 5.0, data.x.max() + 30 * h])
    elif name in ("far-outlier", "far-outlier-40h"):
        # one covariate 30h (40h) past the others, which the 1000-point
        # subsample leaves out: the last block's queries span the gap.  At
        # 30h the subsample's far end supports the outlier, with weights
        # near 1e-196; at 40h they underflow, so the source adds the
        # outlier back and its conditional distribution is a lone atom
        h = 0.5
        data = far_outlier(1200, 9, 30.0 if name == "far-outlier" else 40.0, h)
    elif name == "offset":
        # near 1e6, x0 +- reach rounds to steps of ~1e-10
        base = gen_dist1(150, 6)
        data = Dataset(base.x + 1e6, base.y)
    elif name == "far-cluster":
        # at x = 0 the masses 0.2, 0.5, 0.3 put intervals on alpha = 0.5,
        # where rounding decides; the far cluster's response 1 lies between
        # them, as a zero-mass atom of the full support that the scan's
        # window leaves out
        y = [0.0] * 2 + [2.0] * 5 + [3.0] * 3 + [1.0]
        data, h, queries = Dataset([0.0] * 10 + [50.0], y), 1.0, np.zeros(1)
    elif name == "signed-zero":
        # replicates at both 0.0 and -0.0, which the scan takes as one value
        x = np.repeat(np.linspace(-2.0, 2.0, 21), 4)
        x[np.flatnonzero(x == 0.0)[::2]] = -0.0
        data = Dataset(x, rng.normal(size=x.size))
    elif name == "sparse-queries":
        # one block of 10 queries 1.0 apart, over twice the reach 8.6h: its
        # window spans the sources between them, which are out of every
        # query's reach
        data, h = gen_dist1(1000, 5), 0.05
        queries = np.linspace(0.5, 9.5, 10)
    elif name in ("nan-first", "nan-last"):
        # replicated covariates, queried with one NaN at either end
        x = np.repeat(np.linspace(0.0, 10.0, 41), 3)
        data = Dataset(x, rng.normal(size=x.size))
        queries = np.concatenate([[np.nan], x] if name == "nan-first" else [x, [np.nan]])
    h = select_bandwidth(data.x) if h is None else h
    return data, h, data.x if queries is None else queries


SCAN_CASES = ["dist1", "tied", "hourly", "above-cap", "heavy-atom", "equal-weights",
              "underflow", "queries-1", "queries-63", "queries-64", "queries-65",
              "queries-129", "shuffled", "far-queries", "far-outlier", "far-outlier-40h",
              "offset", "far-cluster", "hourly-x10", "signed-zero", "nan-first", "nan-last",
              "sparse-queries"]
# cases where every query has kernel support
SUPPORTED = {"above-cap", "far-outlier", "far-outlier-40h", "sparse-queries"}


@pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95])
@pytest.mark.parametrize("name", SCAN_CASES)
def test_estimate_intervals_match_direct_composition(name, alpha):
    data, h, queries = scan_case(name)
    try:
        expected = direct_scan(data, queries, alpha, h)
    except ValueError as exc:  # the scan raises the reference's error
        assert name not in SUPPORTED, str(exc)
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            estimate_intervals_at(data, queries, alpha, h)
        return
    low, up = estimate_intervals_at(data, queries, alpha, h)
    assert np.array_equal(low, expected[0])
    assert np.array_equal(up, expected[1])
    assert np.all(up >= low)
    if queries is data.x:  # levels are produced at the observations only
        levels = estimate_levels_all(data, alpha, h)
        assert np.array_equal(levels.p_low, expected[2])
        assert np.array_equal(levels.p_up, expected[3])
    if name == "heavy-atom" and alpha == 0.5:
        assert np.any(low == up)


def test_row_search_matches_sweep_at_rounding_edges():
    # integer weights put interval masses exactly on decimal alphas, and
    # zero or 1e-17 weights make cum - pw step down by an ulp, where the
    # sweep keeps j and stops for good once j reaches the end
    rng = np.random.default_rng(13)
    for _ in range(300):
        m = int(rng.integers(2, 30))
        w = rng.integers(0, 6, size=(4, m)).astype(float)
        tiny = rng.random((4, m)) < 0.2
        w[tiny] = rng.choice([0.0, 1e-17, 3e-17, 1e-16], size=int(tiny.sum()))
        w[:, 0] += 1.0
        pw = w / w.sum(axis=1, keepdims=True)
        cum = np.cumsum(pw, axis=1)
        values = np.cumsum(rng.uniform(0.5, 1.5, m))
        alpha = float(rng.integers(1, 10)) / 10
        i, j = _shortest_rows(values, cum, pw, alpha)
        for r in range(4):
            try:
                expected = _shortest_indices(values, cum[r], pw[r], alpha)
            except ValueError:
                assert j[r] == m
                continue
            assert (i[r], j[r]) == expected


def test_estimate_intervals_reject_far_and_non_finite_queries():
    data = gen_dist1(150, 6)
    with pytest.raises(ValueError, match="no kernel support at x0=1000.0"):
        estimate_intervals_at(data, [5.0, 1000.0, np.nan], 0.5, 0.3)
    with pytest.raises(ValueError, match="query point must be finite"):
        estimate_intervals_at(data, [5.0, np.nan, 1000.0], 0.5, 0.3)
    with pytest.raises(ValueError, match="query point must be finite"):
        estimate_intervals_at(data, [np.inf], 0.5, 0.3)


@pytest.fixture
def finite_windows(monkeypatch):
    """Queries handed to the level scan's windows: finite, sorted, distinct."""
    handed = []

    def windows(source_x, queries, h):
        assert np.all(np.isfinite(queries)), "a non-finite query was scanned"
        assert np.all(np.diff(queries) > 0.0), "queries not sorted and distinct"
        handed.append(queries.copy())
        return _windows(source_x, queries, h)

    monkeypatch.setattr(intervals, "_windows", windows)
    return handed


def test_a_non_finite_query_stops_the_scan_before_it(finite_windows):
    data = gen_dist1(150, 6)
    with pytest.raises(ValueError, match="query point must be finite"):
        estimate_intervals_at(data, [np.nan, 5.0, 1000.0], 0.5, 0.3)
    assert all(q.size == 0 for q in finite_windows)  # nothing was scanned
    # an earlier unsupported query still decides the error
    with pytest.raises(ValueError, match="no kernel support at x0=1000.0"):
        estimate_intervals_at(data, [1000.0, np.nan], 0.5, 0.3)
    assert np.array_equal(finite_windows[-1], [1000.0])


def test_replicated_covariates_are_scanned_once(finite_windows):
    # 241 hours with 10 replicates each: one scan row per hour
    data, h, _ = scan_case("hourly-x10")
    estimate_levels_all(data, 0.5, h)
    assert len(finite_windows) == 1
    assert np.array_equal(finite_windows[0], np.arange(241.0))


def test_estimate_intervals_take_scalar_empty_and_1d_queries_only():
    data = gen_dist1(150, 6)
    low, up = estimate_intervals_at(data, [], 0.5, 0.3)
    assert low.shape == up.shape == (0,)
    low, up = estimate_intervals_at(data, 5.0, 0.5, 0.3)
    assert low.shape == up.shape == (1,)
    with pytest.raises(ValueError, match=r"scalar or a 1-d array, got shape \(2, 2\)"):
        estimate_intervals_at(data, np.array([[0.2, 0.3], [0.4, 0.5]]), 0.5, 0.1)


def test_level_scan_windows_leave_out_only_floored_weights():
    # every weight a block leaves out is under its row's floor, each window
    # is one run of the sources sorted by x, and the blocks slice the
    # sorted, distinct queries into consecutive runs
    rng = np.random.default_rng(31)
    for trial in range(90):
        n = int(rng.integers(1, 300))
        draws = (rng.uniform(0, 10, n), rng.standard_cauchy(n), np.round(rng.normal(size=n), 1))
        x = draws[trial % 3] + rng.choice([0.0, 1e6])
        h = float(10 ** rng.uniform(-10, 1))
        span = np.ptp(x) + 100 * h
        grid = x.min() + span * rng.uniform(-0.2, 1.2, 70)
        queries = np.unique(np.concatenate([rng.permutation(x)[:100], grid]))
        seen = []
        for block, window in _windows(x, queries, h):
            assert isinstance(block, slice)
            assert np.all(np.diff(window) > 0)  # source order
            # every source from the window's smallest x to its largest
            low, high = x[window].min(), x[window].max()
            assert np.array_equal(np.flatnonzero((x >= low) & (x <= high)), window)
            weights = gaussian_kernel((x - queries[block][:, None]) / h)
            floor = np.maximum(RELATIVE_FLOOR * weights.max(axis=1), WEIGHT_FLOOR)
            outside = np.ones(n, bool)
            outside[window] = False
            assert np.all(weights[:, outside] < floor[:, None])
            seen.append(np.arange(queries.size)[block])
        # each query once, in order
        assert np.array_equal(np.concatenate(seen), np.arange(queries.size))


def test_exponent_clamp_lands_under_the_weight_floor():
    # a clamped exponent must still give a weight the floor zeroes, and
    # np.exp of it must not be subnormal
    assert np.exp(_MIN_EXPONENT) / np.sqrt(2.0 * np.pi) < WEIGHT_FLOOR
    assert np.exp(_MIN_EXPONENT) >= np.finfo(float).tiny


_SCAN_FAULTS = """
import resource
from modalband.intervals import estimate_levels_all
from modalband.simulate import gen_dist1

data = gen_dist1(10_000, 1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
estimate_levels_all(data, 0.5, 0.3)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_level_scan_arrays_are_sized_by_the_widest_window():
    # at h = 0.01 a window holds a few dozen of the 1 000 sources: block
    # arrays sized by the widest window peak near 0.7 MB, and ones sized by
    # the whole source near 5.1 MB
    data = gen_dist1(1000, 3)
    tracemalloc.start()
    try:
        estimate_levels_all(data, 0.5, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6


@pytest.mark.skipif(sys.platform != "linux", reason="counts Linux minor page faults")
def test_level_scan_reuses_its_block_buffers():
    # the bound sits between a scan that reuses its block arrays (~2 200
    # faults) and one that allocates 64 x 1000 temporaries per block, which
    # the allocator hands back to the OS (~121 000)
    src = os.path.dirname(os.path.dirname(modalband.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", _SCAN_FAULTS], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) <= 10_000


# ---------------------------------------------------------------------------
# exact intervals for known distributions
# ---------------------------------------------------------------------------

def test_true_normal_interval_closed_form():
    mi = true_mi_normal(0.0, 1.0, 0.5)
    assert abs(mi.low - (-Z75)) < 1e-9
    assert abs(mi.up - Z75) < 1e-9


def test_true_normal_interval_scaled():
    mi = true_mi_normal(5.0, 2.0, 0.5)
    assert abs(mi.width - 2.69796) < 5e-6
    assert abs((mi.low + mi.up) / 2.0 - 5.0) < 1e-12


def test_true_normal_interval_degenerates_as_alpha_vanishes():
    mi = true_mi_normal(3.0, 1.0, 1e-9)
    assert mi.width < 1e-6
    assert abs(mi.low - 3.0) < 1e-6


def test_true_normal_rejects_bad_sigma():
    with pytest.raises(ValueError, match="sigma"):
        true_mi_normal(0.0, 0.0, 0.5)


def test_true_lognormal_matches_grid_search():
    ndtri = pytest.importorskip("scipy.special").ndtri
    alpha = 0.5
    for mu, sigma in [(0.0, 1.0), (1.0, 0.5), (-0.5, 2.0)]:
        mi = true_mi_lognormal(mu, sigma, alpha)
        p = np.linspace(1e-9, 1.0 - alpha - 1e-9, 100_000)
        low = np.exp(mu + sigma * ndtri(p))
        up = np.exp(mu + sigma * ndtri(p + alpha))
        k = int(np.argmin(up - low))
        assert abs(mi.low - low[k]) < 1e-4
        assert abs(mi.up - up[k]) < 1e-4


def test_true_lognormal_shorter_than_equal_tailed():
    for sigma in (0.5, 1.0, 2.0):
        mi = true_mi_lognormal(0.0, sigma, 0.5)
        equal_tailed = np.exp(sigma * Z75) - np.exp(-sigma * Z75)
        assert mi.width < equal_tailed


def test_true_lognormal_left_shifted():
    ndtri = pytest.importorskip("scipy.special").ndtri
    mi = true_mi_lognormal(0.0, 1.0, 0.5)
    assert mi.low < np.exp(ndtri(0.25))
    assert mi.up < np.exp(ndtri(0.75))


@pytest.mark.parametrize("sigma", [0.0, -1.0])
def test_true_lognormal_refuses_a_nonpositive_sigma(sigma):
    with pytest.raises(ValueError, match=f"^sigma must be positive, got {sigma}$"):
        true_mi_lognormal(0.0, sigma, 0.5)


def test_true_lognormal_small_sigma_limit():
    mu = 0.7
    mi = true_mi_lognormal(mu, 1e-4, 0.5)
    center = np.exp(mu)
    assert abs((mi.low + mi.up) / 2.0 - center) < 1e-3 * center
    assert mi.width < 1e-3 * center
