"""Kernel values, bandwidth selection, conditional CDFs, density weights."""

import time
import tracemalloc

import numpy as np
import pytest

from modalband import kde
from modalband.intervals import estimate_levels_all
from modalband.kde import (
    Dataset,
    WeightedECDF,
    _pair_counts,
    conditional_cdf,
    density_weights,
    gaussian_kernel,
    normal_reference_bandwidth,
    select_bandwidth,
)
from modalband.simulate import gen_dist1

SQRT_2PI = np.sqrt(2.0 * np.pi)


# ---------------------------------------------------------------------------
# gaussian_kernel
# ---------------------------------------------------------------------------

def test_kernel_peak_value():
    assert abs(gaussian_kernel(0.0) - 0.3989422804) < 1e-10


def test_kernel_value_at_one():
    assert abs(gaussian_kernel(1.0) - 0.2419707245) < 1e-10


def test_kernel_symmetric_and_positive():
    u = np.linspace(-8.0, 8.0, 401)
    k = gaussian_kernel(u)
    assert np.array_equal(k, gaussian_kernel(-u))
    assert np.all(k > 0.0)


def test_kernel_scalar_in_scalar_out():
    assert isinstance(gaussian_kernel(0.3), float)


# ---------------------------------------------------------------------------
# Dataset
# ---------------------------------------------------------------------------

def test_dataset_validates_lengths():
    with pytest.raises(ValueError, match="length mismatch"):
        Dataset([1.0, 2.0], [1.0])


def test_dataset_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        Dataset([1.0, np.nan], [0.0, 0.0])
    with pytest.raises(ValueError, match="non-finite"):
        Dataset([1.0, 2.0], [0.0, np.inf])


def test_dataset_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        Dataset([], [])


def test_dataset_rejects_matrices():
    with pytest.raises(ValueError, match="one-dimensional"):
        Dataset(np.ones((2, 2)), np.ones((2, 2)))


# ---------------------------------------------------------------------------
# WeightedECDF
# ---------------------------------------------------------------------------

def test_ecdf_merges_duplicates_and_sorts():
    ecdf = WeightedECDF.from_samples([3.0, 1.0, 3.0, 2.0], [1.0, 1.0, 1.0, 1.0])
    assert np.array_equal(ecdf.values, [1.0, 2.0, 3.0])
    assert np.allclose(ecdf.point_weight, [0.25, 0.25, 0.5])
    assert np.allclose(ecdf.cum, [0.25, 0.5, 1.0])


def test_ecdf_invariants_on_random_inputs():
    rng = np.random.default_rng(42)
    for _ in range(200):
        m = int(rng.integers(1, 40))
        values = np.round(rng.normal(size=m), 1)  # frequent duplicates
        weights = rng.exponential(size=m)
        weights[rng.random(m) < 0.2] = 0.0
        if weights.sum() == 0.0:
            weights[0] = 1.0
        ecdf = WeightedECDF.from_samples(values, weights)
        assert np.all(np.diff(ecdf.values) > 0.0)
        assert np.all(np.diff(ecdf.cum) >= 0.0)
        assert abs(ecdf.cum[-1] - 1.0) < 1e-12
        assert np.allclose(np.cumsum(ecdf.point_weight), ecdf.cum)


def test_ecdf_is_unchanged_by_zero_weights():
    # sequential sums: zero weights anywhere, in any number, on new or on
    # existing values, leave the positive atoms bit for bit
    rng = np.random.default_rng(23)
    for _ in range(300):
        m = int(rng.integers(1, 40))
        values = np.round(rng.normal(size=m), 1)
        weights = rng.exponential(size=m)
        base = WeightedECDF.from_samples(values, weights)
        k = int(rng.integers(1, 60))
        at = rng.integers(0, m + 1, size=k)
        new_values = np.round(rng.normal(size=k), 2)
        extra = np.where(rng.random(k) < 0.5, rng.choice(values, k), new_values)
        padded = WeightedECDF.from_samples(np.insert(values, at, extra),
                                           np.insert(weights, at, 0.0))
        keep = np.isin(padded.values, base.values)
        assert np.array_equal(padded.values[keep], base.values)
        assert np.array_equal(padded.cum[keep], base.cum)
        assert np.array_equal(padded.point_weight[keep], base.point_weight)
        assert np.all(padded.point_weight[~keep] == 0.0)
        assert base.cum[-1] == padded.cum[-1] == 1.0


def test_ecdf_rejects_negative_weights():
    with pytest.raises(ValueError, match="negative weights"):
        WeightedECDF.from_samples([1.0, 2.0], [0.5, -0.1])


def test_ecdf_rejects_zero_total_weight():
    with pytest.raises(ValueError, match="all weights are zero"):
        WeightedECDF.from_samples([1.0, 2.0], [0.0, 0.0])


def test_ecdf_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="equal length"):
        WeightedECDF.from_samples([1.0, 2.0], [1.0])


# ---------------------------------------------------------------------------
# Bandwidth selection
# ---------------------------------------------------------------------------

def test_bandwidth_near_normal_reference_on_gaussian_sample():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(1000)
    h = select_bandwidth(x)
    reference = 1.06 * 1000 ** (-0.2)  # unit-variance rule of thumb
    assert reference / 2.0 < h < reference * 2.0


def test_bandwidth_scale_equivariance():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(400)
    h = select_bandwidth(x)
    h_scaled = select_bandwidth(10.0 * x)
    assert abs(h_scaled - 10.0 * h) < 1e-9 * h_scaled


@pytest.mark.parametrize("sample,expected", [
    (lambda: np.repeat(np.arange(0.0, 241.0), 2), 14.731419422695708),
    (lambda: gen_dist1(1000, np.random.default_rng(1)).x, 0.45694727273420604),
    # the outlier stretches the root bracket to [0.48, 4.5e7], and inside it
    # the equation has no finite value near h = 5.5e3
    (lambda: np.append(np.random.default_rng(2).standard_normal(500), 1e6),
     0.49308217989293046),
], ids=["hourly", "dist1-n1000", "normal-with-outlier"])
def test_bandwidth_root_matches_brent_reference(sample, expected):
    # expected values are scipy.optimize.brentq's roots, at xtol = 1e-12 * scale
    x = sample()
    q75, q25 = np.percentile(x, [75.0, 25.0])
    scale = min(x.std(ddof=1), (q75 - q25) / 1.349)
    assert abs(select_bandwidth(x) - expected) <= 1e-12 * scale


# n = 2 000 runs 64 residue groups on the continuous kinds; "edges" puts
# every distance on a bin edge, so every pair goes through the edge search
@pytest.mark.parametrize("n", [2, 255, 256, 257, 513, 2000])
@pytest.mark.parametrize("kind", ["normal", "rounded", "replicated", "hourly", "edges",
                                  "offset", "thirds", "clusters", "lognormal", "cauchy"])
def test_pair_counts_match_histogram_of_upper_triangle(n, kind):
    x = np.random.default_rng(n).standard_normal(n)
    if kind == "rounded":
        x = np.round(x, 1)  # ties
    elif kind == "thirds":
        x = np.round(3.0 * x) / 3.0  # up to ~270 copies of a value, inexact steps
    elif kind == "clusters":
        x[n // 2:] += 1e4  # two far clusters: their pairs sit in the end bins
    elif kind == "lognormal":
        x = np.exp(2.0 * x)  # lognormal(0, 2)
    elif kind == "cauchy":
        x = np.random.default_rng(n).standard_cauchy(n)
    elif kind == "replicated":
        x = (np.arange(1, n + 1) // 2).astype(float)  # 0, 1, 1, 2, 2, ...
    elif kind == "hourly":
        if n == 2:
            pytest.skip("one hour twice: no span, a sample select_bandwidth refuses")
        x = np.repeat(np.arange(n // 2 + 1.0), 2)[:n]  # 0, 0, 1, 1, 2, ...
    elif kind == "offset":
        x += 1e6  # the distances carry the rounding of values near 1e6
    elif kind == "edges":
        # a 0.01 grid spanning [0, 10]: the distances fall on bin edges
        x = np.random.default_rng(n).integers(0, 1001, n) / 100.0
        x[:2] = 0.0, 10.0
    i, j = np.triu_indices(n, 1)
    span = float(x.max() - x.min())
    expected = np.histogram(np.abs(x[i] - x[j]), bins=1000, range=(0.0, span))[0]
    centers, counts = _pair_counts(x, 1000)
    assert np.array_equal(counts, expected)
    assert np.array_equal(centers, (np.arange(1000) + 0.5) * (span / 1000))


@pytest.mark.parametrize("sample,expected", [
    (lambda: np.repeat(np.arange(0.0, 241.0), 2), 14.731419422695808),
    (lambda: gen_dist1(10000, np.random.default_rng(1)).x, 0.18586927170067868),
    # the two covariate draws of the fit-dist1-n10k benchmark workload
    (lambda: np.random.default_rng(np.random.SeedSequence([0, 1, 0, 0])).uniform(0.0, 10.0, 10000),
     0.19100985878198795),
    (lambda: np.random.default_rng(np.random.SeedSequence([0, 1, 1, 0])).uniform(0.0, 10.0, 10000),
     0.19246532394191207),
    # through the normal-reference fallback
    (lambda: np.random.default_rng(1).standard_cauchy(2000), 0.3419810878520093),
    (lambda: np.random.default_rng(0).lognormal(0.0, 2.0, 2000), 0.1389474835726503),
    # two N(0, 1) clusters 1e4 apart
    (lambda: np.concatenate([np.random.default_rng(9).standard_normal(500),
                             1e4 + np.random.default_rng(10).standard_normal(500)]),
     30.001181828094172),
], ids=["hourly", "dist1-n10k", "fit-draw0", "fit-draw1", "cauchy-fallback",
        "lognormal", "two-clusters"])
def test_bandwidth_is_pinned_to_the_bit(sample, expected):
    # h from the pair histogram counted by brute force (blockwise, then by
    # sorted rows); a count that moves one pair to another bin changes these
    assert select_bandwidth(sample()) == expected


def traced_peak_bytes(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pairwise_layers_stay_within_memory_bound():
    # the bandwidth's pair histogram keeps a few arrays of n values and bins
    # the pairs it cannot count by FFT in blocks of a few thousand; one n x n
    # array of doubles would take 128 MB here.  The weights need a few arrays
    # of n doubles and a grid of about 1 100 points, padded to 2 048 for the
    # FFT.
    x = np.random.default_rng(4).uniform(0.0, 10.0, 4000)
    assert traced_peak_bytes(lambda: select_bandwidth(x)) <= 48e6
    assert traced_peak_bytes(lambda: _pair_counts(x, 1000)) <= 0.5e6
    # values on the bin edges: every pair is binned one by one
    lattice = np.random.default_rng(4000).integers(0, 1001, 4000) / 100.0
    lattice[:2] = 0.0, 10.0
    assert traced_peak_bytes(lambda: _pair_counts(lattice, 1000)) <= 0.5e6
    assert traced_peak_bytes(lambda: density_weights(Dataset(x, x), 0.3)) <= 2e6
    # the level scan works on blocks of queries; one n x 1000 array of
    # doubles (the source subsample) would take 32 MB here
    data = Dataset(x, np.random.default_rng(5).normal(size=x.size))
    assert traced_peak_bytes(lambda: estimate_levels_all(data, 0.5, 0.3)) <= 16e6


def test_bandwidth_rejects_degenerate_sample():
    with pytest.raises(ValueError, match="degenerate"):
        select_bandwidth(np.full(50, 3.0))


def test_bandwidth_rejects_tiny_sample():
    with pytest.raises(ValueError, match="at least 10"):
        select_bandwidth(np.arange(5.0))


def test_bandwidth_rejects_non_finite_sample():
    x = np.arange(20.0)
    x[3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        select_bandwidth(x)


# select_bandwidth has one fallback exit; each test below reaches it by one
# of the four ways the root search can fail

@pytest.mark.parametrize("draw", [
    lambda rng: rng.lognormal(0.0, 2.0, 2000),
    lambda rng: rng.standard_cauchy(2000),
], ids=["lognormal", "cauchy"])
def test_bandwidth_falls_back_when_a_pilot_functional_is_not_positive(draw):
    x = draw(np.random.default_rng(1))
    assert select_bandwidth(x) == normal_reference_bandwidth(x)


def patch_psi4(monkeypatch, psi4):
    """Make kde._psi_sum return ``psi4(value, k)`` on its k-th call for
    psi_4 (the first is the pilot functional), ``value`` being the real
    one; psi_6 stays real.  Returns the bandwidths psi_4 was asked at."""
    real, calls = kde._psi_sum, []

    def psi(r, *args):
        if r != 4:
            return real(r, *args)
        calls.append(args[0])
        return psi4(real(r, *args), len(calls))

    monkeypatch.setattr(kde, "_psi_sum", psi)
    return calls


def test_bandwidth_falls_back_when_a_bracket_end_is_undefined(monkeypatch):
    x = np.random.default_rng(3).standard_normal(200)
    assert select_bandwidth(x) != normal_reference_bandwidth(x)
    calls = patch_psi4(monkeypatch, lambda value, k: value if k <= 1 else np.nan)
    assert select_bandwidth(x) == normal_reference_bandwidth(x)
    assert len(calls) == 3  # the pilot, then both ends of the first bracket


def test_bandwidth_falls_back_when_no_bracket_changes_sign(monkeypatch):
    # with psi4 fixed at 1e300 the equation's right side is ~1e-61, far
    # below every bracket, so its gap stays negative and finite
    x = np.random.default_rng(3).standard_normal(200)
    calls = patch_psi4(monkeypatch, lambda value, k: 1e300)
    assert select_bandwidth(x) == normal_reference_bandwidth(x)
    assert len(calls) == 1 + 2 + 99  # the pilot, the first bracket, 99 expansions


def test_bandwidth_falls_back_when_the_root_is_undefined(monkeypatch):
    x = np.random.default_rng(3).standard_normal(200)
    # the first bracket changes sign; the root search evaluates its ends
    # again, and then its first inner point is undefined
    calls = patch_psi4(monkeypatch, lambda value, k: value if k <= 5 else np.nan)
    assert select_bandwidth(x) == normal_reference_bandwidth(x)
    assert len(calls) == 6


def test_normal_reference_formula():
    rng = np.random.default_rng(3)
    x = rng.normal(2.0, 1.5, size=200)
    sd = x.std(ddof=1)
    q75, q25 = np.percentile(x, [75, 25])
    expected = 1.06 * min(sd, (q75 - q25) / 1.349) * 200 ** (-0.2)
    assert abs(normal_reference_bandwidth(x) - expected) < 1e-12


def test_normal_reference_rejects_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        normal_reference_bandwidth([1.0, 1.0, 1.0])


def test_normal_reference_refuses_one_point():
    with pytest.raises(ValueError, match="^need at least 2 points for a bandwidth$"):
        normal_reference_bandwidth([1.0])


def test_robust_scale_falls_back_to_the_sd_when_the_iqr_is_zero():
    # seven of ten points tie, so both quartiles are 0
    x = np.array([0.0] * 7 + [-3.0, 5.0, 8.0])
    assert np.percentile(x, 25) == np.percentile(x, 75) == 0.0
    assert kde._robust_scale(x) == x.std(ddof=1)


@pytest.mark.parametrize("scale", [1e50, 1e-50])
def test_bandwidth_of_a_covariate_of_extreme_scale_is_finite(scale, recwarn):
    # the pilot functionals' g^(r+1) overflows at 1e50 and underflows at
    # 1e-50: the plug-in root is then undefined, and the rule falls back
    x = np.random.default_rng(0).uniform(0.0, 10.0, 300) * scale
    h = select_bandwidth(x)
    assert np.isfinite(h) and h > 0.0
    assert h == normal_reference_bandwidth(x)
    assert not recwarn.list


# ---------------------------------------------------------------------------
# conditional_cdf
# ---------------------------------------------------------------------------

def test_conditional_cdf_single_observation():
    ecdf = conditional_cdf(0.3, Dataset([1.0], [7.5]), h=0.5)
    assert np.array_equal(ecdf.values, [7.5])
    assert np.allclose(ecdf.cum, [1.0])


def test_conditional_cdf_uniform_weight_limit():
    rng = np.random.default_rng(5)
    data = Dataset(rng.uniform(0, 1, 50), rng.normal(size=50))
    ecdf = conditional_cdf(0.5, data, h=1e9)
    plain = WeightedECDF.from_samples(data.y, np.ones(50))
    assert np.array_equal(ecdf.values, plain.values)
    assert np.allclose(ecdf.cum, plain.cum, atol=1e-9)


def test_conditional_cdf_matches_hand_weights():
    data = Dataset([0.0, 1.0, 2.0], [5.0, 3.0, 8.0])
    x0, h = 0.5, 0.7
    w = np.exp(-0.5 * ((data.x - x0) / h) ** 2) / SQRT_2PI
    w /= w.sum()
    ecdf = conditional_cdf(x0, data, h)
    # responses sorted: 3 (x=1), 5 (x=0), 8 (x=2)
    assert np.array_equal(ecdf.values, [3.0, 5.0, 8.0])
    assert np.allclose(ecdf.cum, [w[1], w[1] + w[0], 1.0], atol=1e-12)


def test_conditional_cdf_monotone_bounded_on_random_data():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(2, 60))
        data = Dataset(rng.uniform(0, 10, n), rng.normal(size=n))
        x0 = float(rng.choice(data.x)) + rng.uniform(-0.1, 0.1)
        ecdf = conditional_cdf(x0, data, h=rng.uniform(0.2, 2.0))
        assert np.all(ecdf.cum >= 0.0) and np.all(ecdf.cum <= 1.0 + 1e-12)
        assert np.all(np.diff(ecdf.cum) >= 0.0)
        assert abs(ecdf.cum[-1] - 1.0) < 1e-12


def test_conditional_cdf_zeroes_weights_under_the_relative_floor():
    h = 0.5
    # 9h from x0 the weight is exp(-40.5) ~ 2.6e-18 of the nearest one's
    ecdf = conditional_cdf(0.0, Dataset([0.0, 9 * h], [1.0, 2.0]), h)
    assert np.array_equal(ecdf.point_weight, [1.0, 0.0])
    # with the nearest source 30h away the query keeps its support; at 33h
    # the weight is ~1e-237, above WEIGHT_FLOOR, but exp(-94.5) of the nearest
    ecdf = conditional_cdf(0.0, Dataset([30 * h, 30.5 * h, 33 * h], [1.0, 2.0, 3.0]), h)
    assert np.all(ecdf.point_weight[:2] > 0.0)
    assert ecdf.point_weight[2] == 0.0


def test_conditional_cdf_rejects_far_query():
    data = Dataset([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(ValueError, match="no kernel support"):
        conditional_cdf(1e6, data, h=0.1)


def test_conditional_cdf_rejects_bad_bandwidth_and_query():
    data = Dataset([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(ValueError, match="bandwidth must be positive"):
        conditional_cdf(0.5, data, h=0.0)
    with pytest.raises(ValueError, match="finite"):
        conditional_cdf(np.nan, data, h=1.0)


def test_conditional_cdf_permutation_invariant():
    rng = np.random.default_rng(17)
    data = Dataset(rng.uniform(0, 5, 40), rng.normal(size=40))
    perm = rng.permutation(40)
    shuffled = Dataset(data.x[perm], data.y[perm])
    a = conditional_cdf(2.0, data, h=0.8)
    b = conditional_cdf(2.0, shuffled, h=0.8)
    assert np.array_equal(a.values, b.values)
    assert np.allclose(a.cum, b.cum, atol=1e-12)


# ---------------------------------------------------------------------------
# density_weights
# ---------------------------------------------------------------------------

def test_density_weights_single_point():
    data = Dataset([2.0], [0.0])
    h = 0.7
    expected = (gaussian_kernel(0.0) / h) ** 0.2
    assert abs(density_weights(data, h)[0] - expected) < 1e-12


def test_density_weights_match_brute_force():
    data = Dataset([0.0, 0.5, 1.1, 2.0, 3.2], np.zeros(5))
    h = 0.6
    n = 5
    expected = np.empty(n)
    for i in range(n):
        s = sum(gaussian_kernel((data.x[i] - data.x[l]) / h) for l in range(n))
        expected[i] = (s / (n * h)) ** 0.2
    assert np.allclose(density_weights(data, h), expected, rtol=1e-4, atol=0.0)


def dense_weights(x, h):
    """The all-pairs kernel sum, 500 rows at a time, to the power 1/5."""
    dens = np.concatenate([
        gaussian_kernel((x[i:i + 500, None] - x[None, :]) / h).sum(axis=1)
        for i in range(0, x.size, 500)
    ])
    return (dens / (x.size * h)) ** 0.2


def _uniform(n):
    return lambda: (np.random.default_rng(n).uniform(0.0, 10.0, n), 0.4)


# (covariates, bandwidth); the outlier, Cauchy and lognormal samples span
# thousands of bandwidths, where a grid fitted to the span is too coarse
WEIGHT_SAMPLES = {
    **{str(n): _uniform(n) for n in (255, 256, 257, 513, 700, 3000)},
    "hourly": lambda: (np.repeat(np.arange(0, 241.0), 2), 14.731419422695708),
    "rounded-ties": lambda: (np.round(np.random.default_rng(5).standard_normal(1000), 1), 0.274),
    "normal-with-outlier": lambda: (
        np.append(np.random.default_rng(2).standard_normal(500), 1e6), 0.49308217989293046),
    "cauchy": lambda: (np.random.default_rng(6).standard_cauchy(2000), 0.336),
    "lognormal-sigma2": lambda: (np.random.default_rng(7).lognormal(0.0, 2.0, 2000), 0.121),
    "shifted-by-1e6": lambda: (np.random.default_rng(8).uniform(0.0, 10.0, 1000) + 1e6, 0.466),
    "clusters-1e4-apart": lambda: (
        np.append(np.random.default_rng(9).standard_normal(500),
                  1e4 + np.random.default_rng(10).standard_normal(500)), 0.3),
    "n1": lambda: (np.array([0.7]), 0.3),
    "n2": lambda: (np.array([0.7, 1.0]), 0.3),
}


@pytest.mark.parametrize("sample", WEIGHT_SAMPLES.values(), ids=WEIGHT_SAMPLES.keys())
def test_density_weights_match_dense_kernel_sum(sample):
    # the binned sum is within 5e-5 of the dense one on each of these
    x, h = sample()
    assert np.allclose(density_weights(Dataset(x, x), h), dense_weights(x, h),
                       rtol=1e-4, atol=0.0)


def test_density_weights_edge_deficit_on_uniform_grid():
    data = Dataset(np.linspace(0, 10, 11), np.zeros(11))
    w = density_weights(data, h=1.0)
    assert w[5] > w[0]
    assert w[5] > w[-1]


def test_density_weights_equal_for_identical_covariates():
    w = density_weights(Dataset([2.0, 2.0, 2.0], [0.0, 1.0, 2.0]), h=0.5)
    assert np.allclose(w, w[0])
    assert np.all(w > 0.0)


def test_density_weights_permutation_invariant():
    rng = np.random.default_rng(23)
    data = Dataset(rng.uniform(0, 5, 60), np.zeros(60))
    perm = rng.permutation(60)
    shuffled = Dataset(data.x[perm], data.y[perm])
    assert np.allclose(density_weights(data, 0.5)[perm],
                       density_weights(shuffled, 0.5), atol=1e-12)


def test_density_weights_rejects_bad_bandwidth():
    for h in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="bandwidth must be positive and finite"):
            density_weights(Dataset([0.0], [0.0]), h=h)


def test_density_weights_fast_at_large_n():
    # a pair sum over 2e10 pairs would take minutes
    x = np.random.default_rng(6).uniform(0.0, 10.0, 200_000)
    start = time.perf_counter()
    w = density_weights(Dataset(x, x), 0.05)
    assert time.perf_counter() - start < 2.0
    assert np.all(np.isfinite(w)) and np.all(w > 0.0)
