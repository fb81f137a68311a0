"""Rhythmic cycle detection and peak-to-trough grading."""

import numpy as np
import pytest

from modalband.rhythm import RhythmCycle, classify_ratio, detect_rhythms


def sinusoid(level=2.0, amplitude=1.0, period=28.0, hours=240):
    """Hourly samples of level + amplitude*sin(2*pi*x/period)."""
    x = np.arange(hours + 1, dtype=float)
    return np.column_stack([x, level + amplitude * np.sin(2.0 * np.pi * x / period)])


# ---------------------------------------------------------------------------
# classify_ratio
# ---------------------------------------------------------------------------

def test_classify_ratio_grades():
    assert classify_ratio(3.0) == "significant"
    assert classify_ratio(1.5) == "significant"  # boundary is inclusive
    assert classify_ratio(1.3) == "mild"
    assert classify_ratio(1.25) == "mild"
    assert classify_ratio(1.1) == "none"
    assert classify_ratio(0.0) == "none"


# ---------------------------------------------------------------------------
# detect_rhythms
# ---------------------------------------------------------------------------

def test_flat_curve_has_no_cycles():
    x = np.arange(100.0)
    assert detect_rhythms(np.column_stack([x, np.full(100, 3.0)])) == []


def test_monotone_curve_has_no_cycles():
    x = np.arange(100.0)
    assert detect_rhythms(np.column_stack([x, x * 0.1 + 1.0])) == []


def test_daily_sinusoid_cycle_structure():
    cycles = detect_rhythms(sinusoid(level=2.0, period=28.0, hours=240), window=24.0)
    # peaks at 7+28k hours; the first and last lack a trough inside the
    # data on one side, leaving the seven full cycles
    assert len(cycles) == 7
    assert [c.peak_x for c in cycles] == [35.0 + 28.0 * k for k in range(7)]
    assert [c.trough1_x for c in cycles] == [21.0 + 28.0 * k for k in range(7)]
    for cycle in cycles:
        assert cycle.period == pytest.approx(28.0, abs=2.0)
        assert cycle.ratio1 == pytest.approx(3.0, rel=1e-6)
        assert cycle.ratio2 == pytest.approx(3.0, rel=1e-6)
        assert cycle.classification == "significant"
        assert not cycle.ratio_undefined


def test_adjacent_cycles_share_troughs():
    cycles = detect_rhythms(sinusoid(hours=240), window=24.0)
    for left, right in zip(cycles, cycles[1:]):
        assert left.trough2_x == right.trough1_x


def random_curve(rng, kind):
    """Random walk, noisy sinusoid, or a random walk rounded to produce ties,
    on random strictly increasing x."""
    n = int(rng.integers(10, 300))
    x = np.cumsum(rng.uniform(0.05, 3.0, n))
    if kind == 0:
        v = np.cumsum(rng.normal(size=n))
    elif kind == 1:
        v = np.sin(2.0 * np.pi * x / rng.uniform(3.0, 60.0)) + rng.normal(0.0, 0.3, n)
    else:
        v = np.round(np.cumsum(rng.normal(size=n)) * rng.uniform(0.5, 3.0))
    return np.column_stack([x, v])


def test_consecutive_cycles_never_overlap_on_random_curves():
    # two qualified peaks lie more than a window apart, so both trough
    # choices between them see the same lowest-leftmost minimum
    rng = np.random.default_rng(20260)
    pairs = shared = 0
    for k in range(1500):
        cycles = detect_rhythms(random_curve(rng, k % 3), window=rng.uniform(0.5, 40.0))
        for c in cycles:
            assert c.trough1_x < c.peak_x < c.trough2_x
        for left, right in zip(cycles, cycles[1:]):
            assert left.trough2_x <= right.trough1_x
            pairs += 1
            shared += left.trough2_x == right.trough1_x
    assert pairs > 1000 and shared > 100  # the shared-trough case is exercised


def reference_rhythms(curve, window):
    """The grading rule from its definition, with whole-curve masks per peak.

    A peak is an interior point above both neighbours that strictly exceeds
    every value within ``window`` before and after it; its troughs are the
    lowest (then leftmost) points below both neighbours within each window.
    """
    x, v = curve[:, 0], curve[:, 1]
    interior = np.arange(1, x.size - 1)
    below = interior[(v[interior] < v[interior - 1]) & (v[interior] < v[interior + 1])]
    above = interior[(v[interior] > v[interior - 1]) & (v[interior] > v[interior + 1])]
    cycles = []
    for p in above:
        near = (x >= x[p] - window) & (x <= x[p] + window)
        near[p] = False
        if np.any(v[near] >= v[p]):
            continue
        sides = [below[(x[below] >= x[p] - window) & (below < p)],
                 below[(below > p) & (x[below] <= x[p] + window)]]
        if any(side.size == 0 for side in sides):
            continue
        t1, t2 = (side[v[side] == v[side].min()][0] for side in sides)
        if v[t1] <= 0.0 or v[t2] <= 0.0:
            cycles.append(RhythmCycle(x[t1], x[p], x[t2], 0.0, 0.0, "none", True))
            continue
        r1, r2 = v[p] / v[t1], v[p] / v[t2]
        cycles.append(RhythmCycle(x[t1], x[p], x[t2], r1, r2,
                                  classify_ratio(min(r1, r2))))
    return cycles


def test_detect_rhythms_matches_the_definition_on_random_curves():
    # ties (rounded walks, small integers), negative values, integer x on
    # which window ends fall exactly on samples, windows from 0.01 to 50
    rng = np.random.default_rng(20261)
    cycles = 0
    for k in range(600):
        if k % 4 == 3:
            n = int(rng.integers(3, 200))
            x = np.arange(n, dtype=float) - 50.0
            curve = np.column_stack([x, rng.integers(-2, 4, n).astype(float)])
        else:
            curve = random_curve(rng, k % 4)
            curve[:, 1] -= rng.uniform(-1.0, 3.0)
        window = float(rng.integers(1, 30)) if k % 5 == 0 else float(
            np.exp(rng.uniform(np.log(0.01), np.log(50.0))))
        expected = reference_rhythms(curve, window)
        assert detect_rhythms(curve, window=window) == expected
        cycles += len(expected)
    assert cycles > 1000


@pytest.mark.parametrize("offset, cycles", [(0.0, 0), (1e-12, 1)],
                         ids=["at-window", "beyond-window"])
def test_a_higher_value_exactly_one_window_away_disqualifies_the_peak(offset, cycles):
    # peak 5 at x=2, troughs at x=1 and x=3; the higher 6 sits at x = 2 + 3
    x = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0 + offset, 6.0])
    curve = np.column_stack([x, [3.0, 1.0, 5.0, 2.0, 4.0, 6.0, 7.0]])
    found = detect_rhythms(curve, window=3.0)
    assert len(found) == cycles
    if found:
        assert (found[0].trough1_x, found[0].peak_x, found[0].trough2_x) == (1.0, 2.0, 3.0)


def test_period_property():
    cycle = RhythmCycle(trough1_x=21.0, peak_x=35.0, trough2_x=49.0,
                        ratio1=3.0, ratio2=3.0, classification="significant")
    assert cycle.period == 28.0


def test_small_amplitude_grades_mild():
    curve = sinusoid(level=1.15, amplitude=0.15, period=28.0, hours=120)
    cycles = detect_rhythms(curve, window=24.0)
    assert len(cycles) == 3
    for cycle in cycles:
        assert cycle.ratio1 == pytest.approx(1.3, rel=1e-9)
        assert cycle.classification == "mild"


def test_ratios_invariant_to_positive_scaling():
    base = sinusoid(hours=150)
    scaled = base.copy()
    scaled[:, 1] *= 7.5
    a = detect_rhythms(base, window=24.0)
    b = detect_rhythms(scaled, window=24.0)
    assert len(a) == len(b) > 0
    for ca, cb in zip(a, b):
        assert ca.peak_x == cb.peak_x
        assert ca.ratio1 == pytest.approx(cb.ratio1, rel=1e-12)
        assert ca.ratio2 == pytest.approx(cb.ratio2, rel=1e-12)
        assert ca.classification == cb.classification


def test_upward_shifts_weaken_the_ratio():
    previous = np.inf
    for shift in (0.0, 1.0, 5.0, 25.0):
        curve = sinusoid(level=2.0 + shift, hours=150)
        cycles = detect_rhythms(curve, window=24.0)
        strength = min(min(c.ratio1, c.ratio2) for c in cycles)
        assert strength <= previous
        previous = strength
    assert previous < 1.25  # far shifted up, the rhythm grades away


def test_nonpositive_troughs_mark_ratios_undefined():
    curve = sinusoid(level=0.0, hours=150)  # troughs at -1
    cycles = detect_rhythms(curve, window=24.0)
    assert len(cycles) > 0
    for cycle in cycles:
        assert cycle.ratio_undefined
        assert cycle.ratio1 == 0.0 and cycle.ratio2 == 0.0
        assert cycle.classification == "none"


def test_zero_valued_trough_is_undefined_too():
    curve = sinusoid(level=1.0, hours=150)  # troughs exactly 0
    cycles = detect_rhythms(curve, window=24.0)
    assert cycles and all(c.ratio_undefined for c in cycles)


def test_window_gates_qualification():
    # with a window longer than the data span no peak can dominate both
    # sides while still finding interior minima beyond the ends
    curve = sinusoid(hours=240)
    assert detect_rhythms(curve, window=24.0)
    short = detect_rhythms(curve, window=6.0)
    assert short == []  # no local min within 6 hours of any peak


def test_detect_rhythms_validation():
    good = sinusoid(hours=48)
    with pytest.raises(ValueError, match=r"\(x, value\) rows"):
        detect_rhythms(good[:, 0])
    with pytest.raises(ValueError, match="at least 3 curve points"):
        detect_rhythms(good[:2])
    bad = good.copy()
    bad[5, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        detect_rhythms(bad)
    swapped = good.copy()
    swapped[[3, 4], 0] = swapped[[4, 3], 0]
    with pytest.raises(ValueError, match="strictly increasing"):
        detect_rhythms(swapped)
    for window in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="window must be positive"):
            detect_rhythms(good, window=window)
