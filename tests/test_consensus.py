import numpy as np
import pytest
from mpmath import mp

from swarmlimit import (ackley, consensus_point, costs_of, laplace_value,
                        rastrigin, sphere)

from certified import c_alpha, upper_bound

# 1/(1 + e): weights exp(0) and exp(-1) on points 0 and 1
CONSENSUS_TWO_POINT = 0.26894142136999512
# (ln 2 - ln(1 + exp(-30))) / 30
LAPLACE_TWO_POINT = 0.023104906018661724


def test_identical_points_return_the_point():
    pts = np.full((8, 2), [0.3, -1.7])
    out = consensus_point(pts, costs_of(pts, ackley(2)), 30.0)
    assert np.array_equal(out, [0.3, -1.7])


def test_alpha_zero_is_plain_mean():
    out = consensus_point(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), 0.0)
    assert out[0] == 0.5


def test_two_point_weighted_average_oracle():
    mp.dps = 50
    oracle = 1 / (1 + mp.e)
    assert abs(float(oracle) - CONSENSUS_TWO_POINT) < 1e-16
    out = consensus_point(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), 1.0)
    assert out[0] == pytest.approx(CONSENSUS_TWO_POINT, rel=1e-14)


def test_convex_hull_membership_exact(rng):
    # solo clouds and (K, R, n, dim) stacks, whose points lie in the hull of
    # their own slice
    obj = ackley(3)
    for lead, trials in (((), 300), ((2, 3), 50)):
        for _ in range(trials):
            n = rng.integers(1, 40)
            pts = rng.uniform(-3, 3, lead + (n, 3))
            costs = costs_of(pts, obj)
            for alpha in (0.0, 1.0, 30.0, 1000.0):
                out = consensus_point(pts, costs, alpha)
                assert out.shape == lead + (3,)
                assert np.all(out >= pts.min(axis=-2))
                assert np.all(out <= pts.max(axis=-2))


def clamped_average_oracle(pts, vals, alpha):
    """The consensus point as a reduction over the particle axis of the
    ``(..., n, dim)`` points with costs ``vals``, hull bounds included."""
    weights = np.exp(-alpha * (vals - vals.min(axis=-1, keepdims=True)))
    avg = (weights[..., None] * pts).sum(axis=-2) / weights.sum(axis=-1)[..., None]
    return np.clip(avg, pts.min(axis=-2), pts.max(axis=-2))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_stacked_hull_clamp_equals_the_oracle_and_slices_bitwise(rng, dim):
    # the bounds reduce contiguous coordinate rows; a zero bound's sign
    # depends on the reduction order and reaches the output when the average
    # equals it, so clouds whose coordinates hold both 0.0 and -0.0 (and
    # all-zero coordinates) pin it, next to single-particle clouds
    values = np.array([0.0, -0.0, 0.0, -0.0, 1.0, -2.0, 1e-300])
    for n in (1, 2, 9, 64):
        for trial in range(20):
            stack = rng.choice(values, (2, 3, n, dim))
            if trial % 2:
                stack[0, 1] = rng.choice(values[:2], (n, dim))
            costs = np.abs(stack).sum(axis=-1)
            for alpha in (0.0, 1.0, 1e4):
                out = consensus_point(stack, costs, alpha)
                oracle = clamped_average_oracle(stack, costs, alpha)
                assert out.tobytes() == oracle.tobytes()
                for k in range(2):
                    for r in range(3):
                        solo = consensus_point(stack[k, r], costs[k, r], alpha)
                        assert solo.tobytes() == out[k, r].tobytes()


def test_shift_stability_bitwise_for_exact_shifts(rng):
    # dyadic costs and dyadic shifts add exactly in binary floating point, so
    # the max-normalized weights (hence the output) must not change a bit
    pts = rng.uniform(-2, 2, (50, 2))
    costs = rng.integers(0, 64, 50).astype(np.float64) / 8.0
    base = consensus_point(pts, costs, 30.0)
    for shift in (0.25, 2.0, -1.5, 1024.0):
        shifted = consensus_point(pts, costs + shift, 30.0)
        assert np.array_equal(shifted, base)


def test_shift_stability_close_for_generic_shifts(rng):
    pts = rng.uniform(-2, 2, (50, 1))
    costs = costs_of(pts, ackley(1))
    base = consensus_point(pts, costs, 30.0)
    shifted = consensus_point(pts, costs + np.pi, 30.0)
    assert shifted == pytest.approx(base, rel=1e-12)


def test_argmin_attraction_over_alpha_ladder(rng):
    obj = ackley(2)
    pts = rng.uniform(-3, 3, (40, 2))
    costs = costs_of(pts, obj)
    best = pts[np.argmin(costs)]
    dists = []
    for alpha in (1.0, 10.0, 100.0, 1000.0):
        out = consensus_point(pts, costs, alpha)
        dists.append(np.linalg.norm(out - best))
    for prev, nxt in zip(dists, dists[1:]):
        assert nxt <= prev + 1e-12
    assert dists[-1] == pytest.approx(0.0, abs=1e-10)


def test_empirical_jensen_bound(rng):
    # mean_i |Xa - x_i|^4 <= 16 C_alpha mean_j |x_j|^4 on boxed measures
    obj = ackley(2)
    gap = upper_bound(obj)  # the minimum is 0
    for _ in range(200):
        pts = rng.uniform(-3, 3, (rng.integers(2, 30), 2))
        m4 = np.mean(np.sum(pts * pts, axis=1) ** 2)
        costs = costs_of(pts, obj)
        for alpha in (0.0, 0.5, 1.0):
            out = consensus_point(pts, costs, alpha)
            lhs = np.mean(np.sum((out - pts) ** 2, axis=1) ** 2)
            assert lhs <= 16.0 * c_alpha(gap, alpha) * m4


def test_perturbation_continuity(rng):
    obj = ackley(2)
    pts = rng.uniform(-3, 3, (60, 2))
    direction = rng.standard_normal((60, 2))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    base = consensus_point(pts, costs_of(pts, obj), 30.0)
    gaps = []
    for eps in (1e-2, 1e-3, 1e-4):
        moved = pts + eps * direction
        moved = consensus_point(moved, costs_of(moved, obj), 30.0)
        gaps.append(np.linalg.norm(moved - base))
    assert gaps[0] > gaps[1] > gaps[2]


@pytest.mark.parametrize("make", [ackley, rastrigin, sphere])
@pytest.mark.parametrize("dim", [1, 2, 5])
def test_stacked_consensus_equals_per_slice_calls_bitwise(rng, make, dim):
    # every reduction runs within one cloud of the stack, so each slice's
    # point has the bits of a call on that cloud alone
    obj = make(dim)
    for n in (1, 7, 8, 9, 130, 1000):
        scales = np.array([0.1, 1.0, 3.0, 10.0])[:, None, None]
        stack = scales * rng.standard_normal((4, n, dim))
        costs = costs_of(stack, obj)
        for alpha in (0.0, 1.0, 30.0, 1e4):
            out = consensus_point(stack, costs, alpha)
            assert out.shape == (4, dim)
            for k in range(4):
                solo = consensus_point(stack[k], costs_of(stack[k], obj), alpha)
                assert np.array_equal(out[k], solo)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 130, 1000])
def test_stacked_laplace_value_equals_per_row_calls_bitwise(rng, n):
    # each row's value reduces that row alone; row 3 gives some of its
    # points cost +inf, which only drops their weight
    costs = np.array([0.1, 1.0, 3.0, 10.0])[:, None] * rng.exponential(size=(4, n))
    costs[3, ::2] = np.inf
    if n == 1:
        costs[3, 0] = 2.5
    for alpha in (1e-3, 1.0, 30.0, 1e4):
        out = laplace_value(costs, alpha)
        assert out.shape == (4,)
        for k in range(4):
            assert out[k].tobytes() == laplace_value(costs[k], alpha).tobytes()


def test_large_alpha_does_not_overflow():
    pts = np.linspace(-3, 3, 101)[:, None]
    out = consensus_point(pts, costs_of(pts, ackley(1)), 1e6)
    assert np.all(np.isfinite(out))


def test_input_validation():
    with pytest.raises(ValueError):
        consensus_point(np.empty((0, 1)), np.empty(0), 1.0)
    with pytest.raises(ValueError):
        consensus_point(np.array([[0.0]]), np.array([0.0]), -1.0)
    with pytest.raises(ValueError):
        consensus_point(np.zeros(3), np.zeros(()), 1.0)
    with pytest.raises(ValueError):
        laplace_value(np.array([0.0]), 0.0)
    for empty in (np.empty(0), np.empty((3, 0)), np.float64(0.0)):
        with pytest.raises(ValueError, match="at least one point"):
            laplace_value(empty, 1.0)


@pytest.mark.parametrize("costs", [np.arange(3.0), np.arange(5.0)[:, None],
                                   np.arange(5.0)[None, :]])
def test_consensus_point_rejects_costs_of_another_shape(costs):
    with pytest.raises(ValueError, match=r"costs must have shape \(5,\)"):
        consensus_point(np.ones((5, 1)), costs, 1.0)


def test_laplace_single_point_collapses():
    for alpha in (1.0, 10.0, 1000.0):
        assert laplace_value(np.array([0.37]), alpha) == 0.37


def test_laplace_two_point_oracle():
    mp.dps = 50
    oracle = (mp.log(2) - mp.log(1 + mp.exp(-30))) / 30
    assert abs(float(oracle) - LAPLACE_TWO_POINT) < 1e-17
    assert laplace_value(np.array([0.0, 1.0]), 30.0) == pytest.approx(
        LAPLACE_TWO_POINT, rel=1e-13)


def test_laplace_monotone_toward_minimum():
    costs = np.array([0.0, 1.0])
    values = [laplace_value(costs, a) for a in (1, 10, 100, 1000)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] >= 0.0
