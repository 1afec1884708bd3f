import numpy as np
import pytest
from mpmath import mp

from swarmlimit import ackley, consensus_point, laplace_value, rastrigin, sphere

from certified import c_alpha, upper_bound
from conftest import linear_cost

# 1/(1 + e): weights exp(0) and exp(-1) on points 0 and 1
CONSENSUS_TWO_POINT = 0.26894142136999512
# (ln 2 - ln(1 + exp(-30))) / 30
LAPLACE_TWO_POINT = 0.023104906018661724


def test_identical_points_return_the_point():
    pts = np.full((8, 2), [0.3, -1.7])
    out = consensus_point(pts, ackley(2), 30.0)
    assert np.array_equal(out, [0.3, -1.7])


def test_alpha_zero_is_plain_mean():
    out = consensus_point(np.array([[0.0], [1.0]]), linear_cost(), 0.0)
    assert out[0] == 0.5


def test_two_point_weighted_average_oracle():
    mp.dps = 50
    oracle = 1 / (1 + mp.e)
    assert abs(float(oracle) - CONSENSUS_TWO_POINT) < 1e-16
    out = consensus_point(np.array([[0.0], [1.0]]), linear_cost(), 1.0)
    assert out[0] == pytest.approx(CONSENSUS_TWO_POINT, rel=1e-14)


def test_convex_hull_membership_exact(rng):
    obj = ackley(3)
    for _ in range(300):
        n = rng.integers(1, 40)
        pts = rng.uniform(-3, 3, (n, 3))
        for alpha in (0.0, 1.0, 30.0, 1000.0):
            out = consensus_point(pts, obj, alpha)
            assert np.all(out >= pts.min(axis=0))
            assert np.all(out <= pts.max(axis=0))


def test_shift_stability_bitwise_for_exact_shifts(rng):
    # dyadic costs and dyadic shifts add exactly in binary floating point, so
    # the max-normalized weights (hence the output) must not change a bit
    pts = rng.uniform(-2, 2, (50, 2))
    costs = rng.integers(0, 64, 50).astype(np.float64) / 8.0

    def cost_fn(shift):
        return lambda x: costs[: len(x)] + shift

    base = consensus_point(pts, cost_fn(0.0), 30.0)
    for shift in (0.25, 2.0, -1.5, 1024.0):
        shifted = consensus_point(pts, cost_fn(shift), 30.0)
        assert np.array_equal(shifted, base)


def test_shift_stability_close_for_generic_shifts(rng):
    pts = rng.uniform(-2, 2, (50, 1))
    obj = ackley(1)
    base = consensus_point(pts, obj, 30.0)
    shifted = consensus_point(pts, lambda x: obj(x) + np.pi, 30.0)
    assert shifted == pytest.approx(base, rel=1e-12)


def test_argmin_attraction_over_alpha_ladder(rng):
    obj = ackley(2)
    pts = rng.uniform(-3, 3, (40, 2))
    best = pts[np.argmin(obj.eval(pts))]
    dists = []
    for alpha in (1.0, 10.0, 100.0, 1000.0):
        out = consensus_point(pts, obj, alpha)
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
        for alpha in (0.0, 0.5, 1.0):
            out = consensus_point(pts, obj, alpha)
            lhs = np.mean(np.sum((out - pts) ** 2, axis=1) ** 2)
            assert lhs <= 16.0 * c_alpha(gap, alpha) * m4


def test_perturbation_continuity(rng):
    obj = ackley(2)
    pts = rng.uniform(-3, 3, (60, 2))
    direction = rng.standard_normal((60, 2))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    base = consensus_point(pts, obj, 30.0)
    gaps = []
    for eps in (1e-2, 1e-3, 1e-4):
        moved = consensus_point(pts + eps * direction, obj, 30.0)
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
        for alpha in (0.0, 1.0, 30.0, 1e4):
            out = consensus_point(stack, obj, alpha)
            assert out.shape == (4, dim)
            for k in range(4):
                assert np.array_equal(out[k], consensus_point(stack[k], obj, alpha))


def test_large_alpha_does_not_overflow():
    pts = np.linspace(-3, 3, 101)[:, None]
    out = consensus_point(pts, ackley(1), 1e6)
    assert np.all(np.isfinite(out))


def test_input_validation():
    with pytest.raises(ValueError):
        consensus_point(np.empty((0, 1)), linear_cost(), 1.0)
    with pytest.raises(ValueError):
        consensus_point(np.array([[0.0]]), linear_cost(), -1.0)
    with pytest.raises(ValueError):
        consensus_point(np.zeros(3), linear_cost(), 1.0)
    with pytest.raises(ValueError):
        laplace_value(np.array([[0.0]]), linear_cost(), 0.0)


def test_laplace_single_point_collapses():
    for alpha in (1.0, 10.0, 1000.0):
        assert laplace_value(np.array([[0.37]]), linear_cost(), alpha) == 0.37


def test_laplace_two_point_oracle():
    mp.dps = 50
    oracle = (mp.log(2) - mp.log(1 + mp.exp(-30))) / 30
    assert abs(float(oracle) - LAPLACE_TWO_POINT) < 1e-17
    pts = np.array([[0.0], [1.0]])
    assert laplace_value(pts, linear_cost(), 30.0) == pytest.approx(
        LAPLACE_TWO_POINT, rel=1e-13)


def test_laplace_monotone_toward_minimum():
    pts = np.array([[0.0], [1.0]])
    values = [laplace_value(pts, linear_cost(), a) for a in (1, 10, 100, 1000)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] >= 0.0
