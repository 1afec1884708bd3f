import numpy as np
import pytest
from mpmath import mp

from swarmlimit import ackley, make_objective, rastrigin, sphere

from certified import box_of, c_alpha, lipschitz_l, upper_bound

# independent high-precision evaluation of the closed form at x = 0.5, d = 1:
# -20 exp(-0.1) - exp(cos(pi)) + e + 20
ACKLEY_1D_AT_HALF = 4.2536540265684114

BENCHMARKS = [(name, dim) for name in ("ackley", "sphere", "rastrigin")
              for dim in (1, 2, 3)]


def test_ackley_minimum_is_zero():
    assert ackley(2)(np.array([0.0, 0.0])) == 0.0
    assert ackley(1)(np.array([0.0])) == 0.0


def test_ackley_shifted_minimum():
    obj = ackley(2, shift=(1.5, -2.0))
    assert obj(np.array([1.5, -2.0])) == pytest.approx(0.0, abs=1e-12)
    assert np.array_equal(obj.minimizer, [1.5, -2.0])


def test_ackley_value_against_high_precision_oracle():
    mp.dps = 50
    oracle = -20 * mp.exp(mp.mpf("-0.1")) - mp.exp(mp.cos(mp.pi)) + mp.e + 20
    assert abs(float(oracle) - ACKLEY_1D_AT_HALF) < 1e-15
    value = ackley(1)(np.array([0.5]))
    assert value == pytest.approx(ACKLEY_1D_AT_HALF, rel=1e-13)


@pytest.mark.parametrize("name,dim", BENCHMARKS)
def test_bounds_hold_on_sampled_box(name, dim):
    obj = make_objective(name, dim)
    rng = np.random.default_rng(12345)
    lo, hi = box_of(obj)
    x = rng.uniform(lo, hi, (10_000, dim))
    vals = obj.eval(x)
    assert np.all(vals >= 0.0)
    assert np.all(vals <= upper_bound(obj))
    assert obj(obj.minimizer) <= vals.min()


@pytest.mark.parametrize("name,dim", BENCHMARKS)
def test_weighted_lipschitz_holds_on_sampled_pairs(name, dim):
    obj = make_objective(name, dim)
    rng = np.random.default_rng(12345)
    lo, hi = box_of(obj)
    x = rng.uniform(lo, hi, (10_000, dim))
    y = rng.uniform(lo, hi, (10_000, dim))
    gap = np.abs(obj.eval(x) - obj.eval(y))
    weight = (np.linalg.norm(x, axis=1) + np.linalg.norm(y, axis=1)) \
        * np.linalg.norm(x - y, axis=1)
    assert np.all(gap <= lipschitz_l(obj) * weight)


def test_evaluation_is_deterministic():
    obj = ackley(3)
    pts = np.random.default_rng(0).uniform(-3, 3, (500, 3))
    assert np.array_equal(obj.eval(pts), obj.eval(pts))


def test_c_alpha_zero_alpha_is_one():
    assert c_alpha(upper_bound(ackley(2)), 0.0) == 1.0


def test_c_alpha_unit_gap_oracle():
    mp.dps = 50
    assert c_alpha(1.0, 30.0) == pytest.approx(float(mp.exp(30)), rel=1e-15)


def test_c_alpha_constant_cost_is_one():
    # a constant cost has bound gap 0
    for alpha in (0.0, 1.0, 100.0, 1e6):
        assert c_alpha(0.0, alpha) == 1.0


def test_c_alpha_overflow_signalled():
    gap = upper_bound(ackley(2))  # ~ 11.37
    with pytest.raises(OverflowError):
        c_alpha(gap, 100.0)
    with pytest.raises(ValueError):
        c_alpha(gap, -1.0)


def test_registry_lookup():
    assert make_objective("sphere", 4).name == "sphere"
    with pytest.raises(ValueError, match="unknown objective"):
        make_objective("rosenbrock", 2)
    with pytest.raises(ValueError):
        ackley(0)
    with pytest.raises(ValueError):
        sphere(2, shift=(1.0,))


def test_sphere_and_rastrigin_minima():
    assert sphere(3)(np.zeros(3)) == 0.0
    assert rastrigin(2)(np.zeros(2)) == 0.0
    s = sphere(2, shift=(1.0, 1.0))
    assert s(np.array([2.0, 1.0])) == pytest.approx(1.0)
