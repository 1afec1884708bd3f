import re

import numpy as np
import pytest
from mpmath import mp

from swarmlimit import ackley, consensus_point, make_objective, rastrigin, sphere
from swarmlimit.consensus import costs_of

from certified import KERNEL_ORACLES, box_of, c_alpha, lipschitz_l, upper_bound

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


# every float class the kernels can meet: signed zeros and infinities, NaNs
# of both signs, subnormals, and magnitudes whose square over- or underflows;
# the last seven are the least |z| whose z * z overflows and the least whose
# z * z is still normal, then two where z * z is subnormal and one where it
# is 0: the edges where sqrt(z * z) and |z| part ways
SPECIAL_VALUES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                           5e-324, -5e-324, 1e-310, 1e300, -1e300, 1e-300,
                           -1e-300, 0.5,
                           1.3407807929942597e154, -1.3407807929942597e154,
                           1.4916681462400413e-154, -1.4916681462400413e-154,
                           1e-160, -1e-160, 1e-170])


def special_batch(shape, seed=0):
    """Uniform points over six decades, a fifth of them special values."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-5.0, 5.0, shape) * 10.0 ** rng.integers(-3, 3, shape)
    mask = rng.random(shape) < 0.2
    x[mask] = rng.choice(SPECIAL_VALUES, np.count_nonzero(mask))
    return x


def kernel_case(name, dim, shift):
    """The objective and its textbook oracle, with no, a nonzero, an all
    -0.0 or a +0.0 and -0.0 alternating shift: ``x - 0.0`` is ``x`` bit for
    bit, ``x - (-0.0)`` turns a -0.0 coordinate into +0.0."""
    shift = {"none": None,
             "nonzero": np.linspace(-1.5, 2.0, dim),
             "negative-zero": np.full(dim, -0.0),
             "signed-zeros": np.where(np.arange(dim) % 2, -0.0, 0.0)}[shift]
    obj = make_objective(name, dim, shift)
    return obj, lambda x: KERNEL_ORACLES[name](x, obj.minimizer)


KERNEL_CASES = [(name, dim, shift) for name in KERNEL_ORACLES
                for dim in (1, 2, 3, 8)
                for shift in ("none", "nonzero", "negative-zero", "signed-zeros")]


@pytest.mark.parametrize("name,dim,shift", KERNEL_CASES)
def test_kernel_equals_its_oracle_bit_for_bit(name, dim, shift):
    # the row counts straddle SIMD widths and their tails
    obj, oracle = kernel_case(name, dim, shift)
    with np.errstate(all="ignore"):
        for n in (1, 7, 8, 9, 1000, 1003):
            x = special_batch((n, dim), seed=n)
            got, want = obj.eval(x), oracle(x)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            row_strided = np.repeat(x, 2, axis=0)[::2]
            assert np.array_equal(obj.eval(row_strided).view(np.uint64),
                                  want.view(np.uint64))


@pytest.mark.parametrize("name,dim,shift", KERNEL_CASES)
def test_nan_rows_equal_the_oracle_bit_for_bit(name, dim, shift):
    # rows whose every coordinate is a NaN, of either sign or with a
    # payload, or a NaN next to finite, zero and infinite coordinates
    obj, oracle = kernel_case(name, dim, shift)
    nans = np.array([np.nan, -np.nan, np.array(0x7FF8000000000001).view(np.float64),
                     np.array(0xFFF800000000BEEF).view(np.float64)])
    rng = np.random.default_rng(dim)
    x = rng.choice(np.concatenate([nans, [0.0, -0.0, np.inf, -1.5, 2.0]]),
                   (40, dim))
    x[:len(nans)] = nans[:, None]
    x[len(nans):2 * len(nans), 0] = nans
    for batch in (x, np.asfortranarray(x)):
        with np.errstate(all="ignore"):
            got, want = obj.eval(batch), oracle(batch)
        if batch.flags.c_contiguous or dim != 2 or name == "rastrigin":
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        else:
            # the oracle's einsum adds a Fortran-ordered pair in its own
            # order, so a row of two NaNs may get the other NaN
            assert np.array_equal(np.isnan(got), np.isnan(want))


@pytest.mark.parametrize("name,dim,shift", KERNEL_CASES)
def test_costs_of_a_stack_equals_the_oracle_bit_for_bit(name, dim, shift):
    obj, oracle = kernel_case(name, dim, shift)
    stack = special_batch((3, 2, 50, dim), seed=dim)
    with np.errstate(all="ignore"):
        got = costs_of(stack, obj)
        want = oracle(stack.reshape(-1, dim)).reshape(3, 2, 50)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("name,dim,shift", KERNEL_CASES)
def test_an_objective_never_writes_into_its_batch(name, dim, shift):
    # at a +0.0 shift the terms get the batch itself as z, so a term that
    # wrote into z would raise here, and a cost that aliased it would show
    obj, _ = kernel_case(name, dim, shift)
    x = special_batch((9, dim), seed=dim)
    x.setflags(write=False)
    with np.errstate(all="ignore"):
        got = obj.eval(x)
    assert not np.shares_memory(got, x)


@pytest.mark.parametrize("name", sorted(KERNEL_ORACLES))
def test_fortran_ordered_batch_matches_the_oracle_up_to_the_nan_sign(name):
    # einsum adds a Fortran-ordered pair in its own operand order, so a row
    # of two NaNs may get the other NaN; every other value keeps its bits
    for dim, shift in [(d, s) for d in (1, 2) for s in ("none", "nonzero")]:
        obj, oracle = kernel_case(name, dim, shift)
        for n in (1, 9, 1000, 1003):
            x = np.asfortranarray(special_batch((n, dim), seed=n))
            with np.errstate(all="ignore"):
                got, want = obj.eval(x), oracle(x)
            assert np.array_equal(np.isnan(got), np.isnan(want))
            kept = ~np.isnan(want)
            assert np.array_equal(got[kept].view(np.uint64),
                                  want[kept].view(np.uint64))


@pytest.mark.parametrize("name,dim,shift", [case for case in KERNEL_CASES
                                            if case[1] <= 2])
def test_strided_view_batch_equals_the_oracle_bit_for_bit(name, dim, shift):
    # views whose columns or rows and columns are strided, and a reversed
    # one: the whole-batch term and its column fold see the same values in
    # any layout (row-strided views are in the test above)
    obj, oracle = kernel_case(name, dim, shift)
    for n in (1, 8, 9, 1000, 1003):
        wide = special_batch((2 * n, 2 * dim), seed=n)
        views = {"columns": wide[:n, ::2], "both": wide[1::2, 1::2],
                 "reversed": wide[::-1, :dim]}
        with np.errstate(all="ignore"):
            for layout, x in views.items():
                got, want = obj.eval(x), oracle(x)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), layout


@pytest.mark.parametrize("factory", [ackley, sphere, rastrigin])
@pytest.mark.parametrize("dim, shape", [
    (1, (3, 2)), (2, (3, 1)), (1, (3, 4)), (2, (3,)), (1, ()), (1, (2, 3, 1)),
])
def test_call_rejects_a_batch_of_the_wrong_shape(factory, dim, shape):
    obj = factory(dim)
    expected = re.escape(f"shape ({dim},) or a batch of shape (n, {dim}), "
                         f"got shape {shape}")
    with pytest.raises(ValueError, match=expected):
        obj(np.ones(shape))


def test_consensus_point_rejects_points_of_another_dimension():
    # the objective meets the points in ``costs_of``, which checks them
    pts = np.ones((5, 3))
    with pytest.raises(ValueError, match=re.escape("got shape (5, 3)")):
        consensus_point(pts, costs_of(pts, ackley(1)), 30.0)
