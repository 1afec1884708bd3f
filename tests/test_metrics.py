import itertools
import re

import numpy as np
import pytest
from mpmath import mp

from swarmlimit import (
    default_bins,
    empirical_moments,
    kl_histogram,
    paired_msq_gap,
    wasserstein2_1d,
)
from swarmlimit.metrics import KL_SMOOTHING, _w2_and_kl_sorted
from swarmlimit.objectives import _square_norm

from certified import kl_histogram_oracle

# 0.5 ln 2 + 0.5 ln(2/3) for binned masses (.5, .5) vs (.25, .75)
KL_TWO_BIN = 0.14384103622589046


def test_w2_identical_clouds_is_zero():
    a = np.array([0.1, 0.7, -0.3])
    assert wasserstein2_1d(a, a) == 0.0


def test_w2_matches_brute_force_over_permutations():
    a = np.array([0.0, 1.0])
    b = np.array([1.0, 2.0])
    brute = min(
        np.sqrt(np.mean((a - np.array(perm)) ** 2))
        for perm in itertools.permutations(b)
    )
    value = wasserstein2_1d(a, b)
    assert value == brute == 1.0


def test_w2_translation():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(200)
    for c in (0.5, -2.0):
        assert wasserstein2_1d(a, a + c) == pytest.approx(abs(c), rel=1e-12)


def test_w2_metric_axioms_on_random_triples(rng):
    for _ in range(200):
        n = rng.integers(1, 50)
        a, b, c = rng.standard_normal((3, n))
        dab = wasserstein2_1d(a, b)
        dba = wasserstein2_1d(b, a)
        assert abs(dab - dba) <= 1e-12
        assert dab >= 0.0
        assert wasserstein2_1d(a, a) <= 1e-12
        assert dab <= wasserstein2_1d(a, c) + wasserstein2_1d(c, b) + 1e-12


def test_w2_squared_lower_bounds_paired_gap(rng):
    for _ in range(200):
        n = rng.integers(1, 60)
        a = rng.standard_normal((n, 1))
        b = rng.standard_normal((n, 1))
        assert wasserstein2_1d(a, b) ** 2 <= paired_msq_gap(a, b) + 1e-15


def test_w2_validation():
    with pytest.raises(ValueError):
        wasserstein2_1d(np.zeros((3, 2)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        wasserstein2_1d(np.zeros(3), np.zeros(4))


def test_paired_gap_examples():
    assert paired_msq_gap(np.zeros((2, 1)), np.zeros((2, 1))) == 0.0
    assert paired_msq_gap(np.zeros((2, 1)), np.ones((2, 1))) == 1.0
    assert paired_msq_gap(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])) == 25.0
    with pytest.raises(ValueError):
        paired_msq_gap(np.zeros((2, 1)), np.zeros((3, 1)))


def test_kl_identical_clouds_near_zero(rng):
    a = rng.standard_normal(500)
    assert 0.0 <= kl_histogram(a, a, default_bins(500)) <= 1e-8


def test_kl_two_bin_oracle():
    mp.dps = 50
    oracle = mp.mpf("0.5") * mp.log(2) + mp.mpf("0.5") * mp.log(mp.mpf(2) / 3)
    assert abs(float(oracle) - KL_TWO_BIN) < 1e-16
    # masses (.5, .5) vs (.25, .75) on the shared two-bin grid over [0.2, 0.9]
    a = np.array([0.2, 0.4, 0.6, 0.8])
    b = np.array([0.3, 0.6, 0.7, 0.9])
    assert kl_histogram(a, b, bins=2) == pytest.approx(KL_TWO_BIN, abs=1e-8)


def test_kl_nonnegative_on_random_pairs(rng):
    for _ in range(100):
        a = rng.standard_normal(rng.integers(2, 200))
        b = rng.standard_normal(rng.integers(2, 200))
        assert kl_histogram(a, b, 16) >= 0.0


def test_kl_degenerate_range_returns_zero():
    a = np.full(5, 2.0)
    assert kl_histogram(a, a, 4) == 0.0


def test_kl_validation():
    with pytest.raises(ValueError, match="bins must be >= 2"):
        kl_histogram(np.zeros(3), np.zeros(3), bins=1)


def test_moments_examples():
    assert empirical_moments(np.zeros((1, 1))) == (0.0, 0.0)
    assert empirical_moments(np.array([[1.0], [-1.0]])) == (1.0, 1.0)
    assert empirical_moments(np.array([[1.0, 1.0]])) == (2.0, 4.0)
    assert empirical_moments(np.array([1.0, -1.0])) == (1.0, 1.0)


@pytest.mark.parametrize("shape", [(), (2, 3, 1), (1, 2, 3, 1)],
                         ids=["scalar", "batch", "stack"])
def test_moments_reject_anything_but_one_cloud_naming_the_shape(shape):
    with pytest.raises(ValueError) as excinfo:
        empirical_moments(np.zeros(shape))
    assert str(excinfo.value) == ("empirical_moments takes one (n,) or (n, dim) "
                                  f"cloud, got shape {shape}")


def test_default_bins():
    assert default_bins(10_000) == 100
    assert default_bins(2) == 2


def _assert_kl_matches_oracle(a, b, bins):
    assert kl_histogram(a, b, bins) == kl_histogram_oracle(a, b, bins)


def test_kl_counts_equal_np_histogram_oracle_bitwise(rng):
    # integer clouds on [-5, 5]: with bins dividing 10, points sit exactly on
    # interior edges, which belong to the bin on their right
    for bins in (2, 5, 10):
        for _ in range(50):
            a = rng.integers(-5, 6, rng.integers(1, 40)).astype(float)
            b = rng.integers(-5, 6, rng.integers(1, 40)).astype(float)
            a[0], b[0] = -5.0, 5.0
            _assert_kl_matches_oracle(a, b, bins)
    # one and two particles, equal and unequal sizes, scales 1e-8 to 1e3
    for scale in (1e-8, 1e-3, 1.0, 1e3):
        for n_a, n_b in ((1, 1), (1, 2), (2, 1), (2, 2), (7, 300), (1000, 10)):
            for _ in range(10):
                a = scale * rng.standard_normal(n_a)
                b = scale * rng.standard_normal(n_b) + scale * rng.uniform(-2, 2)
                _assert_kl_matches_oracle(a, b, default_bins(max(n_a, n_b)))
                _assert_kl_matches_oracle(a, b, 2)
    # ties: a coarse grid repeats values, and the extremes tie across clouds
    for _ in range(50):
        a = np.round(rng.standard_normal(500), 1)
        b = np.round(rng.standard_normal(400), 1)
        _assert_kl_matches_oracle(a, b, default_bins(500))


def test_kl_stack_with_a_degenerate_slice_matches_oracle_bitwise(rng):
    # slice 0 and the reference are one repeated point (lo == hi): that slice
    # gives 0, while each other slice bins on the edges of its own range.
    # Those slices hold every interior edge and the float just below it, so
    # edges off by one ulp (a vectorized linspace over all slices switches
    # its formula when one step is 0) would move a count.
    bins = 6
    b = np.full(40, 2.0)
    stack = np.full((4, 4 * bins + 2), 2.0)
    for k in range(1, 4):
        lo, hi = 2.0 - rng.uniform(0.1, 3.0), 2.0 + rng.uniform(0.1, 3.0)
        edges = np.linspace(lo, hi, bins + 1)
        stack[k] = np.concatenate([edges, np.nextafter(edges[1:-1], -np.inf),
                                   rng.uniform(lo, hi, 2 * bins + 2)])
    out = kl_histogram(stack, b, bins)
    assert out.shape == (4,)
    assert out[0] == 0.0 and np.all(out[1:] > 0.0)
    for k in range(4):
        assert out[k] == kl_histogram_oracle(stack[k], b, bins)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_stacked_pair_metrics_equal_per_slice_calls_bitwise(rng, k):
    # each metric sorts, bins and reduces within one slice, so entry k has
    # the bits of the call on that slice alone
    for n in (1, 2, 7, 8, 9, 130, 1000, 10_000):
        scales = np.array([0.1, 1.0, 3.0, 10.0, 1e-6])[:k, None]
        stack = scales * rng.standard_normal((k, n)) + rng.uniform(-1, 1, (k, 1))
        ref = rng.standard_normal(n)
        bins = default_bins(n)
        w2 = wasserstein2_1d(stack, ref)
        kl = kl_histogram(stack, ref, bins)
        other = rng.standard_normal(n // 2 + 1)
        kl_other = kl_histogram(stack, other, bins)
        assert w2.shape == kl.shape == kl_other.shape == (k,)
        for j in range(k):
            assert w2[j] == wasserstein2_1d(stack[j], ref)
            assert kl[j] == kl_histogram(stack[j], ref, bins)
            assert kl_other[j] == kl_histogram(stack[j], other, bins)
        # the (n, 1) column form of the same clouds
        assert np.array_equal(wasserstein2_1d(stack[..., None], ref[:, None]), w2)
        assert np.array_equal(kl_histogram(stack[..., None], ref[:, None], bins), kl)
        for dim in (1, 2, 5):
            clouds = rng.standard_normal((k, n, dim))
            ref_cloud = rng.standard_normal((n, dim))
            gap = paired_msq_gap(clouds, ref_cloud)
            assert gap.shape == (k,)
            for j in range(k):
                assert gap[j] == paired_msq_gap(clouds[j], ref_cloud)


def test_pair_metrics_reject_a_stack_of_the_wrong_particle_count():
    for metric, a, b in ((wasserstein2_1d, np.zeros((3, 5)), np.zeros(4)),
                         (paired_msq_gap, np.zeros((3, 5, 2)), np.zeros((4, 2)))):
        with pytest.raises(ValueError, match=re.escape(str(b.shape))) as excinfo:
            metric(a, b)
        assert str(a.shape) in str(excinfo.value)


def test_pair_metric_shapes_resolve_by_the_stack_rule():
    # (K, 1) against (1,): a stack of K one-point clouds
    a = np.array([[0.0], [1.0], [2.0]])
    b = np.zeros(1)
    assert np.array_equal(wasserstein2_1d(a, b), [0.0, 1.0, 2.0])
    assert np.array_equal(paired_msq_gap(a, b), [0.0, 1.0, 4.0])
    one_point = kl_histogram_oracle(np.array([1.0]), b, 2)
    assert np.array_equal(kl_histogram(a, b, 2), [0.0, one_point, one_point])
    # (N, 1) against (N,): also a stack of N one-point clouds, so the metrics
    # that pair particles reject it and the KL compares each point to b
    a = np.array([[0.0], [1.0], [3.0]])
    b = np.array([0.0, 1.0, 3.0])
    for metric in (wasserstein2_1d, paired_msq_gap):
        with pytest.raises(ValueError, match=r"\(3,\)"):
            metric(a, b)
    kl = kl_histogram(a, b, 3)
    assert kl.shape == (3,)
    assert all(kl[k] == kl_histogram(a[k], b, 3) for k in range(3))
    # one cloud in either form gives a float
    assert wasserstein2_1d(a, b[:, None]) == wasserstein2_1d(a[:, 0], b) == 0.0
    assert paired_msq_gap(b, b) == paired_msq_gap(a, a) == 0.0
    assert isinstance(kl_histogram(b, b, 3), float)


def test_kl_rejects_non_finite_samples():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            kl_histogram(np.array([0.0, bad]), np.zeros(3), 2)
        with pytest.raises(ValueError, match="finite"):
            kl_histogram(np.zeros((2, 3)), np.array([1.0, bad]), 2)
        # a batch of references, one of them not finite, against a stack
        refs = np.zeros((2, 2, 1))
        refs[1, 0] = bad
        with pytest.raises(ValueError, match="finite samples"):
            kl_histogram(np.zeros((3, 2, 2, 1)), refs, 2)


@pytest.mark.parametrize("k, r", [(1, 1), (3, 2), (5, 4)])
def test_batched_pair_metrics_equal_per_pair_calls_bitwise(rng, k, r):
    # a (K, R, n, 1) stack against an (R, n, 1) batch of references: entry
    # [k, r] has the bits of the call on a[k, r] and b[r] alone, given as
    # (n,) samples or (n, 1) columns; pair [0, r - 1] is one repeated point
    for n in (1, 2, 9, 130, 1000):
        a = rng.uniform(0.1, 3.0, (k, r, 1, 1)) * rng.standard_normal((k, r, n, 1))
        b = rng.standard_normal((r, n, 1))
        a[0, r - 1] = b[r - 1] = 1.5
        other = rng.standard_normal((r, n // 2 + 1, 1))
        bins = default_bins(n)
        w2 = wasserstein2_1d(a, b)
        kl = kl_histogram(a, b, bins)
        kl_other = kl_histogram(a, other, bins)
        assert w2.shape == kl.shape == kl_other.shape == (k, r)
        assert w2[0, r - 1] == kl[0, r - 1] == 0.0
        for i in range(k):
            for j in range(r):
                for x, y, z in ((a[i, j, :, 0], b[j, :, 0], other[j, :, 0]),
                                (a[i, j], b[j], other[j])):
                    assert w2[i, j] == wasserstein2_1d(x, y)
                    assert kl[i, j] == kl_histogram(x, y, bins)
                    assert kl_other[i, j] == kl_histogram(x, z, bins)
                assert kl[i, j] == kl_histogram_oracle(a[i, j, :, 0], b[j, :, 0], bins)
        # one set of R clouds against the batch: one value per replicate
        assert np.array_equal(wasserstein2_1d(a[1 % k], b), w2[1 % k])
        assert np.array_equal(kl_histogram(a[1 % k], b, bins), kl[1 % k])
        for dim in (1, 3):
            clouds = rng.standard_normal((k, r, n, dim))
            refs = rng.standard_normal((r, n, dim))
            gap = paired_msq_gap(clouds, refs)
            assert gap.shape == (k, r)
            for i in range(k):
                for j in range(r):
                    assert gap[i, j] == paired_msq_gap(clouds[i, j], refs[j])
                    if dim == 1:
                        assert gap[i, j] == paired_msq_gap(clouds[i, j, :, 0],
                                                           refs[j, :, 0])


def test_a_batch_of_references_needs_its_dim_axis():
    # (R, n) is one (n, dim) cloud for the paired gap, and no cloud at all
    # for the 1-d metrics unless n = 1
    a, b = np.zeros((2, 3, 5)), np.zeros((3, 5))
    assert paired_msq_gap(a, b).shape == (2,)
    with pytest.raises(ValueError, match=r"batch \(R, n, dim\).*\(3, 5\)"):
        wasserstein2_1d(a, b)
    with pytest.raises(ValueError, match=r"\(3, 5, 2\)"):
        kl_histogram(np.zeros((2, 3, 5, 1)), np.zeros((3, 5, 2)), 2)
    with pytest.raises(ValueError, match=r"\(4, 5, 1\)"):
        wasserstein2_1d(np.zeros((2, 3, 5, 1)), np.zeros((4, 5, 1)))


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("bins", [2.5, 3.0, np.float64(4.0), "4", None, 4 + 0j])
def test_bins_must_be_an_integer_checked_before_any_sort(bins, monkeypatch):
    def no_sort(*args, **kwargs):
        raise AssertionError("sorted before checking bins")

    monkeypatch.setattr(np, "sort", no_sort)
    with pytest.raises(ValueError) as excinfo:
        kl_histogram(np.zeros(3), np.zeros(3), bins)
    assert str(excinfo.value) == f"bins must be an integer, got {bins!r}"


def test_bins_may_be_any_integer_type():
    a, b = np.array([0.0, 1.0, 3.0]), np.array([0.5, 2.0, 2.5])
    kl = kl_histogram(a, b, 3)
    for bins in (np.int64(3), np.int32(3), np.uint8(3)):
        assert _bits(kl_histogram(a, b, bins)) == _bits(kl)


def test_kl_of_a_degenerate_pair_is_0_wherever_its_point_lies():
    # the pair bins on [0, 1], where a point below 0 leaves every bin empty;
    # the masses divide by the sample size, so no 0 / 0 warns (the tests turn
    # RuntimeWarnings into errors)
    for point in (-2.0, -0.0, 0.0, 0.5, 1.0, 1.5, -1e300):
        one = np.full(3, point)
        assert kl_histogram(one, one, 2) == 0.0
        assert wasserstein2_1d(one, one) == 0.0
        assert paired_msq_gap(one, one) == 0.0
        stack = np.stack([one, one + 1.0, one - 1.0])
        kl = kl_histogram(stack, one, 3)
        assert kl[0] == 0.0
        assert _bits(kl[1:]).tolist() == [_bits(kl_histogram(x, one, 3))
                                          for x in stack[1:]]


def test_a_pair_of_zero_linspace_step_leaves_the_edges_of_the_others():
    # a pair whose nonzero range is below bins times the smallest subnormal
    # has a linspace step of 0, which switches linspace's formula for every
    # pair of a call; here it moved an edge of pair 0 by one ulp onto three
    # of its points, so its KL in the batch differed from its own call
    bins, lo, hi = 20, -2.0, 1.7
    step_formula = np.linspace(lo, hi, bins + 1)
    zero_step_formula = np.arange(bins + 1) / bins * (hi - lo) + lo
    j = np.flatnonzero(step_formula != zero_step_formula)[0]
    edge = min(step_formula[j], zero_step_formula[j])
    a = np.zeros((1, 2, 6, 1))
    b = np.zeros((2, 6, 1))
    a[0, 0, :, 0] = [lo, edge, edge, edge, 0.5, hi]
    b[0, :, 0] = [lo, edge - 0.01, 0.1, 0.2, 0.3, hi]
    a[0, 1, 3] = b[1, 1] = 5e-324
    assert 0.0 < 5e-324 and 5e-324 / bins == 0.0
    kl = kl_histogram(a, b, bins)
    for j in range(2):
        assert _bits(kl[0, j]) == _bits(kl_histogram(a[0, j], b[j], bins))


def _linspace_edges(lo, hi, bins):
    """The edges of every pair with ends ``lo`` and ``hi`` from one
    vectorized ``np.linspace`` call, on [0, 1] for a pair whose step is 0,
    and from a second call for the pairs of step 0 whose range is nonzero:
    the oracle of the edges that ``kl_histogram`` builds by linspace's own
    arithmetic."""
    flat = lo == hi
    zero_step = (hi - lo) / bins == 0.0
    edges = np.linspace(np.where(zero_step, 0.0, lo),
                        np.where(zero_step, 1.0, hi), bins + 1, axis=-1)
    tiny = zero_step & ~flat
    if tiny.any():
        edges[tiny] = np.linspace(lo[tiny], hi[tiny], bins + 1, axis=-1)
    return edges


def _kl_on_edges(x, y, edges):
    """Smoothed histogram KL of samples ``x`` and ``y`` on explicit edges."""
    masses = []
    for s in (np.sort(x), np.sort(y)):
        idx = s.searchsorted(edges)
        idx[-1] = len(s)
        mass = np.diff(idx) / len(s) + KL_SMOOTHING
        masses.append(mass / np.add.reduce(mass))
    p, q = masses
    return np.add.reduce(p * np.log(p / q))


@pytest.mark.parametrize("bins", [2, 33, 100])
def test_kl_edges_keep_the_bits_of_linspace(rng, bins):
    # b is one point, -0.0, so slice 0 is flat and slice 1, with a range of
    # one subnormal, has a linspace step of 0; slices 2 and 3 start at lo =
    # -0.0, where edge 0 is 0.0 + -0.0 = +0.0; slice 4's width overflows to
    # inf, which makes edge 0 0 * inf = NaN.  Slices 2, 3 and 5 to 7 hold
    # every interior edge of their range and the float just below it, so an
    # edge off by one ulp would move a count.
    n = 3 * bins
    b = np.full(n, -0.0)
    stack = np.zeros((8, n))
    stack[1, ::2] = 5e-324
    stack[4, :2] = -1e308, 1e308
    assert (5e-324 / bins == 0.0) and 1e308 - -1e308 == np.inf
    ranges = {2: (-0.0, rng.uniform(0.5, 3.0)), 3: (-0.0, 2.0)}
    for k, scale in zip((5, 6, 7), (1e-3, 1.0, 1e3)):
        ranges[k] = -scale * rng.uniform(0.1, 3.0), scale * rng.uniform(0.1, 3.0)
    for k, (lo, hi) in ranges.items():
        edges = np.linspace(lo, hi, bins + 1)
        stack[k] = np.concatenate([edges, np.nextafter(edges[1:-1], -np.inf),
                                   rng.uniform(lo, hi, n - 2 * bins)])
    with np.errstate(over="ignore", invalid="ignore"):
        # the whole stack, and the normal slices alone, where no step is 0
        for a in (stack, stack[2:]):
            lo = np.minimum(a.min(axis=-1), b.min())
            hi = np.maximum(a.max(axis=-1), b.max())
            edges = _linspace_edges(lo, hi, bins)
            assert _bits(edges[-6, 0]) == _bits(0.0) and np.isnan(edges[-4, 0])
            want = [0.0 if lo[k] == hi[k] else _kl_on_edges(a[k], b, edges[k])
                    for k in range(len(a))]
            assert np.array_equal(_bits(kl_histogram(a, b, bins)), _bits(want))
        # each pair alone, where one linspace call makes its edges
        for k in range(1, len(stack)):
            lo = min(stack[k].min(), -0.0)
            hi = max(stack[k].max(), -0.0)
            want = _kl_on_edges(stack[k], b, np.linspace(lo, hi, bins + 1))
            assert _bits(kl_histogram(stack[k], b, bins)) == _bits(want)


def _kernel_cases(rng, k, r, n):
    """``(a, b)``: a ``(K, R, n, 1)`` stack and an ``(R, n, 1)`` batch of
    half-integer samples with ties and signed zeros; then the same with a
    degenerate pair ``[0, r - 1]`` (one repeated point in both clouds, lo ==
    hi); then the same with a pair ``[k - 1, 0]`` whose nonzero range is
    below bins times the smallest subnormal, where linspace's step is 0."""
    a = rng.integers(-4, 5, (k, r, n, 1)) / 2.0
    b = rng.integers(-4, 5, (r, n, 1)) / 2.0
    a[a == 0.0] = -0.0
    yield a, b
    degenerate_a, degenerate_b = a.copy(), b.copy()
    degenerate_a[0, r - 1] = degenerate_b[r - 1] = 1.5
    yield degenerate_a, degenerate_b
    tiny_a, tiny_b = a.copy(), b.copy()
    tiny_a[k - 1, 0] = rng.choice([0.0, -0.0, 5e-324], (n, 1))
    tiny_b[0] = rng.choice([0.0, -0.0, 5e-324], (n, 1))
    tiny_a[k - 1, 0, 0] = 5e-324
    tiny_b[0, 0] = -0.0
    yield tiny_a, tiny_b


@pytest.mark.parametrize("k, r", [(1, 1), (3, 2)])
def test_w2_and_kl_have_the_bits_of_the_separate_calls(rng, k, r):
    # the kernel a coupled pass runs on samples it has sorted itself
    for n in (1, 2, 9, 400):
        bins = default_bins(n)
        for case, (a, b) in enumerate(_kernel_cases(rng, k, r, n)):
            w2, kl = _w2_and_kl_sorted(np.sort(a[..., 0]), np.sort(b[..., 0]),
                                       bins)
            assert w2.shape == kl.shape == (k, r)
            assert np.array_equal(_bits(w2), _bits(wasserstein2_1d(a, b)))
            assert np.array_equal(_bits(kl), _bits(kl_histogram(a, b, bins)))
            if case == 1:
                assert w2[0, r - 1] == kl[0, r - 1] == 0.0
            if case == 2:
                pair = np.concatenate([a[k - 1, 0], b[0]])
                assert pair.min() < pair.max()
                assert (pair.max() - pair.min()) / bins == 0.0
            # each pair alone: the kernel on its sorted samples, and the
            # separate calls on (n, 1) columns and on (n,) samples
            for i in range(k):
                for j in range(r):
                    if case < 2 or (i, j) != (k - 1, 0):
                        # np.histogram, which the oracle calls, rejects the
                        # range too small for a nonzero bin width
                        oracle = kl_histogram_oracle(a[i, j, :, 0], b[j, :, 0], bins)
                        assert _bits(kl[i, j]) == _bits(oracle)
                    want = _bits([w2[i, j], kl[i, j]]).tolist()
                    pair = _w2_and_kl_sorted(np.sort(a[i, j, :, 0]),
                                             np.sort(b[j, :, 0]), bins)
                    assert _bits(pair).tolist() == want
                    assert all(isinstance(value, float) for value in pair)
                    for x, y in ((a[i, j], b[j]), (a[i, j, :, 0], b[j, :, 0])):
                        assert _bits([wasserstein2_1d(x, y),
                                      kl_histogram(x, y, bins)]).tolist() == want


@pytest.mark.parametrize("k, r", [(1, 1), (3, 2)])
def test_paired_msq_gap_of_1d_samples_is_the_mean_squared_difference(rng, k, r):
    # in one dimension a particle's squared distance is its squared
    # difference, the one term of the einsum's sum, so the gap has the bits
    # of the mean of (a - b)**2 along the particle axis, per pair and stacked
    for n in (1, 2, 9, 400):
        for case, (a, b) in enumerate(_kernel_cases(rng, k, r, n)):
            gap = paired_msq_gap(a, b)
            assert gap.shape == (k, r)
            sq = (a - b)[..., 0] ** 2
            assert np.array_equal(_bits(gap), _bits(np.add.reduce(sq, axis=-1) / n))
            if case == 1:
                assert gap[0, r - 1] == 0.0
            for i in range(k):
                for j in range(r):
                    for x, y in ((a[i, j], b[j]), (a[i, j, :, 0], b[j, :, 0])):
                        value = paired_msq_gap(x, y)
                        assert isinstance(value, float)
                        assert _bits(value) == _bits(gap[i, j])


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("dim", range(1, 10))
def test_square_norm_has_the_bits_of_each_einsum_spelling(rng, dim, order):
    # the one squared-norm kernel of the objectives and the metrics adds the
    # columns as written up to dim 2 and calls einsum above; every einsum
    # spelling gives its bits, row by row, on a batch or a stack of them in
    # either memory order
    for shape in ((7, dim), (3, 2, 7, dim), (5, 2, 1000, dim)):
        z = np.asarray(rng.normal(size=shape) * rng.lognormal(size=shape),
                       order=order)
        got = _square_norm(z)
        assert got.shape == shape[:-1]
        spellings = ["...ij,...ij->...i", "...j,...j->..."]
        if z.ndim == 2:
            spellings.append("ij,ij->i")
        for spelling in spellings:
            assert np.array_equal(_bits(got), _bits(np.einsum(spelling, z, z))), spelling


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("dim", [1, 2, 3, 9])
def test_paired_gap_and_moments_keep_the_bits_of_their_einsums(rng, dim, order):
    # both take their squared norms from _square_norm, with the bits of the
    # einsum each spelled before
    a = np.asarray(rng.normal(size=(5, 2, 1000, dim)), order=order)
    b = np.asarray(rng.normal(size=(2, 1000, dim)), order=order)
    diff = a - b
    sq = np.einsum("...ij,...ij->...i", diff, diff)
    assert np.array_equal(_bits(paired_msq_gap(a, b)),
                          _bits(np.add.reduce(sq, axis=-1) / 1000))
    x = np.asarray(b[1], order=order)
    sq = np.einsum("ij,ij->i", x, x)
    assert _bits(empirical_moments(x)).tolist() == \
        _bits([np.mean(sq), np.mean(sq * sq)]).tolist()
