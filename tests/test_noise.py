import numpy as np
import pytest

from swarmlimit import NoiseTape, initial_positions


def test_theta_repeatable():
    tape = NoiseTape(seed=42, replicates=2, particles=5, steps=7, dim=3, channels=2)
    first = tape.theta(1, 4, 6, 2, 2)
    assert tape.theta(1, 4, 6, 2, 2) == first


def test_theta_block_matches_scalar_queries():
    tape = NoiseTape(seed=9, replicates=1, particles=6, steps=4, dim=2)
    block = tape.theta_block(0, 3, 1)
    for i in range(6):
        for k in range(2):
            assert block[i, k] == tape.theta(0, i, 3, k, 1)


def test_moments_over_large_sweep():
    # 1e6 variates: CLT bounds |mean| < 5/sqrt(n) and |var - 1| < 0.01
    tape = NoiseTape(seed=42, replicates=1, particles=1000, steps=500, dim=2)
    vals = np.concatenate([tape.theta_block(0, n).ravel() for n in range(500)])
    assert vals.size == 1_000_000
    assert abs(vals.mean()) < 5 / np.sqrt(vals.size)
    assert abs(vals.var() - 1.0) < 0.01


def test_distinct_seeds_differ():
    a = NoiseTape(seed=1, replicates=1, particles=100, steps=1, dim=1).theta_block(0, 0)
    b = NoiseTape(seed=2, replicates=1, particles=100, steps=1, dim=1).theta_block(0, 0)
    assert not np.any(a == b)


def test_adjacent_indices_look_independent():
    tape = NoiseTape(seed=3, replicates=1, particles=2, steps=20_000, dim=1)
    series = np.array([tape.theta_block(0, n)[:, 0] for n in range(20_000)])
    corr = np.corrcoef(series[:, 0], series[:, 1])[0, 1]
    assert abs(corr) < 5 / np.sqrt(20_000)


def test_layout_violations_raise():
    tape = NoiseTape(seed=0, replicates=2, particles=3, steps=4, dim=1, channels=1)
    with pytest.raises(IndexError, match="layout violation"):
        tape.theta(2, 0, 0, 0, 1)
    with pytest.raises(IndexError):
        tape.theta(0, 3, 0, 0, 1)
    with pytest.raises(IndexError):
        tape.theta(0, 0, 4, 0, 1)
    with pytest.raises(IndexError):
        tape.theta(0, 0, 0, 1, 1)
    with pytest.raises(IndexError):
        tape.theta(0, 0, 0, 0, 2)
    with pytest.raises(IndexError):
        tape.theta_block(0, 0, 0)
    with pytest.raises(ValueError):
        NoiseTape(seed=0, replicates=1, particles=1, steps=1, dim=1, channels=3)
    # the uint64 linear index must not wrap: at 2**33 x 2**33 particles 2**31
    # and 2**32 + 2**31 would share index 0
    with pytest.raises(ValueError, match=r"^noise tape layout replicates=1, "
                       r"particles=8589934592, steps=8589934592, dim=1, "
                       r"channels=1 has more than 2\*\*64 indices$"):
        NoiseTape(0, 1, 2**33, 2**33, 1)
    with pytest.raises(ValueError, match="channels=2 has more than"):
        NoiseTape(0, 1, 2**32, 2**32, 1, channels=2)
    # exactly 2**64 indices fit, and the last one is a variate like any other
    full = NoiseTape(0, 1, 2**32, 2**32, 1)
    assert np.isfinite(full.theta(0, 2**32 - 1, 2**32 - 1, 0))


def test_initial_positions_gaussian_moments():
    cloud = initial_positions(7, 10_000, 2, ("gaussian", 0.0, 1.0))
    assert cloud.shape == (10_000, 2)
    assert np.all(np.abs(cloud.mean(axis=0)) < 0.05)


def test_initial_positions_uniform_support():
    cloud = initial_positions(7, 10_000, 1, ("uniform", -3.0, 3.0))
    assert np.all(cloud >= -3.0) and np.all(cloud <= 3.0)


def test_initial_positions_reproducible():
    a = initial_positions(11, 100, 3, ("gaussian", 0.0, 2.0))
    b = initial_positions(11, 100, 3, ("gaussian", 0.0, 2.0))
    assert np.array_equal(a, b)
    c = initial_positions([11, 4], 100, 3, ("gaussian", 0.0, 2.0))
    assert not np.array_equal(a, c)


def test_initial_positions_validation():
    with pytest.raises(ValueError):
        initial_positions(0, 10, 1, ("gaussian", 0.0, 0.0))
    with pytest.raises(ValueError):
        initial_positions(0, 10, 1, ("uniform", 3.0, -3.0))
    with pytest.raises(ValueError):
        initial_positions(0, 10, 1, ("poisson", 1.0, 2.0))
    with pytest.raises(ValueError):
        initial_positions(0, 0, 1, ("gaussian", 0.0, 1.0))


def test_block_depends_on_the_step_count_except_particle_0_of_replicate_0():
    # the linear index nests steps inside particles, so the horizon enters
    # every particle's index but the first one's on replicate 0
    short = NoiseTape(seed=8, replicates=1, particles=6, steps=100, dim=2)
    long = NoiseTape(seed=8, replicates=1, particles=6, steps=200, dim=2)
    a, b = short.theta_block(0, 0), long.theta_block(0, 0)
    assert np.array_equal(a[0], b[0])
    assert np.all(a[1:] != b[1:])
