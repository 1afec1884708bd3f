import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri

from swarmlimit import LimitStudyConfig, NoiseTape, Params, initial_positions
from swarmlimit.noise import _keys, _mix64


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
    # the bound holds for NumPy integer sizes, whose own product would wrap
    with pytest.raises(ValueError, match="dim=4, channels=1 has more than"):
        NoiseTape(0, np.int64(2**31), 2**31, 2**31, 4)
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


@pytest.mark.parametrize("n, dim, message", [
    (2.5, 1, "n must be an integer, got 2.5"),
    (3, 1.0, "dim must be an integer, got 1.0"),
    (np.float64(4.0), 1, f"n must be an integer, got {np.float64(4.0)!r}"),
    ("3", 1, "n must be an integer, got '3'"),
    (0, 1, "n must be >= 1"),
    (3, -1, "dim must be >= 1"),
], ids=["float-n", "float-dim", "numpy-float-n", "str-n", "zero-n", "negative-dim"])
def test_initial_positions_rejects_a_size_that_is_not_a_count_naming_it(n, dim,
                                                                        message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        initial_positions(0, n, dim)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1, 2**70, 1.5])
def test_a_seed_that_is_not_a_64_bit_integer_is_rejected_naming_it(seed):
    # reduced mod 2**64, or truncated, it would draw the noise and cloud of
    # another seed
    message = re.escape(f"seed must be an integer in [0, 2**64), got {seed}")
    with pytest.raises(ValueError, match=message):
        NoiseTape(seed, 1, 2, 3, 1)
    with pytest.raises(ValueError, match=message):
        initial_positions(seed, 2, 1)
    with pytest.raises(ValueError, match=message):
        initial_positions([0, seed], 2, 1)


def test_block_depends_on_the_step_count_except_particle_0_of_replicate_0():
    # the linear index nests steps inside particles, so the horizon enters
    # every particle's index but the first one's on replicate 0
    short = NoiseTape(seed=8, replicates=1, particles=6, steps=100, dim=2)
    long = NoiseTape(seed=8, replicates=1, particles=6, steps=200, dim=2)
    a, b = short.theta_block(0, 0), long.theta_block(0, 0)
    assert np.array_equal(a[0], b[0])
    assert np.all(a[1:] != b[1:])


@pytest.mark.parametrize("channels", [1, 2])
def test_blocks_of_a_replicate_do_not_depend_on_the_replicate_count(channels):
    # the replicate is the leading index, so the count only bounds it:
    # replicate r reads the same blocks from r + 1 replicates as from more
    for r, replicates in ((0, 1), (1, 2), (1, 5), (4, 5), (4, 20)):
        short = NoiseTape(8, r + 1, 6, 5, 2, channels)
        wide = NoiseTape(8, replicates, 6, 5, 2, channels)
        for n in range(5):
            for ch in range(1, channels + 1):
                assert np.array_equal(short.theta_block(r, n, ch),
                                      wide.theta_block(r, n, ch))


@pytest.mark.parametrize("channels", [1, 2])
def test_block_of_a_replicate_sequence_stacks_the_solo_blocks(channels):
    # row j of the block of a sequence is the block of replicate r[j], bit for
    # bit, whatever the order or the other rows
    tape = NoiseTape(6, 4, 7, 5, 3, channels)
    for reps in ((0, 2), (2, 0), range(4), (3,), (1, 1)):
        for n in (0, 4):
            for ch in range(1, channels + 1):
                block = tape.theta_block(reps, n, ch)
                assert block.shape == (len(reps), 7, 3)
                for row, r in zip(block, reps):
                    assert np.array_equal(row, tape.theta_block(r, n, ch))


def test_block_of_a_replicate_sequence_checks_every_replicate():
    tape = NoiseTape(seed=0, replicates=3, particles=2, steps=2, dim=1)
    with pytest.raises(IndexError, match=r"r=3 outside \[0, 3\)"):
        tape.theta_block((0, 3), 0)
    with pytest.raises(IndexError, match=r"r=-1 outside"):
        tape.theta_block(range(-1, 2), 0)
    with pytest.raises(ValueError, match="nonempty range or tuple"):
        tape.theta_block((), 0)


def test_block_keys_match_theta_where_the_keys_wrap():
    # seed 2**64 - 1 and a step count at the 64-bit index bound: every key
    # wraps mod 2**64, and the last step's indices are the largest the
    # layout has, so each row's shift of the base keys wraps too; solo and
    # stacked replicates alternate, and step 5 is drawn before step 0
    replicates, particles, dim, channels = 3, 2, 2, 2
    steps = 2**64 // (replicates * particles * dim * channels)
    tape = NoiseTape(2**64 - 1, replicates, particles, steps, dim, channels)
    for r in (range(3), 1, (2, 0), 1, range(3)):
        rows = tuple(r) if isinstance(r, (range, tuple)) else (r,)
        for n in (5, 0, 1, steps - 1):
            for ch in (1, 2):
                block = tape.theta_block(r, n, ch).reshape(len(rows),
                                                           particles, dim)
                for row, rep in zip(block, rows):
                    for i in range(particles):
                        for k in range(dim):
                            assert row[i, k] == tape.theta(rep, i, n, k, ch)


def test_a_tape_that_has_drawn_blocks_equals_a_fresh_one():
    # the base keys are not part of the tape's value: the tracer keeps
    # (tape, r, n, ch) in a set, and drawing must not change its hash
    fresh = NoiseTape(seed=4, replicates=2, particles=3, steps=6, dim=2,
                      channels=2)
    used = NoiseTape(seed=4, replicates=2, particles=3, steps=6, dim=2,
                     channels=2)
    before = hash(used)
    used.theta_block(range(2), 3, 1)
    used.theta_block(1, 0, 2)
    assert used == fresh
    assert hash(used) == hash(fresh) == before
    assert repr(used) == repr(fresh)
    assert len({(used, 0, 3, 1), (fresh, 0, 3, 1)}) == 1


def test_a_tape_keeps_only_its_base_keys_whatever_it_drew():
    # every block's keys are the tape's one (particles, dim) key array plus
    # a scalar per row, so stacked draws on both channels leave nothing of
    # the stack's size behind
    particles, dim = 500, 2
    tape = NoiseTape(seed=5, replicates=200, particles=particles, steps=3,
                     dim=dim, channels=2)
    # warm up what any draw allocates once, on another tape
    NoiseTape(6, 2, 3, 3, 2, 2).theta_block(range(2), 0, 2)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n in range(tape.steps):
            for ch in (1, 2):
                tape.theta_block(range(200), n, ch)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # one key array and the small objects that hold it, far below a second
    assert kept <= 8 * particles * dim + 4096


def test_a_valid_layout_allocates_no_keys():
    # Params and LimitStudyConfig build a tape only to check its layout; at
    # 10**8 particles its keys would take 800 MB
    tracemalloc.start()
    try:
        p = Params(m=0.5, lam=1.0, sigma=0.5, alpha=1.0, dt=0.1, t_end=1.0,
                   n_particles=10**8, dim=1)
        LimitStudyConfig(m_ladder=(0.2, 0.1), base=p, replicates=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024**2


def _block_keys(tape, r, n, ch):
    """The hash keys of the block ``theta_block(r, n, ch)`` of a solo ``r``."""
    i = np.arange(tape.particles, dtype=np.uint64)[:, None]
    k = np.arange(tape.dim, dtype=np.uint64)[None, :]
    return _keys(np.uint64(tape.seed), tape._linear_index(r, i, n, k, ch - 1))


def test_uniforms_of_one_block_have_pinned_bits():
    # splitmix64, the shift, the exact int-to-float conversion and one
    # rounded sum and product: IEEE arithmetic with no libm call, so these
    # bits do not depend on the build, unlike the ndtri that follows
    tape = NoiseTape(42, 2, 1000, 500, 2, 2)
    h = _mix64(_block_keys(tape, 1, 7, 2)) >> np.uint64(11)
    u = (h.astype(np.float64) + 0.5) * 2.0**-53
    assert hashlib.sha256(u.astype("<f8").tobytes()).hexdigest() == (
        "d6d5a5913e13f4b67f8ec9c677e636fdd7b48d5315713a6ee44828a31063cdf4")
    assert np.array_equal(ndtri(u), tape.theta_block(1, 7, 2))


def test_the_largest_hash_draws_a_finite_variate():
    # this key hashes to 2**53 - 1 after the shift, whose uniform
    # (2**53 - 0.5) 2**-53 rounds to 1.0; it is clamped to the largest
    # double below 1 instead of drawing ndtri(1) = +inf
    tape = NoiseTape(3558559446808474027, 1, 1, 1, 1)
    assert _mix64(_block_keys(tape, 0, 0, 1)) >> np.uint64(11) == 2**53 - 1
    top = ndtri(1.0 - 2.0**-53)
    assert 8.2 < top < 8.21
    assert tape.theta(0, 0, 0, 0) == top
    assert np.array_equal(tape.theta_block(0, 0), [[top]])


THETA_INDEX = {"r": 0, "i": 1, "n": 2, "k": 3, "ch": 4}


@pytest.mark.parametrize("value", [1.5, 1.0, np.float64(1.0)],
                         ids=["fraction", "float", "numpy-float"])
@pytest.mark.parametrize("name", sorted(THETA_INDEX))
def test_theta_rejects_an_index_that_is_not_an_integer(name, value):
    # the uint64 index would truncate 1.5 to 1 and draw another index's
    # variate
    tape = NoiseTape(0, 3, 4, 5, 2, 2)
    index = [1, 1, 1, 1, 1]
    index[THETA_INDEX[name]] = value
    with pytest.raises(IndexError, match=re.escape(
            f"noise tape layout violation: {name}={value} is not an integer")):
        tape.theta(*index)


@pytest.mark.parametrize("value", [1.5, 1.0, np.float64(1.0)],
                         ids=["fraction", "float", "numpy-float"])
@pytest.mark.parametrize("name", ["r", "r in a tuple", "n", "ch"])
def test_theta_block_rejects_an_index_that_is_not_an_integer(name, value):
    # checked before any draw
    tape = NoiseTape(0, 3, 4, 5, 2, 2)
    args = {"r": (value, 1, 1), "r in a tuple": ((0, value), 1, 1),
            "n": (1, value, 1), "ch": (1, 1, value)}[name]
    with pytest.raises(IndexError, match=re.escape(
            f"noise tape layout violation: {name.split()[0]}={value} "
            "is not an integer")):
        tape.theta_block(*args)


def test_numpy_integer_indices_draw_the_int_variates():
    tape = NoiseTape(0, 3, 4, 5, 2, 2)
    i64 = [np.int64(v) for v in (2, 3, 4, 1, 2)]
    assert tape.theta(*i64) == tape.theta(2, 3, 4, 1, 2)
    block = tape.theta_block(np.uint32(2), np.int64(4), np.int8(2))
    assert np.array_equal(block, tape.theta_block(2, 4, 2))
    assert np.array_equal(tape.theta_block((np.int64(0), 2), 4, 2),
                          tape.theta_block((0, 2), 4, 2))


TAPE_SIZES = ("replicates", "particles", "steps", "dim", "channels")


@pytest.mark.parametrize("value", [2.5, 1.0, np.float64(1.0)],
                         ids=["fraction", "float", "numpy-float"])
@pytest.mark.parametrize("name", TAPE_SIZES)
def test_a_tape_size_that_is_not_an_integer_is_rejected_naming_it(name, value):
    # the uint64 index would truncate particles=2.5 to 2, so theta(0, 2, 0, 0)
    # would draw theta(1, 0, 0, 0); channels=1.0 failed only in theta_block
    sizes = dict(zip(TAPE_SIZES, (2, 3, 3, 1, 1)), **{name: value})
    with pytest.raises(ValueError) as excinfo:
        NoiseTape(0, **sizes)
    assert str(excinfo.value) == f"{name} must be an integer, got {value!r}"
