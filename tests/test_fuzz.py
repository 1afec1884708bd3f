"""Property-based checks of the config parser and of ``Params`` validation.

Examples are derived from the test source, not drawn at random, so every run
checks the same cases.
"""

import math
import string
from dataclasses import astuple

from hypothesis import given, settings
from hypothesis import strategies as st

from swarmlimit import MemoryParams, Params
from swarmlimit.config import KNOWN_KEYS, ConfigError, parse_config, serialize_config

FUZZ = settings(derandomize=True, deadline=None, max_examples=200, database=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
word = st.text(alphabet=string.ascii_letters + string.digits + "_-./",
               min_size=1, max_size=20)
integer = st.integers(min_value=-10**18, max_value=10**18)

# one strategy of finite typed values per config key
KEY_VALUES = {
    **dict.fromkeys(("scheme", "objective", "out_path"), word),
    **dict.fromkeys(("dim", "N", "seed", "replicates"), integer),
    **dict.fromkeys(("dt", "T", "m", "lambda", "sigma", "alpha", "lambda1",
                     "lambda2", "sigma1", "sigma2", "nu", "beta"), finite),
    "shift": st.lists(finite, min_size=1, max_size=4).map(tuple),
    "init": st.tuples(st.sampled_from(("gaussian", "uniform")), finite, finite),
}

# config-shaped text: known or arbitrary keys with arbitrary or numeric values
config_lines = st.dictionaries(
    st.sampled_from(sorted(KNOWN_KEYS)) | st.text(),
    st.text() | st.floats().map(str) | st.integers().map(str),
).map(lambda pairs: "\n".join(f"{key} = {value}" for key, value in pairs.items()))

# arbitrary floats, with the ranges Params accepts drawn often enough to pass
any_float = st.floats() | st.floats(min_value=0.0, max_value=2.0)
# counts, and floats in their range that no count may be
any_count = st.integers(-1, 4) | st.floats(-1.0, 4.0)


def test_every_config_key_has_a_value_strategy():
    assert set(KEY_VALUES) == KNOWN_KEYS


@FUZZ
@given(st.text() | config_lines)
def test_parse_config_returns_a_dict_or_raises_config_error(text):
    try:
        values = parse_config(text)
    except ConfigError:
        return
    assert isinstance(values, dict)
    assert set(values) <= KNOWN_KEYS


@FUZZ
@given(st.fixed_dictionaries({}, optional=KEY_VALUES))
def test_serialized_config_parses_back_to_the_same_values(values):
    assert parse_config(serialize_config(values)) == values


@FUZZ
@given(
    scalars=st.tuples(*[any_float] * 6),
    n_particles=any_count,
    dim=any_count,
    memory=st.none() | st.builds(MemoryParams, *[any_float] * 6),
)
def test_params_builds_in_range_or_raises_value_error(scalars, n_particles,
                                                      dim, memory):
    m, lam, sigma, alpha, dt, t_end = scalars
    try:
        p = Params(m=m, lam=lam, sigma=sigma, alpha=alpha, dt=dt, t_end=t_end,
                   n_particles=n_particles, dim=dim, memory=memory)
    except ValueError:
        return
    extra = astuple(p.memory) if p.memory is not None else ()
    assert all(math.isfinite(v) for v in (*scalars, *extra))
    assert 0.0 < p.m <= 1.0
    assert p.lam >= 0.0 and p.sigma >= 0.0 and p.alpha >= 0.0
    assert p.dt > 0.0 and p.t_end >= p.dt
    assert isinstance(p.n_particles, int) and isinstance(p.dim, int)
    assert p.n_particles >= 1 and p.dim >= 1
