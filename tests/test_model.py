"""Tests for the system model: parameters, distributions, request sampling."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedcache import model
from codedcache.model import (
    PopularityDistribution,
    RequestProfile,
    SystemParams,
    make_two_level_pair,
    make_zipf,
    popularity_from_counts,
    read_counts_csv,
    sample_requests,
    substream,
)


def test_params_validation():
    p = SystemParams(4, 2, 1.5, 100)
    assert p.threshold == 1.0 / 3.0
    with pytest.raises(ValueError):
        SystemParams(0, 2, 1.0)
    with pytest.raises(ValueError):
        SystemParams(4, 0, 1.0)
    with pytest.raises(ValueError):
        SystemParams(4, 2, 0.0)
    with pytest.raises(ValueError):
        SystemParams(4, 2, 4.5)  # cache larger than the library
    with pytest.raises(ValueError):
        SystemParams(4, 2, 1.0, 0)


@settings(max_examples=500, deadline=None)
@given(st.floats(min_value=5e-324, max_value=1e308) | st.integers(1, 10**30))
def test_exact_cache_size_is_the_decimal_text(m):
    num, den = SystemParams(max(1, math.ceil(m)), 1, m).exact_cache_size
    assert Fraction(num, den) == Fraction(str(m)) and math.gcd(num, den) == 1


def test_threshold_is_correctly_rounded_from_the_exact_cache_size():
    # M = 1.3 is 13/10, so 1/(K*M) is 10/13, the popularity that counts 10,3
    # give file 0; the float 1.3 is not 13/10, and 1.0 / 1.3 misses it
    p = SystemParams(2, 1, 1.3)
    assert p.exact_cache_size == (13, 10)
    assert p.threshold == 10 / 13 != 1.0 / 1.3
    assert p.popular(np.array([10 / 13, 3 / 13])).tolist() == [True, False]
    # an integer M keeps the bits of the float division
    for k, m in [(10, 2), (100, 20), (7, 3.0), (3, 1)]:
        assert SystemParams(20, k, m).threshold == 1.0 / (k * m)


def test_pmf_validation():
    d = PopularityDistribution(np.array([0.5, 0.5]))
    assert d.n_files == 2 and np.all(np.diff(d.probs) <= 0)
    assert PopularityDistribution(np.array([0.25, 0.75])).n_files == 2  # any order
    with pytest.raises(ValueError):
        PopularityDistribution(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        PopularityDistribution(np.array([1.5, -0.5]))
    with pytest.raises(ValueError):
        PopularityDistribution(np.empty(0))


def test_pmf_rejects_non_finite():
    # a NaN sum is not "more than PMF_TOL away from one", so the sum check
    # alone lets it through
    for bad in ([np.nan, 1.0], [0.5, np.nan, 0.5], [np.inf, 0.0]):
        with pytest.raises(ValueError, match="finite"):
            PopularityDistribution(np.array(bad))


def test_pmf_is_immutable():
    d = PopularityDistribution(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        d.probs[0] = 0.9


def test_zipf_single_file():
    assert make_zipf(1, 2.3).probs.tolist() == [1.0]


def test_zipf_two_files_unit_exponent():
    # weights 1, 1/2 normalize to exactly 2/3, 1/3
    d = make_zipf(2, 1.0)
    assert d.probs.tolist() == [2.0 / 3.0, 1.0 / 3.0]


def test_zipf_zero_exponent_uniform():
    d = make_zipf(5, 0.0)
    assert np.allclose(d.probs, 0.2, atol=1e-15)


def test_zipf_random_instances_are_valid():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        s = float(rng.uniform(0.0, 3.0))
        d = make_zipf(n, s)
        assert abs(d.probs.sum() - 1.0) <= 1e-12
        assert np.all(np.diff(d.probs) <= 0)
        assert (d.probs > 0).all()


def test_zipf_large_negative_exponent_is_a_valid_pmf():
    # a negative exponent favours the last rank; at -1000 its weight is 1
    # and every other weight is at most (3/4)**1000, so no power overflows
    d = make_zipf(4, -1000.0)
    assert abs(d.probs.sum() - 1.0) <= 1e-12
    assert d.probs[-1] == 1.0
    assert np.all(np.diff(d.probs) >= 0)
    assert make_zipf(5, -1.0).probs == pytest.approx(np.arange(1, 6) / 15, rel=1e-12)


def test_two_level_pair_worked_example():
    head, tail = make_two_level_pair(4, 6.0, 12.0)
    assert head.probs.tolist() == [1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0]
    assert tail.probs.tolist() == [1.0 / 6.0, 1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0]


def test_two_level_pair_smallest_instance():
    head, _ = make_two_level_pair(2, 3.0, 6.0)
    assert head.probs.tolist() == [2.0 / 3.0, 1.0 / 3.0]


def test_two_level_pair_rejects_odd_count():
    with pytest.raises(ValueError, match="even N"):
        make_two_level_pair(3, 4.5, 9.0)


def test_two_level_pair_rejects_bad_levels():
    with pytest.raises(ValueError):
        make_two_level_pair(4, 5.0, 12.0)  # 1/5 + 1/12 != 1/4
    with pytest.raises(ValueError):
        make_two_level_pair(4, 12.0, 6.0)  # needs a < b
    with pytest.raises(ValueError):
        make_two_level_pair(4, 8.0, 8.0)


def test_two_level_pair_random_instances_mirror():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = 2 * int(rng.integers(1, 16))
        a = float(rng.uniform(n * 1.05, n * 1.95))
        b = a * n / (a - n)  # forces 1/a + 1/b = 1/n
        head, tail = make_two_level_pair(n, a, b)
        half = n // 2
        assert abs(head.probs.sum() - 1.0) <= 1e-12
        assert np.all(np.diff(head.probs) <= 0)
        assert np.array_equal(head.probs[:half], tail.probs[half:])
        assert np.array_equal(head.probs[half:], tail.probs[:half])


def test_counts_worked_example():
    dist, rank = popularity_from_counts([(7, 3), (2, 1)])
    assert dist.probs.tolist() == [0.75, 0.25]
    assert rank == {7: 0, 2: 1}


def test_counts_tie_goes_to_lower_id():
    dist, rank = popularity_from_counts([(5, 2), (3, 2), (9, 6)])
    assert rank == {9: 0, 3: 1, 5: 2}
    assert dist.probs.tolist() == [0.6, 0.2, 0.2]


def test_counts_errors():
    with pytest.raises(ValueError, match="no count rows"):
        popularity_from_counts([])
    with pytest.raises(ValueError, match="duplicate"):
        popularity_from_counts([(1, 2), (1, 3)])
    with pytest.raises(ValueError, match="zero"):
        popularity_from_counts([(1, 0), (2, 0)])
    with pytest.raises(ValueError, match="nonnegative"):
        popularity_from_counts([(1, 5), (2, -1)])
    # rejected before dividing: nan / nan and inf / inf would warn and
    # yield NaN probabilities
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            popularity_from_counts([(1, 0), (2, bad)])
        with pytest.raises(ValueError, match="finite"):
            popularity_from_counts([(1, bad)])


def test_counts_csv_roundtrip(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("file_id,count\n7,3\n2,1\n")
    assert read_counts_csv(path) == [(7, 3.0), (2, 1.0)]
    # header is optional
    path.write_text("7,3\n2,1\n")
    assert read_counts_csv(path) == [(7, 3.0), (2, 1.0)]


def test_counts_csv_rejects_bad_rows(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("7,3\nnot,a,row\n")
    with pytest.raises(ValueError, match="bad counts row"):
        read_counts_csv(path)


def test_profile_validation():
    prof = RequestProfile(np.array([0, 2, 1]))
    assert len(prof) == 3
    with pytest.raises(ValueError):
        RequestProfile(np.array([0, -1]))
    with pytest.raises(ValueError):
        RequestProfile(np.empty(0, dtype=np.int64))


def _read_only_view(values):
    owner = np.array([9, *values], dtype=np.int64)
    view = owner[1:]
    view.setflags(write=False)
    return owner, view


@pytest.mark.parametrize(
    "kind", ["list", "int32", "writeable int64", "read-only view", "read-only int64"]
)
def test_profile_copies_what_it_cannot_own(kind):
    # writing to the caller's array afterwards must leave the profile as it
    # was, also when the caller turns a read-only array's writes back on
    values = [3, 1, 2, 0]
    if kind == "list":
        writer = given_in = list(values)
    elif kind == "int32":
        writer = given_in = np.array(values, dtype=np.int32)
    elif kind == "writeable int64":
        writer = given_in = np.array(values, dtype=np.int64)
    elif kind == "read-only view":
        writer, given_in = _read_only_view(values)
    else:
        writer = given_in = np.array(values, dtype=np.int64)
        given_in.setflags(write=False)
    prof = RequestProfile(given_in)
    if isinstance(writer, np.ndarray):
        writer.setflags(write=True)
    writer[-1] = 7
    assert prof.requests.tolist() == values
    assert prof.requests.dtype == np.int64
    assert not prof.requests.flags.writeable
    if isinstance(given_in, np.ndarray):
        assert not np.shares_memory(prof.requests, given_in)


def test_sampled_profile_is_read_only():
    prof = sample_requests(make_zipf(6, 1.0), 50, substream(3, 0))
    assert not prof.requests.flags.writeable
    with pytest.raises(ValueError):
        prof.requests[0] = 1


def test_sample_requests_deterministic():
    d = make_zipf(6, 1.0)
    a = sample_requests(d, 50, substream(3, 0)).requests
    b = sample_requests(d, 50, substream(3, 0)).requests
    c = sample_requests(d, 50, substream(3, 1)).requests
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_requests_point_mass():
    d = PopularityDistribution(np.array([1.0]))
    assert (sample_requests(d, 100, substream(0, 0)).requests == 0).all()


def reference_requests(dist, uniforms):
    """Plain inverse cdf: one searchsorted, clamped to the last positive file."""
    idx = np.searchsorted(np.cumsum(dist.probs), uniforms, side="right")
    return np.minimum(idx, np.flatnonzero(dist.probs)[-1])


class _FixedUniforms:
    """Stub generator that hands out a fixed sequence of uniforms in order."""

    def __init__(self, values):
        self.values, self.used = np.asarray(values, dtype=float), 0

    def random(self, size):
        out = self.values[self.used : self.used + size]
        self.used += size
        return out


class _TopUniform:
    """Stub generator whose every uniform is the largest double below 1."""

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))


def test_sample_requests_never_draws_zero_probability_file():
    # the cumsum of ten 0.1s ends at 0.9999999999999999, which the top
    # uniform reaches, so the inverse cdf runs past every file
    d = PopularityDistribution(np.array([0.1] * 10 + [0.0]))
    assert np.cumsum(d.probs)[-1] <= np.nextafter(1.0, 0.0)
    assert (sample_requests(d, 5, _TopUniform()).requests == 9).all()
    for dist in (d, PopularityDistribution(np.array([0.0, 1.0, 0.0])), make_zipf(7, 1.0)):
        got = sample_requests(dist, 9, _TopUniform()).requests
        assert got.tolist() == reference_requests(dist, _TopUniform().random(9)).tolist()


@st.composite
def pmfs(draw):
    """Pmfs from integer weights: zero-probability files, point masses, and
    weights far enough apart to crowd many cdf edges into one bucket."""
    weights = draw(st.lists(
        st.one_of(st.just(0), st.integers(1, 10), st.integers(1, 10**12)),
        min_size=1, max_size=60,
    ))
    if not any(weights):
        weights[draw(st.integers(0, len(weights) - 1))] = 1
    weights = np.array(weights, dtype=float)
    return PopularityDistribution(weights / weights.sum())


@settings(max_examples=200, deadline=None)
@given(dist=pmfs(), n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
def test_sample_requests_matches_plain_inverse_cdf(dist, n, seed):
    got = sample_requests(dist, n, substream(seed, 0)).requests
    assert got.tolist() == reference_requests(dist, substream(seed, 0).random(n)).tolist()


@settings(max_examples=100, deadline=None)
@given(dist=pmfs())
def test_sample_requests_exact_on_edges_and_bucket_bounds(dist):
    # uniforms on and next to every cdf edge and every bucket boundary,
    # where a guide-table bucket or comparison one off would show
    edges = np.cumsum(dist.probs)
    buckets = model._guide_table(edges)[0]
    bounds = np.arange(buckets) / buckets
    points = np.concatenate([edges, bounds])
    points = np.concatenate([points, np.nextafter(points, 0.0), np.nextafter(points, 1.0)])
    points = np.unique(points[(points >= 0) & (points < 1)])
    got = sample_requests(dist, points.size, _FixedUniforms(points)).requests
    assert got.tolist() == reference_requests(dist, points).tolist()


def test_sample_requests_heavy_tail_takes_the_wide_bucket_path():
    # zipf:3 over 10^4 files crowds thousands of tail edges into the last
    # buckets, and some uniforms land there
    dist = make_zipf(10_000, 3)
    buckets, _, _, wide = model._guide_table(np.cumsum(dist.probs))
    uniforms = substream(8, 0).random(200_000)
    assert wide[(uniforms * buckets).astype(int)].any()
    got = sample_requests(dist, uniforms.size, substream(8, 0)).requests
    assert got.tolist() == reference_requests(dist, uniforms).tolist()


@pytest.mark.parametrize("offset", [None, -1, 0, 1])
def test_sample_requests_across_chunk_edges(offset):
    # one draw, and draws ending one short of, on and one past a chunk edge,
    # continue the one-call stream
    n = 1 if offset is None else model.REQUEST_CHUNK + offset
    dist = make_zipf(1000, 0.8)
    got = sample_requests(dist, n, substream(5, 0)).requests
    assert got.tolist() == reference_requests(dist, substream(5, 0).random(n)).tolist()


def test_consecutive_draws_join_into_one_and_build_the_tables_once(monkeypatch):
    # draws of 3, a chunk minus 2 and a chunk plus 7 from one generator are
    # the one draw of their total length; the guide table is built on the
    # distribution's first draw only
    built = []
    table = model._guide_table

    def counted(edges):
        built.append(len(edges))
        return table(edges)

    monkeypatch.setattr(model, "_guide_table", counted)
    dist = make_zipf(1000, 0.8)
    sizes = [3, model.REQUEST_CHUNK - 2, model.REQUEST_CHUNK + 7]
    rng = substream(6, 0)
    parts = [sample_requests(dist, n, rng).requests for n in sizes]
    whole = sample_requests(dist, sum(sizes), substream(6, 0)).requests
    assert np.concatenate(parts).tolist() == whole.tolist()
    assert built == [1000]


def test_sample_requests_empirical_convergence():
    # one million draws track the pmf to within 5e-3 in sup norm
    d = make_zipf(10, 0.8)
    req = sample_requests(d, 10**6, substream(42, 0)).requests
    freq = np.bincount(req, minlength=10) / 10**6
    assert np.abs(freq - d.probs).max() < 5e-3


def test_substream_spawning():
    a = substream(9, 1, 2).random(4)
    b = substream(9, 1, 2).random(4)
    c = substream(9, 2, 1).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
