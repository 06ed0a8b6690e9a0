"""Tests for the system model: parameters, distributions, request sampling."""
import numpy as np
import pytest

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


def test_pmf_validation():
    d = PopularityDistribution(np.array([0.5, 0.5]))
    assert d.n_files == 2 and d.is_sorted()
    assert not PopularityDistribution(np.array([0.25, 0.75])).is_sorted()
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
        assert d.is_sorted()
        assert (d.probs > 0).all()


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
        assert head.is_sorted()
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
