"""Unit tests for deterministic RNG streams."""

import numpy as np
import pytest

from repro.sim.rng import RngStreams, _mix, _stable_hash


def test_same_seed_same_stream():
    a = RngStreams(7).stream("ssd").random(5)
    b = RngStreams(7).stream("ssd").random(5)
    assert np.array_equal(a, b)


def test_different_names_independent():
    streams = RngStreams(7)
    a = streams.stream("ssd").random(5)
    b = streams.stream("network").random(5)
    assert not np.array_equal(a, b)


def test_stream_creation_order_irrelevant():
    one = RngStreams(3)
    one.stream("a")
    first = one.stream("b").random(4)

    two = RngStreams(3)
    second = two.stream("b").random(4)  # created without "a"
    assert np.array_equal(first, second)


def test_stream_is_cached():
    streams = RngStreams(0)
    assert streams.stream("x") is streams.stream("x")


def test_jitter_zero_cv_is_exact(rng):
    assert rng.jitter("any", 5.0, 0.0) == 5.0


def test_jitter_zero_mean_is_zero(rng):
    assert rng.jitter("any", 0.0, 0.5) == 0.0


def test_jitter_positive(rng):
    samples = [rng.jitter("lat", 1.0, 0.3) for _ in range(200)]
    assert all(s > 0 for s in samples)


def test_jitter_mean_approximately_right(rng):
    samples = [rng.jitter("lat", 2.0, 0.1) for _ in range(3000)]
    assert np.mean(samples) == pytest.approx(2.0, rel=0.02)


def test_jitter_cv_approximately_right(rng):
    samples = np.array([rng.jitter("lat", 1.0, 0.2) for _ in range(5000)])
    assert samples.std() / samples.mean() == pytest.approx(0.2, rel=0.1)


def test_jitter_validation(rng):
    with pytest.raises(ValueError):
        rng.jitter("x", -1.0, 0.1)
    with pytest.raises(ValueError):
        rng.jitter("x", 1.0, -0.1)


def test_jitter_rejects_nan(rng):
    with pytest.raises(ValueError, match="mean"):
        rng.jitter("x", float("nan"), 0.1)
    with pytest.raises(ValueError, match="cv"):
        rng.jitter("x", 1.0, float("nan"))
    # NaN cv with a zero mean, or NaN mean with a zero cv, is still NaN
    with pytest.raises(ValueError):
        rng.jitter("x", 0.0, float("nan"))
    with pytest.raises(ValueError):
        rng.jitter("x", float("nan"), 0.0)


def test_spawn_children_differ():
    root = RngStreams(9)
    c0 = root.spawn(0).stream("s").random(4)
    c1 = root.spawn(1).stream("s").random(4)
    assert not np.array_equal(c0, c1)


def test_spawn_deterministic():
    a = RngStreams(9).spawn(3).stream("s").random(4)
    b = RngStreams(9).spawn(3).stream("s").random(4)
    assert np.array_equal(a, b)


def test_stable_hash_is_stable():
    # FNV-1a of "ssd" must never change across versions/platforms
    assert _stable_hash("ssd") == _stable_hash("ssd")
    assert _stable_hash("ssd") != _stable_hash("sse")


def test_mix_distributes():
    outputs = {_mix(1, i) for i in range(100)}
    assert len(outputs) == 100


def test_names_iterates_created():
    streams = RngStreams(0)
    streams.stream("a")
    streams.stream("b")
    assert sorted(streams.names()) == ["a", "b"]
