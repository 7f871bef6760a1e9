import pytest

from perfbench.worker import harrell_davis, latency_metrics


def test_harrell_davis_matches_beta_weights():
    beta = pytest.importorskip("scipy.stats").beta
    values = [0.1, 0.3, 0.35, 0.9, 1.0, 1.2, 4.0, 5.5]
    n = len(values)
    for p in (0.5, 0.7):
        a, b = p * (n + 1), (1 - p) * (n + 1)
        exact = sum(x * (beta.cdf((i + 1) / n, a, b) - beta.cdf(i / n, a, b))
                    for i, x in enumerate(sorted(values)))
        assert harrell_davis(values, p) == pytest.approx(exact, rel=1e-4)


def test_harrell_davis_is_a_quantile():
    assert harrell_davis([2.0] * 28, 0.6) == pytest.approx(2.0)
    assert harrell_davis(list(range(1, 10)), 0.5) == pytest.approx(5.0)
    assert harrell_davis(list(range(29)), 0.3) < harrell_davis(list(range(29)), 0.7)


def test_latency_metrics_take_each_query_once_at_its_median():
    samples = {0: [1.0, 9.0, 1.0], 1: [2.0], 2: [3.0, 3.0]}
    metrics = latency_metrics(samples, 3)
    assert metrics["wall_s"] == pytest.approx(6.0)
    assert metrics["samples"] == 6
    assert metrics["query_p50_s"] == pytest.approx(2.0)
