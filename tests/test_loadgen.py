"""Load generator tests: the Figure 3 mix and the closed-loop simulator."""

import random

import pytest

from repro.workloads import (
    ClosedLoopSimulator,
    REQUEST_MIX,
    ServiceDemand,
    empirical_mix,
    sample_session_length,
    sample_think_time,
)


class TestRequestMix:
    def test_weights_sum_to_one(self):
        assert sum(w for _p, w in REQUEST_MIX) == pytest.approx(1.0)

    def test_empirical_matches_figure3(self):
        """Regenerates Figure 3: the spec is the paper's table and the
        sampled mix matches it."""
        assert dict(REQUEST_MIX) == {
            "/get_cars.php": 0.50, "/cars.php": 0.30, "/drives.php": 0.08,
            "/drives_top.php": 0.08, "/friends.php": 0.03,
            "/edit_account.php": 0.01}
        for (path, expected), (path2, observed) in zip(
                REQUEST_MIX, empirical_mix(40000, seed=3)):
            assert path == path2
            assert observed == pytest.approx(expected, abs=0.01)

    def test_think_times_truncated(self):
        rng = random.Random(1)
        samples = [sample_think_time(rng) for _ in range(2000)]
        assert all(0 <= s <= 70.0 for s in samples)
        assert 4.0 < sum(samples) / len(samples) < 10.0

    def test_session_lengths_truncated(self):
        rng = random.Random(2)
        samples = [sample_session_length(rng) for _ in range(500)]
        assert all(s <= 3600.0 for s in samples)


DEMANDS = {path: ServiceDemand(web=0.020, db=0.010)
           for path, _w in REQUEST_MIX}


class TestClosedLoopSimulator:
    def test_throughput_grows_with_clients_until_saturation(self):
        sim = ClosedLoopSimulator(DEMANDS, n_web_servers=2, seed=4)
        small = sim.run(5, duration=600.0)
        large = sim.run(50, duration=600.0)
        assert large.throughput > small.throughput

    def test_saturation_bounded_by_bottleneck(self):
        """With one web server at 20 ms/request the ceiling is 50/s."""
        sim = ClosedLoopSimulator(DEMANDS, n_web_servers=1, seed=5)
        result = sim.run(2000, duration=600.0)
        assert result.throughput <= 50.0 * 1.05

    def test_more_web_servers_raise_web_bound_ceiling(self):
        # 2000 clients offer ~285 req/s: far beyond one server's 50/s
        # ceiling, so the web tier is the bottleneck in both runs.
        one = ClosedLoopSimulator(DEMANDS, n_web_servers=1, seed=6)
        three = ClosedLoopSimulator(DEMANDS, n_web_servers=3, seed=6)
        assert three.run(2000, 600.0).throughput > \
            one.run(2000, 600.0).throughput * 1.5

    def test_response_time_grows_under_load(self):
        sim = ClosedLoopSimulator(DEMANDS, n_web_servers=1, seed=7)
        light = sim.run(5, duration=600.0)
        heavy = sim.run(500, duration=600.0)
        assert heavy.p90_response > light.p90_response

    def test_deterministic_for_fixed_seed(self):
        sim = ClosedLoopSimulator(DEMANDS, n_web_servers=2, seed=8)
        a = sim.run(40, duration=300.0)
        b = sim.run(40, duration=300.0)
        assert a.throughput == b.throughput
        assert a.p90_response == b.p90_response

    def test_peak_throughput_respects_p90_constraint(self):
        sim = ClosedLoopSimulator(DEMANDS, n_web_servers=2, seed=9)
        peak = sim.peak_throughput(max_p90=3.0, duration=400.0,
                                   max_clients=4000)
        assert peak.p90_response <= 3.0
        assert peak.throughput > 0
