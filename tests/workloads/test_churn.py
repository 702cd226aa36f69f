"""The churn engine: seed-determinism, laziness, the live-flow bound,
SYN windows, and stats coherence."""

import pytest

from repro.classifier.flow import FiveTuple
from repro.workloads import ChurnEngine, ChurnSpec, PhaseWindow


def drain(spec, count):
    return list(ChurnEngine(spec).packets(count))


class TestDeterminism:
    @pytest.mark.parametrize("builder", [ChurnSpec.steady,
                                         ChurnSpec.high_churn,
                                         ChurnSpec.syn_flood])
    def test_same_seed_bit_identical(self, builder):
        assert drain(builder(seed=11), 3000) == drain(builder(seed=11), 3000)

    def test_different_seeds_diverge(self):
        assert (drain(ChurnSpec.high_churn(seed=1), 1000)
                != drain(ChurnSpec.high_churn(seed=2), 1000))

    def test_chunked_draw_equals_one_draw(self):
        # Consuming the stream in pieces must not change it.
        whole = drain(ChurnSpec.high_churn(seed=5), 2000)
        engine = ChurnEngine(ChurnSpec.high_churn(seed=5))
        pieces = (list(engine.packets(700)) + list(engine.packets(700))
                  + list(engine.packets(600)))
        assert pieces == whole


class TestLaziness:
    def test_packets_is_a_generator(self):
        stream = ChurnEngine(ChurnSpec.high_churn(seed=1)).packets(10**9)
        first = next(stream)
        assert isinstance(first, FiveTuple)
        stream.close()

    def test_memory_bounded_by_live_flows(self):
        # A stream whose total flow population far exceeds max_live must
        # never track more than max_live flows at once.
        spec = ChurnSpec(seed=3, arrival_rate=8.0, pareto_alpha=2.0,
                         min_packets=1, max_packets=4, max_live=64)
        engine = ChurnEngine(spec)
        for _ in engine.packets(20_000):
            assert engine.live_flows <= 64
        assert engine.stats.arrivals > 64          # population >> live bound
        assert engine.stats.peak_live <= 64
        assert engine.stats.truncated_arrivals > 0

    def test_keys_match_packets(self):
        packed = [flow.pack() for flow
                  in drain(ChurnSpec.steady(seed=7), 500)]
        keys = list(ChurnEngine(ChurnSpec.steady(seed=7)).keys(500))
        assert keys == packed


class TestSynFlood:
    def test_syn_only_during_windows(self):
        spec = ChurnSpec(seed=9, arrival_rate=1.0, min_packets=2,
                         max_packets=50, max_live=1000,
                         syn_flood=(PhaseWindow(start=100.0, period=200.0,
                                                duty=0.5),),
                         syn_rate=4.0)
        # SYN emissions are gated on engine time: every tick on which the
        # syn counter grows must fall inside an active flood window.
        engine = ChurnEngine(spec)
        syn_ticks = []
        before = engine.stats.syn_packets
        for flow in engine.packets(5000):
            now = engine.now
            grew = engine.stats.syn_packets > before
            before = engine.stats.syn_packets
            if grew:
                syn_ticks.append(now)
        window = spec.syn_flood[0]
        assert syn_ticks, "flood windows never fired"
        assert all(window.active(t) for t in syn_ticks)

    def test_no_windows_means_no_syn(self):
        engine = ChurnEngine(ChurnSpec.high_churn(seed=4))
        list(engine.packets(3000))
        assert engine.stats.syn_packets == 0
        assert engine.stats.syn_fraction == 0.0

    def test_syn_flows_never_repeat(self):
        spec = ChurnSpec.syn_flood(seed=13)
        engine = ChurnEngine(spec)
        legit = set()
        syn = []
        before = 0
        for flow in engine.packets(8000):
            if engine.stats.syn_packets > before:
                before = engine.stats.syn_packets
                syn.append(flow)
            else:
                legit.add(flow)
        assert len(syn) == len(set(syn))           # unique one-packet flows
        assert not legit.intersection(syn)         # disjoint from real flows

    def test_syn_fraction_matches_counters(self):
        engine = ChurnEngine(ChurnSpec.syn_flood(seed=2))
        list(engine.packets(10_000))
        stats = engine.stats
        assert stats.packets == 10_000
        assert stats.syn_fraction == pytest.approx(
            stats.syn_packets / stats.packets)
        assert 0.0 < stats.syn_fraction < 1.0


class TestStatsCoherence:
    @pytest.mark.parametrize("builder", [ChurnSpec.steady,
                                         ChurnSpec.high_churn,
                                         ChurnSpec.syn_flood])
    def test_arrivals_minus_departures_is_live(self, builder):
        engine = ChurnEngine(builder(seed=21))
        list(engine.packets(6000))
        stats = engine.stats
        assert stats.arrivals - stats.departures == engine.live_flows
        assert stats.peak_live >= engine.live_flows
        assert stats.packets == 6000

    def test_group_assignment_in_range(self):
        spec = ChurnSpec(seed=5, arrival_rate=4.0, min_packets=1,
                         max_packets=8, max_live=500, groups=3)
        flows = drain(spec, 4000)
        # make_flow encodes the group in destination octet 2.
        assert {(flow.dst_ip >> 16) & 0xFF for flow in flows} <= {0, 1, 2}


class TestSpecValidation:
    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            ChurnSpec(arrival_rate=0.0)
        with pytest.raises(ValueError):
            ChurnSpec(max_live=0)
        with pytest.raises(ValueError):
            ChurnSpec(groups=0)
        with pytest.raises(ValueError):
            ChurnSpec(syn_rate=-1.0)

    @pytest.mark.parametrize("field", [
        "arrival_rate", "burst_rate", "syn_rate", "mean_quiet_ticks",
        "mean_burst_ticks", "pareto_alpha", "zipf_s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_rates_rejected(self, field, value):
        # Construction only, so a missing check fails instead of hanging:
        # a NaN arrival rate builds a stream that never yields.
        with pytest.raises(ValueError,
                           match=rf"ChurnSpec\.{field} .*{value!r}"):
            ChurnSpec(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("arrival_rate", 0.0), ("max_live", 0), ("groups", 0),
        ("syn_rate", -1.0)])
    def test_messages_name_the_field(self, field, value):
        with pytest.raises(ValueError,
                           match=rf"ChurnSpec\.{field} .*{value!r}"):
            ChurnSpec(**{field: value})

    # Each of these used to pass construction and fail only inside
    # ChurnEngine(spec), with a message naming neither the class nor the
    # field.
    def test_min_packets_below_one_rejected(self):
        with pytest.raises(ValueError, match=r"ChurnSpec\.min_packets .*0"):
            ChurnSpec(min_packets=0)

    def test_max_packets_below_min_packets_rejected(self):
        with pytest.raises(ValueError, match=r"ChurnSpec\.max_packets .*4"):
            ChurnSpec(min_packets=8, max_packets=4)

    def test_negative_zipf_s_rejected(self):
        with pytest.raises(ValueError, match=r"ChurnSpec\.zipf_s .*-0\.5"):
            ChurnSpec(zipf_s=-0.5)

    @pytest.mark.parametrize("value", [0.0, -1.2])
    def test_non_positive_pareto_alpha_rejected(self, value):
        with pytest.raises(ValueError,
                           match=rf"ChurnSpec\.pareto_alpha .*{value!r}"):
            ChurnSpec(pareto_alpha=value)

    @pytest.mark.parametrize("field", ["mean_quiet_ticks",
                                       "mean_burst_ticks"])
    @pytest.mark.parametrize("value", [0.0, -64.0])
    def test_non_positive_dwell_rejected_under_mmpp(self, field, value):
        with pytest.raises(ValueError,
                           match=rf"ChurnSpec\.{field} .*{value!r}"):
            ChurnSpec(burst_rate=8.0, **{field: value})

    def test_dwell_unread_without_mmpp(self):
        # Plain Poisson arrivals never read the dwell times.
        ChurnSpec(mean_quiet_ticks=0.0, mean_burst_ticks=0.0)

    def test_negative_burst_rate_rejected(self):
        # Unchecked, a negative burst rate silently runs plain Poisson.
        with pytest.raises(ValueError, match=r"ChurnSpec\.burst_rate .*-1"):
            ChurnSpec(burst_rate=-1.0)

    def test_presets_construct(self):
        for builder in (ChurnSpec.steady, ChurnSpec.high_churn,
                        ChurnSpec.syn_flood):
            spec = builder(seed=1)
            assert isinstance(spec, ChurnSpec)
            flows = drain(spec, 64)
            assert len(flows) == 64
