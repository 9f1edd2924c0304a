"""Tests for synthetic domains, user styles, traces and the Metaverse workload."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import (
    DEFAULT_DOMAIN_NAMES,
    POLYSEMOUS_WORDS,
    ArrivalTraceGenerator,
    MessageGenerator,
    MetaverseWorkload,
    UserStyle,
    ZipfTraceGenerator,
    build_user_population,
    default_venues,
    diurnal_arrival_times,
    generate_all_corpora,
    generate_domain_corpus,
    generate_topic_drift_trace,
    generate_user_style,
    poisson_arrival_times,
    shared_vocabulary,
    zipf_probabilities,
)


class TestDomains:
    def test_four_default_domains(self, domains):
        assert set(domains) == {"it", "medical", "news", "entertainment"}
        assert DEFAULT_DOMAIN_NAMES == tuple(domains)

    def test_sampled_sentences_use_domain_vocabulary(self, domains, rng):
        for spec in domains.values():
            vocabulary = set(spec.vocabulary())
            sentence = spec.sample_sentence(rng)
            assert set(sentence.split()) <= vocabulary

    def test_polysemous_words_shared_across_domains(self, domains):
        shared = set(shared_vocabulary(domains))
        assert "bus" in shared and "virus" in shared
        # every declared polysemous word genuinely appears in >= 2 domains' pools
        for word in POLYSEMOUS_WORDS:
            owners = [name for name, spec in domains.items() if word in spec.vocabulary()]
            assert len(owners) >= 2, f"{word} appears only in {owners}"

    def test_corpus_generation_is_deterministic(self, domains):
        first = generate_domain_corpus(domains["it"], 20, seed=5)
        second = generate_domain_corpus(domains["it"], 20, seed=5)
        assert first.sentences == second.sentences

    def test_corpus_negative_count_raises(self, domains):
        with pytest.raises(ValueError):
            generate_domain_corpus(domains["it"], -1)

    def test_generate_all_corpora_sizes(self):
        corpora = generate_all_corpora(15, seed=0)
        assert all(len(corpus) == 15 for corpus in corpora.values())


class TestUserStyles:
    def test_generated_style_is_reproducible(self):
        assert generate_user_style("u", seed=3).substitutions == generate_user_style("u", seed=3).substitutions

    def test_apply_substitutes_words(self, rng):
        style = UserStyle(user_id="u", substitutions={"server": "machine"}, pet_phrases=[], pet_phrase_probability=0.0)
        assert style.apply("the server loads the bus", rng) == "the machine loads the bus"

    def test_pet_phrase_prepended(self):
        rng = np.random.default_rng(0)
        style = UserStyle(user_id="u", pet_phrases=["honestly"], pet_phrase_probability=1.0)
        assert style.apply("the cpu", rng).startswith("honestly")

    def test_population_size_and_names(self):
        users = build_user_population(5, seed=1)
        assert [user.user_id for user in users] == [f"user_{i}" for i in range(5)]

    def test_population_requires_positive_count(self):
        with pytest.raises(ValueError):
            build_user_population(0)


class TestMessageGenerator:
    def test_messages_have_domain_and_increasing_turns(self):
        users = build_user_population(2, seed=0)
        generator = MessageGenerator(users, seed=1)
        messages = generator.generate("user_0", 10)
        assert [m.turn_index for m in messages] == list(range(10))
        assert all(m.domain in DEFAULT_DOMAIN_NAMES for m in messages)

    def test_domain_persistence_creates_runs(self):
        users = build_user_population(1, seed=0)
        generator = MessageGenerator(users, domain_persistence=0.95, seed=2)
        domains_seen = [m.domain for m in generator.generate("user_0", 60)]
        switches = sum(1 for a, b in zip(domains_seen, domains_seen[1:]) if a != b)
        assert switches < 20

    def test_unknown_user_raises(self):
        generator = MessageGenerator(build_user_population(1, seed=0), seed=0)
        with pytest.raises(KeyError):
            generator.next_message("nobody")

    def test_generate_mixed_uses_multiple_users(self):
        generator = MessageGenerator(build_user_population(3, seed=0), seed=3)
        senders = {m.user_id for m in generator.generate_mixed(40)}
        assert len(senders) >= 2


class TestTraces:
    def test_zipf_probabilities_sum_to_one(self):
        probabilities = zipf_probabilities(10, 1.2)
        assert probabilities.sum() == pytest.approx(1.0)
        assert probabilities[0] > probabilities[-1]

    def test_zipf_zero_exponent_is_uniform(self):
        probabilities = zipf_probabilities(4, 0.0)
        np.testing.assert_allclose(probabilities, np.full(4, 0.25))

    def test_zipf_invalid_arguments(self):
        with pytest.raises(ValueError):
            zipf_probabilities(0)
        with pytest.raises(ValueError):
            zipf_probabilities(3, -1.0)

    def test_trace_generation_counts_and_order(self):
        generator = ZipfTraceGenerator(["a", "b", "c"], num_users=5, exponent=1.0, seed=0)
        trace = generator.generate(200)
        assert len(trace) == 200
        timestamps = [request.timestamp for request in trace]
        assert timestamps == sorted(timestamps)
        assert set(trace.domain_counts()) <= {"a", "b", "c"}

    def test_trace_skew_matches_exponent(self):
        generator = ZipfTraceGenerator(["a", "b", "c", "d"], exponent=1.5, seed=0)
        counts = generator.generate(2000).domain_counts()
        assert counts.get("a", 0) > counts.get("d", 0)

    def test_topic_drift_trace_segments(self):
        trace = generate_topic_drift_trace(["x", "y"], 100, persistence=0.9, seed=0)
        assert len(trace) == 100
        assert trace.segment_boundaries[0] == 0
        assert len(trace.segment_boundaries) < 40

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=50))
    def test_topic_drift_length_property(self, num_turns):
        trace = generate_topic_drift_trace(["a", "b", "c"], num_turns, seed=1)
        assert len(trace.domains) == num_turns


class TestColumnarTrace:
    def test_generated_traces_are_columnar(self):
        trace = ZipfTraceGenerator(["a", "b", "c"], num_users=4, seed=0).generate(50)
        assert trace.timestamps.dtype == np.float64
        assert len(trace.timestamps) == len(trace.user_indices) == len(trace.domain_indices) == 50
        assert trace.domain_names == ("a", "b", "c")

    def test_lazy_iteration_matches_columns(self):
        trace = ZipfTraceGenerator(["a", "b"], num_users=3, seed=1).generate(40)
        materialized = list(trace)
        assert len(materialized) == 40
        for index, request in enumerate(materialized):
            assert request.timestamp == float(trace.timestamps[index])
            assert request.user_id == f"user_{int(trace.user_indices[index])}"
            assert request.domain == trace.domain_names[int(trace.domain_indices[index])]

    def test_summaries_match_object_form(self):
        trace = ZipfTraceGenerator(["a", "b", "c"], num_users=5, seed=3).generate(300)
        requests = list(trace)
        counts: dict = {}
        for request in requests:
            counts[request.domain] = counts.get(request.domain, 0) + 1
        assert trace.domain_counts() == counts
        assert list(trace.domain_counts()) == list(counts)  # first-seen order
        assert trace.users() == list(dict.fromkeys(request.user_id for request in requests))
        assert trace.domains() == [request.domain for request in requests]

    def test_from_columns_validates_lengths(self):
        from repro.workloads.traces import RequestTrace

        with pytest.raises(ValueError):
            RequestTrace.from_columns(np.zeros(3), np.zeros(2, dtype=int), np.zeros(3, dtype=int), ["a"])

    def test_constructor_takes_trace_columns_only(self):
        from repro.workloads.traces import RequestTrace, TraceRequest

        with pytest.raises(ValueError, match="dtype"):
            RequestTrace(np.zeros(3), ["a"])
        with pytest.raises(TypeError):
            RequestTrace(requests=[TraceRequest(0.0, "user_0", "a")])

    def test_empty_columnar_trace(self):
        from repro.workloads.traces import RequestTrace

        trace = RequestTrace.from_columns(
            np.zeros(0), np.zeros(0, dtype=int), np.zeros(0, dtype=int), ["a"]
        )
        assert len(trace) == 0
        assert trace.domain_counts() == {}
        assert trace.users() == []
        assert list(trace) == []

    def test_columnar_trace_pickles_compactly(self):
        import pickle

        trace = ZipfTraceGenerator(["a", "b"], num_users=3, seed=4).generate(1000)
        clone = pickle.loads(pickle.dumps(trace))
        assert len(clone) == 1000
        assert np.array_equal(clone.timestamps, trace.timestamps)
        assert clone.domain_counts() == trace.domain_counts()


class TestArrivalProcesses:
    def test_poisson_arrivals_sorted_with_expected_rate(self):
        rng = np.random.default_rng(0)
        times = poisson_arrival_times(10_000, rate=50.0, rng=rng)
        assert len(times) == 10_000
        assert np.all(np.diff(times) >= 0)
        observed_rate = len(times) / times[-1]
        assert observed_rate == pytest.approx(50.0, rel=0.1)

    def test_poisson_invalid_arguments(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            poisson_arrival_times(-1, 1.0, rng)
        with pytest.raises(ValueError):
            poisson_arrival_times(10, 0.0, rng)

    def test_diurnal_arrivals_sorted_and_denser_at_peak(self):
        rng = np.random.default_rng(0)
        period = 100.0
        times = diurnal_arrival_times(20_000, base_rate=20.0, peak_rate=200.0, period_s=period, rng=rng)
        assert np.all(np.diff(times) >= 0)
        phase = np.mod(times, period)
        # Rate peaks at period/2 and bottoms out around 0: the middle half of
        # the day must hold clearly more arrivals than the edges.
        peak_arrivals = np.sum((phase > period * 0.25) & (phase < period * 0.75))
        trough_arrivals = len(times) - peak_arrivals
        assert peak_arrivals > 1.5 * trough_arrivals

    def test_diurnal_invalid_arguments(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            diurnal_arrival_times(10, base_rate=0.0, peak_rate=1.0, period_s=10.0, rng=rng)
        with pytest.raises(ValueError):
            diurnal_arrival_times(10, base_rate=2.0, peak_rate=1.0, period_s=10.0, rng=rng)
        with pytest.raises(ValueError):
            diurnal_arrival_times(10, base_rate=1.0, peak_rate=2.0, period_s=0.0, rng=rng)

    def test_arrival_trace_generator_profiles(self):
        for profile in ("poisson", "diurnal"):
            generator = ArrivalTraceGenerator(
                ["a", "b", "c"], num_users=10, profile=profile, rate=100.0, seed=4
            )
            trace = generator.generate(500)
            assert len(trace) == 500
            timestamps = [request.timestamp for request in trace]
            assert timestamps == sorted(timestamps)
            assert set(trace.domain_counts()) <= {"a", "b", "c"}
            assert len(trace.users()) <= 10

    def test_arrival_trace_generator_is_deterministic(self):
        def make():
            return ArrivalTraceGenerator(["a", "b"], profile="diurnal", rate=50.0, seed=9).generate(100)

        first, second = make(), make()
        assert [r.timestamp for r in first] == [r.timestamp for r in second]
        assert [r.domain for r in first] == [r.domain for r in second]

    def test_arrival_trace_generator_validation(self):
        with pytest.raises(ValueError):
            ArrivalTraceGenerator([], rate=1.0)
        with pytest.raises(ValueError):
            ArrivalTraceGenerator(["a"], profile="weekly")
        with pytest.raises(ValueError):
            ArrivalTraceGenerator(["a"], rate=-1.0)
        with pytest.raises(ValueError):
            ArrivalTraceGenerator(["a"], profile="diurnal", rate=100.0, peak_rate=50.0)
        with pytest.raises(ValueError):
            ArrivalTraceGenerator(["a"]).generate(-1)


class TestMetaverse:
    def test_scenario_generation(self):
        workload = MetaverseWorkload(num_users=6, arrival_rate=10.0, seed=0)
        scenario = workload.generate(100)
        assert len(scenario.events) == 100
        assert len(scenario.users) == 6
        assert {venue.name for venue in scenario.venues} == {v.name for v in default_venues()}

    def test_venue_dominance_shapes_domain_mix(self):
        workload = MetaverseWorkload(num_users=4, seed=1)
        scenario = workload.generate(300)
        tech_events = scenario.events_for_venue("tech-expo")
        it_fraction = sum(1 for event in tech_events if event.message.domain == "it") / max(len(tech_events), 1)
        assert it_fraction > 0.5

    def test_latency_budgets_positive(self):
        scenario = MetaverseWorkload(seed=2).generate(50)
        assert all(event.latency_budget_ms > 0 for event in scenario.events)

    def test_invalid_arrival_rate(self):
        with pytest.raises(ValueError):
            MetaverseWorkload(arrival_rate=0.0)
