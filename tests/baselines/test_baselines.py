"""Tests for the traditional, general-only and no-cache baselines."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    EstablishmentCostModel,
    GeneralOnlyBaseline,
    HuffmanCoder,
    NoCacheBaseline,
    TraditionalCommunicationSystem,
)
from repro.channel import PhysicalChannel
from repro.semantic import CodecConfig
from repro.workloads import ZipfTraceGenerator, generate_all_corpora
from repro.workloads.traces import TraceRequest


class TestHuffmanCoder:
    @pytest.fixture(scope="class")
    def coder(self, it_sentences):
        return HuffmanCoder().fit(it_sentences)

    def test_roundtrip(self, coder, it_sentences):
        for sentence in it_sentences[:10]:
            bits = coder.encode(sentence)
            assert coder.decode(bits) == sentence

    def test_unseen_characters_via_escape(self, coder):
        text = "zzz@@@"
        assert coder.decode(coder.encode(text)) == text

    def test_compression_beats_ascii(self, coder, it_sentences):
        assert coder.mean_bits_per_character(it_sentences) < 8.0

    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            HuffmanCoder().encode("hello")

    @settings(max_examples=25, deadline=None)
    @given(st.text(alphabet="abcdefgh ", min_size=1, max_size=40))
    def test_roundtrip_property(self, text):
        coder = HuffmanCoder().fit(["abcdefgh " * 3])
        assert coder.decode(coder.encode(text)) == text


class TestTraditionalSystem:
    def test_clean_channel_exact_delivery(self, it_sentences):
        system = TraditionalCommunicationSystem(it_sentences, channel=None)
        report = system.send(it_sentences[0])
        assert report.restored_text == it_sentences[0]
        assert report.token_accuracy == 1.0
        assert report.crc_ok

    def test_high_snr_channel_delivery(self, it_sentences):
        channel = PhysicalChannel("qpsk", snr_db=30.0, seed=0)
        system = TraditionalCommunicationSystem(it_sentences, channel=channel)
        report = system.send(it_sentences[1])
        assert report.token_accuracy == 1.0

    def test_low_snr_corrupts_messages(self, it_sentences):
        channel = PhysicalChannel("qpsk", snr_db=-5.0, seed=0)
        system = TraditionalCommunicationSystem(it_sentences, channel=channel)
        metrics = system.evaluate(it_sentences[:10])
        assert metrics["token_accuracy"] < 0.5
        assert metrics["crc_ok_rate"] < 1.0

    def test_payload_smaller_with_source_coding(self, it_sentences):
        coded = TraditionalCommunicationSystem(it_sentences, use_source_coding=True)
        raw = TraditionalCommunicationSystem(it_sentences, use_source_coding=False)
        sentence = it_sentences[0]
        assert coded.send(sentence).payload_bytes < raw.send(sentence).payload_bytes

    def test_evaluate_empty_raises(self, it_sentences):
        system = TraditionalCommunicationSystem(it_sentences)
        with pytest.raises(ValueError):
            system.evaluate([])


class TestGeneralOnlyBaseline:
    def test_fit_and_per_domain_evaluation(self):
        corpora = generate_all_corpora(40, seed=3)
        config = CodecConfig(architecture="mlp", embedding_dim=16, feature_dim=4, hidden_dim=32, max_length=14, seed=0)
        baseline = GeneralOnlyBaseline(config=config).fit(corpora, train_epochs=12, seed=0)
        per_domain = baseline.evaluate_per_domain(corpora)
        assert set(per_domain) == set(corpora)
        assert 0.0 <= baseline.mean_token_accuracy(corpora) <= 1.0

    def test_evaluate_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GeneralOnlyBaseline().evaluate_per_domain({})

    def test_fit_empty_raises(self):
        with pytest.raises(ValueError):
            GeneralOnlyBaseline().fit({})


class TestNoCacheBaseline:
    def _trace(self, domains):
        return [TraceRequest(timestamp=float(i), user_id="u", domain=d) for i, d in enumerate(domains)]

    def test_every_switch_pays_establishment(self):
        baseline = NoCacheBaseline(EstablishmentCostModel(fetch_seconds=2.0), resident_slots=1)
        result = baseline.serve(self._trace(["a", "b", "a", "b"]))
        assert result.establishments == 4
        assert result.total_establishment_seconds == pytest.approx(8.0)
        assert result.establishment_rate == 1.0

    def test_repeated_domain_is_free(self):
        baseline = NoCacheBaseline(EstablishmentCostModel(fetch_seconds=2.0))
        result = baseline.serve(self._trace(["a", "a", "a"]))
        assert result.establishments == 1
        assert result.mean_delay_seconds == pytest.approx(2.0 / 3.0)

    def test_training_cost_model(self):
        cost = EstablishmentCostModel(train_seconds=100.0, must_train=True)
        assert cost.establishment_seconds() == 100.0

    def test_more_slots_fewer_establishments(self):
        trace_domains = ["a", "b", "c"] * 10
        one_slot = NoCacheBaseline(resident_slots=1).serve(self._trace(trace_domains))
        three_slots = NoCacheBaseline(resident_slots=3).serve(self._trace(trace_domains))
        assert three_slots.establishments < one_slot.establishments

    def test_with_zipf_trace(self):
        generator = ZipfTraceGenerator(["a", "b", "c", "d"], exponent=1.2, seed=0)
        result = NoCacheBaseline().serve(generator.generate(500))
        assert result.requests == 500
        assert 0.0 < result.establishment_rate <= 1.0

    def test_invalid_slots(self):
        with pytest.raises(ValueError):
            NoCacheBaseline(resident_slots=-1)
