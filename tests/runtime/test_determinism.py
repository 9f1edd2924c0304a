"""The parallel runtime's core contract: ``--jobs N`` never changes results.

Three layers of evidence:

* experiment level — ``jobs=1`` and ``jobs=4`` produce identical
  :class:`~repro.metrics.reporting.ResultTable` rows for E7 and E9, and
  identical trained-codec metrics for E2;
* trace level — a :class:`~repro.workloads.traces.RequestTrace` replays
  event-for-event identically to submitting its requests one by one;
* codec level — the batched ``SemanticCodec.evaluate`` fast path matches the
  historical sentence-at-a-time loop exactly.
"""

from __future__ import annotations

import math

import numpy as np

from repro.experiments import ExperimentConfig, run_experiment
from repro.experiments.harness import tables_of


def _assert_tables_identical(first, second) -> None:
    first_tables, second_tables = tables_of(first), tables_of(second)
    assert len(first_tables) == len(second_tables)
    for a, b in zip(first_tables, second_tables):
        assert a.name == b.name
        assert len(a.rows) == len(b.rows)
        for row_a, row_b in zip(a.rows, b.rows):
            assert row_a.keys() == row_b.keys()
            for key in row_a:
                va, vb = row_a[key], row_b[key]
                if isinstance(va, float) and isinstance(vb, float) and math.isnan(va) and math.isnan(vb):
                    continue
                assert va == vb, (a.name, key, va, vb)


class TestJobsBitIdentity:
    def test_e7_jobs1_equals_jobs4(self):
        serial = run_experiment("e7", ExperimentConfig(seed=0, scale=0.2, jobs=1))
        parallel = run_experiment("e7", ExperimentConfig(seed=0, scale=0.2, jobs=4))
        _assert_tables_identical(serial, parallel)

    def test_e9_jobs1_equals_jobs4(self):
        serial = run_experiment("e9", ExperimentConfig(seed=1, scale=0.02, jobs=1))
        parallel = run_experiment("e9", ExperimentConfig(seed=1, scale=0.02, jobs=4))
        _assert_tables_identical(serial, parallel)

    def test_e2_trained_codec_metrics_jobs1_equals_jobs4(self):
        config = dict(seed=0, scale=0.05, train_epochs=1)
        serial = run_experiment("e2", ExperimentConfig(jobs=1, **config))
        parallel = run_experiment("e2", ExperimentConfig(jobs=4, **config))
        _assert_tables_identical(serial, parallel)


class TestColumnarReplayEquivalence:
    def _components(self):
        from repro.sim.batching import BatchingConfig
        from repro.sim.multicell import CellConfig, default_catalogue
        from repro.sim.simulator import MultiCellSimulator, SimulatorConfig

        domains = [f"domain_{index}" for index in range(8)]
        cells = [CellConfig(name=f"cell_{index}") for index in range(3)]
        config = SimulatorConfig(
            batching=BatchingConfig(max_batch_size=4, max_wait_s=0.004, amortization=0.5)
        )
        simulator = MultiCellSimulator(
            cells, default_catalogue(domains, seed=0), config=config, seed=0
        )
        return domains, simulator

    def test_columnar_replay_matches_submitted_arrivals(self):
        """The block-fed replay equals heap-scheduled arrivals via submit()."""
        from repro.workloads.generator import ArrivalTraceGenerator

        domains, columnar_sim = self._components()
        _, object_sim = self._components()
        generator = ArrivalTraceGenerator(
            domains, num_users=60, profile="diurnal", rate=800.0, peak_rate=2400.0, seed=3
        )
        trace = generator.generate(5000)

        columnar_report = columnar_sim.replay(trace)
        for request in trace:
            object_sim.submit(request.timestamp, request.user_id, request.domain)
        object_report = object_sim.run()

        # Reports agree field-for-field (wall clock aside).
        for field in (
            "completed",
            "duration_s",
            "events_processed",
            "latency",
            "total_compute_busy_s",
            "backhaul_bytes",
            "cloud_bytes",
        ):
            assert getattr(columnar_report, field) == getattr(object_report, field), field
        for cell_name in columnar_report.cells:
            assert (
                columnar_report.cells[cell_name].__dict__
                == object_report.cells[cell_name].__dict__
            ), cell_name

        # Every request took the identical lifecycle, event for event.
        assert len(columnar_sim.requests) == len(object_sim.requests)
        object_by_id = {request.request_id: request for request in object_sim.requests}
        for request in columnar_sim.requests:
            twin = object_by_id[request.request_id]
            for slot in request.__slots__:
                assert getattr(request, slot) == getattr(twin, slot), (request.request_id, slot)

    def test_columnar_replay_without_retention_keeps_report(self):
        from repro.sim.batching import BatchingConfig
        from repro.sim.multicell import CellConfig, default_catalogue
        from repro.sim.simulator import MultiCellSimulator, SimulatorConfig
        from repro.workloads.generator import ArrivalTraceGenerator

        domains = [f"domain_{index}" for index in range(6)]
        cells = [CellConfig(name=f"cell_{index}") for index in range(2)]
        config = SimulatorConfig(
            batching=BatchingConfig(max_batch_size=4, max_wait_s=0.004, amortization=0.5),
            retain_requests=False,
        )
        simulator = MultiCellSimulator(cells, default_catalogue(domains, seed=0), config=config, seed=0)
        trace = ArrivalTraceGenerator(domains, num_users=20, rate=500.0, seed=5).generate(2000)
        report = simulator.replay(trace)
        assert report.completed == 2000
        assert simulator.requests == []


class TestBatchedEvaluateEquivalence:
    def test_batched_evaluate_matches_per_sentence_loop(self):
        from repro.semantic import CodecConfig, SemanticCodec
        from repro.text import bleu_score, token_accuracy

        sentences = [
            "the server is down again",
            "my cpu runs hot today",
            "the doctor saw the patient",
            "short",
            "the movie about the doctor and the server was long and strange",
            "the server is down again",
        ]
        for architecture in ("mlp", "gru", "transformer"):
            codec_config = CodecConfig(
                architecture=architecture,
                embedding_dim=12,
                feature_dim=4,
                hidden_dim=16,
                max_length=16,
                num_heads=2,
                num_layers=1,
                seed=0,
            )
            codec = SemanticCodec.from_corpus(sentences, config=codec_config, train_epochs=3, seed=0)
            batched = codec.evaluate(sentences)
            accuracies, bleus = [], []
            for sentence in sentences:
                reference = codec.tokenizer.tokenize(sentence)
                hypothesis = codec.tokenizer.tokenize(codec.reconstruct(sentence))
                accuracies.append(token_accuracy(reference, hypothesis))
                bleus.append(bleu_score(reference, hypothesis))
            assert batched["token_accuracy"] == float(np.mean(accuracies)), architecture
            assert batched["bleu"] == float(np.mean(bleus)), architecture
            assert batched["num_sentences"] == float(len(sentences))
