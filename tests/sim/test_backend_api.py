"""SimBackend API tests: protocol conformance, registry, resolution rules."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.sim import (
    BACKEND_ENV,
    DEFAULT_BACKEND,
    BatchingConfig,
    CellConfig,
    MobilityConfig,
    MultiCellSimulator,
    ShardedSimulator,
    SimBackend,
    SimulatorConfig,
    available_backends,
    create_backend,
    default_catalogue,
    register_backend,
    resolve_backend_name,
)
from repro.sim.backend import _REGISTRY
from repro.sim.sharded import ShardedConfig
from repro.workloads import ArrivalTraceGenerator

DOMAINS = [f"domain_{index}" for index in range(6)]


class CountingHook:
    """Counts completions; module-level so the process driver can pickle it."""

    def __init__(self):
        self.count = 0

    def __call__(self, request):
        self.count += 1

    def clone_empty(self):
        return CountingHook()

    def merge(self, other):
        self.count += other.count


def cell_configs(count=4):
    return [CellConfig(name=f"cell_{index}") for index in range(count)]


def make_backend(name, shards=None, num_cells=4, seed=0):
    config = SimulatorConfig(
        batching=BatchingConfig(),
        mobility=MobilityConfig(handover_probability=0.05),
        retain_requests=False,
    )
    return create_backend(
        name,
        cell_configs(num_cells),
        default_catalogue(DOMAINS, seed=seed),
        config=config,
        seed=seed,
        shards=shards,
    )


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert available_backends() == ["serial", "sharded", "vectorized"]

    def test_unknown_backend_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown simulator backend"):
            make_backend("warp-drive")

    def test_register_requires_a_name(self):
        with pytest.raises(ConfigurationError):
            register_backend("", lambda *a, **k: None)

    def test_register_and_create_custom_backend(self):
        marker = object()
        register_backend("test-backend", lambda *a, **k: marker)
        try:
            assert "test-backend" in available_backends()
            assert (
                create_backend("test-backend", cell_configs(), default_catalogue(DOMAINS, seed=0))
                is marker
            )
        finally:
            del _REGISTRY["test-backend"]


class TestResolution:
    def test_explicit_name_wins(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "sharded")
        assert resolve_backend_name("serial") == "serial"

    def test_environment_fills_in_when_unset(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "sharded")
        assert resolve_backend_name(None) == "sharded"

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert resolve_backend_name(None) == DEFAULT_BACKEND == "serial"

    def test_blank_environment_value_is_ignored(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "   ")
        assert resolve_backend_name(None) == "serial"

    def test_create_backend_honours_environment(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "sharded")
        assert isinstance(make_backend(None), ShardedSimulator)


class TestFactories:
    def test_serial_factory_builds_the_reference_simulator(self):
        backend = make_backend("serial")
        assert isinstance(backend, MultiCellSimulator)
        assert backend.backend_name == "serial"

    def test_serial_factory_accepts_shards_1(self):
        assert isinstance(make_backend("serial", shards=1), MultiCellSimulator)

    def test_serial_factory_rejects_multiple_shards(self):
        with pytest.raises(ConfigurationError, match="single-process"):
            make_backend("serial", shards=2)

    def test_serial_factory_rejects_unknown_options(self):
        with pytest.raises(ConfigurationError, match="unknown options"):
            create_backend(
                "serial", cell_configs(), default_catalogue(DOMAINS, seed=0), warp=9
            )

    def test_sharded_factory_builds_the_sharded_simulator(self):
        backend = make_backend("sharded", shards=2)
        assert isinstance(backend, ShardedSimulator)
        assert backend.backend_name == "sharded"
        assert backend.sharded.num_shards == 2

    def test_sharded_factory_rejects_shards_and_config_together(self):
        with pytest.raises(ConfigurationError, match="not both"):
            create_backend(
                "sharded",
                cell_configs(),
                default_catalogue(DOMAINS, seed=0),
                shards=2,
                sharded_config=ShardedConfig(num_shards=2),
            )


class TestProtocolConformance:
    """Both shipped backends satisfy the runtime-checkable protocol."""

    @pytest.mark.parametrize("name,shards", [("serial", None), ("sharded", 2)])
    def test_isinstance_of_protocol(self, name, shards):
        assert isinstance(make_backend(name, shards=shards), SimBackend)

    @pytest.mark.parametrize("name,shards", [("serial", None), ("sharded", 2)])
    def test_replay_returns_a_report_and_fires_the_hook(self, name, shards):
        backend = make_backend(name, shards=shards)
        hook = CountingHook()
        backend.on_request_end = hook
        trace = ArrivalTraceGenerator(DOMAINS, num_users=40, rate=500.0, seed=3).generate(400)
        report = backend.replay(trace)
        assert report.completed + report.dropped == 400
        assert hook.count == 400

    @staticmethod
    def process_driver_backend():
        return create_backend(
            "sharded",
            cell_configs(),
            default_catalogue(DOMAINS, seed=0),
            seed=0,
            sharded_config=ShardedConfig(num_shards=2, driver="process"),
        )

    def test_process_driver_merges_a_picklable_hook(self):
        """The process driver on any host: worker hooks come back and merge."""
        backend = self.process_driver_backend()
        hook = CountingHook()
        backend.on_request_end = hook
        trace = ArrivalTraceGenerator(DOMAINS, num_users=40, rate=500.0, seed=3).generate(400)
        report = backend.replay(trace)
        assert report.completed + report.dropped == 400
        assert hook.count == 400

    def test_process_driver_rejects_an_unpicklable_hook_before_forking(self, monkeypatch):
        backend = self.process_driver_backend()

        class LocalHook(CountingHook):
            def clone_empty(self):
                return LocalHook()

        def no_workers(*args, **kwargs):
            raise AssertionError("a shard worker was started")

        monkeypatch.setattr(ShardedSimulator, "_drive_process", no_workers)
        backend.on_request_end = LocalHook()
        trace = ArrivalTraceGenerator(DOMAINS, num_users=40, rate=500.0, seed=3).generate(400)
        with pytest.raises(ConfigurationError, match="does not pickle"):
            backend.replay(trace)

    @pytest.mark.parametrize("name,shards", [("serial", None), ("sharded", 2)])
    def test_alive_cells_tracks_scheduled_failures(self, name, shards):
        backend = make_backend(name, shards=shards)
        assert sorted(backend.alive_cells()) == [f"cell_{i}" for i in range(4)]
        backend.fail_cell("cell_2")
        assert "cell_2" not in backend.alive_cells()
