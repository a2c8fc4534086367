"""The open registries: registration, lookup, and rich unknown-name errors."""

from __future__ import annotations

import pytest

from repro.api.registry import (
    BACKENDS,
    MIDDLEWARES,
    STRATEGIES,
    Registry,
    UnknownNameError,
)
from repro.errors import DeploymentError


class TestRegistry:
    def test_register_and_get(self):
        reg = Registry("thing")
        reg.register("alpha", 1)
        assert reg.get("alpha") == 1
        assert "alpha" in reg
        assert reg.names() == ("alpha",)

    def test_decorator_form(self):
        reg = Registry("thing")

        @reg.register("beta")
        def builder():
            return "built"

        assert reg.get("beta") is builder

    def test_duplicate_registration_guarded(self):
        reg = Registry("thing")
        reg.register("alpha", 1)
        with pytest.raises(DeploymentError, match="already registered"):
            reg.register("alpha", 2)
        reg.register("alpha", 2, replace=True)
        assert reg.get("alpha") == 2

    def test_unregister(self):
        reg = Registry("thing")
        reg.register("alpha", 1)
        assert reg.unregister("alpha") == 1
        with pytest.raises(UnknownNameError):
            reg.unregister("alpha")

    def test_unknown_name_lists_catalogue(self):
        reg = Registry("strategy")
        reg.register("farm", 1)
        reg.register("pipeline", 2)
        with pytest.raises(UnknownNameError) as excinfo:
            reg.get("wavefront")
        message = str(excinfo.value)
        assert "farm" in message and "pipeline" in message
        assert excinfo.value.known == ("farm", "pipeline")

    def test_typo_gets_nearest_match_suggestion(self):
        reg = Registry("strategy")
        reg.register("farm", 1)
        reg.register("pipeline", 2)
        with pytest.raises(UnknownNameError) as excinfo:
            reg.get("pipelin")
        assert excinfo.value.suggestion == "pipeline"
        assert "did you mean 'pipeline'?" in str(excinfo.value)

    def test_unknown_name_is_a_deployment_error(self):
        reg = Registry("thing")
        with pytest.raises(DeploymentError):
            reg.get("anything")


class TestBuiltinRegistrations:
    def test_builtin_strategies_registered(self):
        import repro.parallel  # noqa: F401 - triggers self-registration

        for name in ("farm", "pipeline", "dynamic-farm", "heartbeat", "none"):
            assert name in STRATEGIES, name

    def test_builtin_middlewares_registered(self):
        import repro.parallel  # noqa: F401 - triggers self-registration

        for name in ("rmi", "mpp", "hybrid", "none"):
            assert name in MIDDLEWARES, name

    def test_builtin_backends_registered(self):
        import repro.runtime  # noqa: F401 - triggers self-registration

        assert "thread" in BACKENDS and "sim" in BACKENDS

    def test_backend_factories_produce_backends(self):
        from repro.runtime import ExecutionBackend

        # entries are classes, built through one classmethod
        backend = BACKENDS.get("thread").for_cluster(None)
        assert isinstance(backend, ExecutionBackend)
        sim_backend = BACKENDS.get("sim").for_cluster(None)
        assert isinstance(sim_backend, ExecutionBackend)
        assert sim_backend.sim is not None

    def test_strategy_and_middleware_entries_are_aspect_classes(self):
        from repro.parallel import ParallelAspect

        flags = ("requires_splitter", "routes_packs", "oneway_packs", "provides_concurrency")
        for registry in (STRATEGIES, MIDDLEWARES):
            for name in registry.names():
                if name == "none":
                    continue
                entry = registry.get(name)
                assert isinstance(entry, type) and issubclass(entry, ParallelAspect), name
                if registry is STRATEGIES:
                    assert all(isinstance(getattr(entry, flag), bool) for flag in flags), name
                else:
                    assert callable(entry.for_cluster), name
        assert STRATEGIES.get("divide-conquer").requires_splitter is False
        assert STRATEGIES.get("dynamic-farm").provides_concurrency is True
        assert STRATEGIES.get("farm").provides_concurrency is False

    def test_none_builds_no_aspect_in_either_registry(self):
        assert STRATEGIES.get("none")(None, "", "") is None
        assert MIDDLEWARES.get("none").for_cluster(None, "", "") is None
        assert STRATEGIES.get("none") is MIDDLEWARES.get("none")
