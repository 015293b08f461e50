"""SessionConfig: precedence (explicit > env > defaults), validation,
immutability."""

import dataclasses

import pytest

from repro.api import SessionConfig
from repro.api.types import ACCURACY_BUDGET_MESSAGE


class TestPrecedence:
    def test_plain_config_ignores_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/somewhere")
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        config = SessionConfig()
        assert config.cache_dir is None
        assert config.disk_cache is True

    def test_from_env_reads_cache_dir(self):
        config = SessionConfig.from_env({"REPRO_CACHE_DIR": "/tmp/tier"})
        assert config.cache_dir == "/tmp/tier"
        assert config.effective_cache_dir == "/tmp/tier"

    def test_from_env_no_cache_disables_disk(self):
        env = {"REPRO_CACHE_DIR": "/tmp/tier", "REPRO_NO_CACHE": "1"}
        config = SessionConfig.from_env(env)
        assert config.disk_cache is False
        assert config.effective_cache_dir is None

    def test_from_env_workers(self):
        assert SessionConfig.from_env({"REPRO_WORKERS": "4"}).workers == 4

    def test_from_env_bad_workers_is_loud(self):
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            SessionConfig.from_env({"REPRO_WORKERS": "many"})

    def test_explicit_override_beats_env(self):
        env = {"REPRO_CACHE_DIR": "/from/env", "REPRO_NO_CACHE": "1"}
        config = SessionConfig.from_env(env, cache_dir="/explicit", disk_cache=True)
        assert config.cache_dir == "/explicit"
        assert config.disk_cache is True
        assert config.effective_cache_dir == "/explicit"

    def test_from_env_defaults_when_env_empty(self):
        config = SessionConfig.from_env({})
        assert config == SessionConfig()


class TestValidation:
    def test_lru_sizes_must_be_positive(self):
        with pytest.raises(ValueError):
            SessionConfig(decompose_lru=0)
        with pytest.raises(ValueError):
            SessionConfig(map_block_lru=-1)

    def test_workers_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            SessionConfig(workers=-2)

    def test_library_must_be_nonempty(self):
        with pytest.raises(ValueError):
            SessionConfig(library=())

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError):
            SessionConfig(tolerance=0.0)

    @pytest.mark.parametrize("budget", [-1.0, float("nan")])
    def test_accuracy_budget_must_be_nonnegative(self, budget):
        """Refused with the CLI's and the service's wording."""
        with pytest.raises(ValueError, match=ACCURACY_BUDGET_MESSAGE):
            SessionConfig(accuracy_budget=budget)
        assert SessionConfig(accuracy_budget=0.0).accuracy_budget == 0.0

    def test_library_normalized_to_tuple(self):
        assert SessionConfig(library=["REF", "IH"]).library == ("REF", "IH")


class TestImmutability:
    def test_frozen(self):
        config = SessionConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.cache_dir = "/nope"

    def test_with_options_returns_a_new_config(self):
        base = SessionConfig()
        derived = base.with_options(workers=2)
        assert derived.workers == 2
        assert base.workers is None
        assert derived is not base
