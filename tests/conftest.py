"""Suite-wide fixtures."""

import pytest

from repro.mapping.cache import clear_shared_caches


@pytest.fixture
def isolated_cache_env(monkeypatch):
    """Cold shared caches and no ``REPRO_*`` session knobs in the env.

    Session-owned cache tiers need no isolation (each session builds
    its own), so this only drops the variables
    ``SessionConfig.from_env`` reads and empties the process-wide
    pure-function caches before and after the test.
    """
    for name in ("REPRO_CACHE_DIR", "REPRO_NO_CACHE", "REPRO_WORKERS"):
        monkeypatch.delenv(name, raising=False)
    clear_shared_caches()
    yield
    clear_shared_caches()
