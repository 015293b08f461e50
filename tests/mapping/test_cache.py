"""Tests for the mapping-layer memoization (repro.mapping.cache)."""

from fractions import Fraction

import pytest

from repro.api import MappingSession, SessionConfig
from repro.frontend.extract import TargetBlock
from repro.library import Library, LibraryElement
from repro.mapping import (BatchItem, fingerprint_block, fingerprint_library,
                           fingerprint_platform)
from repro.mapping.cache import LRUCache
from repro.mapping.flow import _imdct_block
from repro.library.builtin import full_library
from repro.platform import Badge4, OperationTally
from repro.symalg import Polynomial, symbols

x, y = symbols("x y")
PLATFORM = Badge4()


def _demo_library(cost_mul=1):
    i0 = Polynomial.variable("in0")
    i1 = Polynomial.variable("in1")
    return Library("demo", [LibraryElement(
        name="sq2y", library="IH", polynomials=(i0 ** 2 - 2 * i1,),
        input_format="q", output_format="q", accuracy=1e-9,
        cost=OperationTally(int_mul=cost_mul, int_alu=1))])


@pytest.fixture(autouse=True)
def _fresh_caches(isolated_cache_env):
    yield


@pytest.fixture
def session():
    return MappingSession(SessionConfig(disk_cache=False))


class TestLRUCache:
    def test_put_get_roundtrip(self):
        cache = LRUCache(maxsize=4, name="t")
        cache.put("k", 42)
        assert cache.get("k") == 42
        assert cache.stats()["hits"] == 1

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(maxsize=2, name="t")
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # touch "a": now "b" is the LRU entry
        cache.put("c", 3)
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert cache.get("c") == 3

    def test_clear_resets_counters(self):
        cache = LRUCache(maxsize=2, name="t")
        cache.put("a", 1)
        cache.get("a")
        cache.get("zzz")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats() == {"size": 0, "maxsize": 2,
                                 "hits": 0, "misses": 0, "evictions": 0}

    def test_eviction_counter(self):
        cache = LRUCache(maxsize=2, name="t")
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.stats()["evictions"] == 1

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)


def _element(**overrides):
    fields = dict(name="sq", library="IH",
                  polynomials=(Polynomial.variable("in0") ** 2,),
                  input_format="q", output_format="q", accuracy=1e-9,
                  cost=OperationTally(int_mul=1))
    fields.update(overrides)
    return LibraryElement(**fields)


def _with_libm(name, count):
    tally = OperationTally(int_mul=1)
    tally.libm(name, count)
    return tally


class TestFingerprints:
    def test_tally_fingerprint_covers_libm(self):
        assert _element(cost=_with_libm("pow", 3)).digest != _element().digest
        assert _element(cost=OperationTally(int_mul=1)).digest == \
            _element().digest

    def test_element_fingerprint_sees_cost_changes(self):
        lib_a = _demo_library(cost_mul=1)
        lib_b = _demo_library(cost_mul=7)
        def fp(lib):
            return next(iter(lib)).digest
        assert fp(lib_a) != fp(lib_b)

    def test_library_fingerprint_is_order_independent(self):
        i0 = Polynomial.variable("in0")
        e1 = LibraryElement(name="a", library="IH", polynomials=(i0 ** 2,),
                            input_format="q", output_format="q",
                            accuracy=0.0, cost=OperationTally(int_mul=1))
        e2 = LibraryElement(name="b", library="IH", polynomials=(i0 ** 3,),
                            input_format="q", output_format="q",
                            accuracy=0.0, cost=OperationTally(int_mul=2))
        assert fingerprint_library(Library("x", [e1, e2])) == \
            fingerprint_library(Library("y", [e2, e1]))

    def test_platform_fingerprint_stable_across_instances(self):
        assert fingerprint_platform(Badge4()) == fingerprint_platform(Badge4())

    @pytest.mark.parametrize("overrides", [
        {"polynomials": (2 * Polynomial.variable("in0") ** 2,)},
        {"polynomials": (Polynomial.variable("in0") ** 2 + 1,)},
        {"accuracy": 1e-3},
        {"cost": OperationTally(int_mul=2)},
        {"cost": OperationTally(int_mul=1, load=1)},
        {"cost": _with_libm("cos", 1)},
        {"cost": _with_libm("pow", 2)},
        {"name": "sq_other"},
        {"library": "LM"},
    ], ids=["coefficient", "term", "accuracy", "tally-count",
            "tally-field", "libm-call", "libm-count", "name", "library"])
    def test_element_digest_covers_each_mapped_field(self, overrides):
        assert _element(**overrides).digest != _element().digest

    def test_element_digest_ignores_kernel_and_description(self):
        assert _element(kernel=lambda v: v * v,
                        description="squares").digest == _element().digest

    def test_library_digest_changes_after_add(self):
        library = Library("x", [_element(name="a")])
        before = library.digest
        library.add(_element(name="b"))
        assert library.digest != before
        assert library.digest == Library(
            "y", [_element(name="b"), _element(name="a")]).digest

    def test_equal_polynomials_share_a_digest(self):
        assert (x * Fraction(4, 2)).digest == (2 * x).digest
        assert ((x + y) - y).digest == x.digest        # pruned frame
        assert (x / 2).digest != (x * 2).digest

    def test_digests_are_short_hex_and_cached(self):
        element = _element()
        assert len(element.digest) == 64
        assert element.digest is element.digest

    def test_block_digest_covers_outputs_and_frame_only(self):
        def block(outputs, frame=("x", "y"), **extra):
            return TargetBlock(name="b", outputs=outputs,
                               input_variables=frame, **extra)
        base = block({"out": x * y})
        assert fingerprint_block(base) == fingerprint_block(block({"out": x * y}))
        assert fingerprint_block(base) != fingerprint_block(block({"out": x * y + 1}))
        assert fingerprint_block(base) != \
            fingerprint_block(block({"out": x * y}, ("x", "y", "z")))
        assert fingerprint_block(base) == fingerprint_block(
            block({"out": x * y}, expressions={"out": None}))


class TestDecomposeMemoization:
    TARGET = x + x ** 3 * y ** 2 - 2 * x * y ** 3

    def test_repeat_is_a_hit_even_with_rebuilt_library(self, session):
        first = session.decompose(self.TARGET, _demo_library(), PLATFORM)
        second = session.decompose(self.TARGET, _demo_library(), PLATFORM)
        assert second is first
        assert session.stats()["decompose"]["hits"] == 1

    def test_different_knobs_miss(self, session):
        session.decompose(self.TARGET, _demo_library(), PLATFORM)
        session.decompose(self.TARGET, _demo_library(), PLATFORM, max_depth=2)
        stats = session.stats()["decompose"]
        assert stats["misses"] == 2
        assert stats["hits"] == 0

    def test_changed_element_cost_misses(self, session):
        a = session.decompose(self.TARGET, _demo_library(cost_mul=1), PLATFORM)
        b = session.decompose(self.TARGET, _demo_library(cost_mul=9), PLATFORM)
        assert b is not a
        assert session.stats()["decompose"]["misses"] == 2

    def test_clear_forces_recompute(self, session):
        first = session.decompose(self.TARGET, _demo_library(), PLATFORM)
        session.clear_caches()
        second = session.decompose(self.TARGET, _demo_library(), PLATFORM)
        assert second is not first
        assert second.best.element_names() == first.best.element_names()
        assert second.best.total_cycles == first.best.total_cycles


class TestMapBlockMemoization:
    def test_block_hit_returns_equal_winner_and_fresh_list(self, session):
        item = BatchItem.for_block(_imdct_block(), full_library(), PLATFORM)
        w1, m1 = session.batch([item]).results[0]
        w2, m2 = session.batch([item]).results[0]
        assert w2 is w1
        assert m2 == m1
        assert m2 is not m1     # callers may sort/extend their copy
        assert session.stats()["map_block"]["hits"] == 1

    def test_no_match_is_cached_too(self, session):
        block = _imdct_block()
        empty = Library("empty")
        for _ in range(2):
            result = session.map(block, empty, PLATFORM)
            assert (result.winner, result.matches) == (None, ())
        assert session.stats()["map_block"]["hits"] == 1
