"""Odyssey + ParlayANN comparator tests (Table I substrate)."""
import numpy as np
import pytest

from repro.memsys.odyssey import CapacityExceeded, OdysseyEngine
from repro.memsys.parlayann import ParlayAnnHnsw


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    X = np.cumsum(rng.normal(size=(600, 32)), axis=1)
    X = (X - X.mean(axis=1, keepdims=True)) / X.std(axis=1, keepdims=True)
    return X


class TestOdyssey:
    def test_exact_equals_bruteforce(self, data):
        eng = OdysseyEngine()
        eng.build(data)
        Q = data[:3]
        res = eng.knn_batch(Q, 7)
        for qi in range(3):
            d = np.linalg.norm(data - Q[qi], axis=1)
            expect = np.argsort(d, kind="stable")[:7].tolist()
            assert [i for i, _ in res[qi]] == expect

    def test_recall_is_one(self, data):
        from repro.harness.recall import recall_batch

        eng = OdysseyEngine()
        eng.build(data)
        res = eng.knn_batch(data[:4], 5)
        exact = eng.knn_batch(data[:4], 5)
        assert recall_batch(res, exact) == 1.0

    def test_chunked_equals_unchunked(self, data):
        eng = OdysseyEngine()
        eng.build(data)
        a = eng.knn_batch(data[:2], 9, chunk=37)
        b = eng.knn_batch(data[:2], 9, chunk=10_000)
        assert a == b

    def test_capacity_gate(self, data):
        eng = OdysseyEngine(memory_budget_bytes=100)
        with pytest.raises(CapacityExceeded):
            eng.build(data)

    def test_budget_allows_when_fits(self, data):
        eng = OdysseyEngine(memory_budget_bytes=data.nbytes + 1)
        eng.build(data)
        assert eng.build_s > 0

    def test_custom_ids(self, data):
        ids = np.arange(1000, 1000 + data.shape[0])
        eng = OdysseyEngine()
        eng.build(data, ids)
        res = eng.knn_batch(data[:1], 1)
        assert res[0][0][0] == 1000


class TestParlayAnn:
    def test_capacity_gate_smaller(self, data):
        eng = ParlayAnnHnsw(memory_budget_bytes=100)
        with pytest.raises(CapacityExceeded):
            eng.build(data)

    def test_high_recall(self, data):
        eng = ParlayAnnHnsw(M=8, ef_construction=64, ef_search=96, seed=0)
        eng.build(data)
        exact = OdysseyEngine()
        exact.build(data)
        from repro.harness.recall import recall_batch

        Q = data[100:110]
        assert recall_batch(eng.knn_batch(Q, 10), exact.knn_batch(Q, 10)) >= 0.7

    def test_build_slower_than_odyssey(self, data):
        """Table I shape: graph construction dominates I.C.T."""
        ody = OdysseyEngine()
        ody.build(data)
        pa = ParlayAnnHnsw(M=8, ef_construction=64)
        pa.build(data)
        assert pa.build_s > ody.build_s

    def test_ids_mapping(self, data):
        ids = np.arange(500, 500 + data.shape[0])
        eng = ParlayAnnHnsw(M=6, ef_construction=32)
        eng.build(data, ids)
        res = eng.knn_batch(data[:1], 1)
        assert res[0][0][0] == 500

    def test_requires_build(self, data):
        with pytest.raises(AssertionError):
            ParlayAnnHnsw().knn_batch(data[:1], 1)
