"""Retrieval-index tests: exact baseline, IVF recall, exclusions."""

import numpy as np
import pytest

from repro.serve import ExactIndex, IVFIndex, build_index, topk_overlap


@pytest.fixture(scope="module")
def vectors():
    return np.random.default_rng(11).normal(size=(200, 16)).astype(np.float32)


@pytest.fixture(scope="module")
def queries():
    return np.random.default_rng(12).normal(size=(3, 16)).astype(np.float32)


class TestExactIndex:
    def test_matches_manual_topk(self, vectors, queries):
        index = ExactIndex(vectors)
        result = index.search(queries, k=10)
        manual = (queries @ vectors.T).max(axis=0).astype(np.float64)
        expected = np.argsort(-manual)[:10]
        np.testing.assert_array_equal(result.items, expected + 1)
        np.testing.assert_allclose(result.scores, manual[expected])
        assert result.candidates_scored == 200

    def test_scores_descending(self, vectors, queries):
        result = ExactIndex(vectors).search(queries, k=25)
        assert (np.diff(result.scores) <= 0).all()

    def test_exclusions_absent(self, vectors, queries):
        index = ExactIndex(vectors)
        exclude = set(index.search(queries, k=5).items.tolist())
        result = index.search(queries, k=10, exclude=exclude)
        assert not exclude & set(result.items.tolist())

    def test_single_vector_query(self, vectors, queries):
        index = ExactIndex(vectors)
        single = index.search(queries[0], k=5)
        assert len(single) == 5

    def test_k_beyond_catalog(self, vectors, queries):
        result = ExactIndex(vectors).search(queries, k=10_000)
        assert len(result) == 200

    def test_rejects_bad_inputs(self, vectors, queries):
        index = ExactIndex(vectors)
        with pytest.raises(ValueError, match="k must be positive"):
            index.search(queries, k=0)
        with pytest.raises(ValueError, match="interest queries"):
            index.search(queries[None], k=5)


class TestBlockedSearch:
    """``search_many`` scores users in blocks of ``_SEARCH_BLOCK`` with one
    GEMM each; ``search`` is its batch of one.  A user's answer must not
    depend on the batch it came in."""

    @pytest.mark.parametrize("score_mode", ["max", "softmax"])
    def test_blocked_equals_per_user_bitwise(self, score_mode):
        from repro.serve.index import _SEARCH_BLOCK
        rng = np.random.default_rng(5)
        vectors = rng.normal(size=(1000, 32)).astype(np.float32)
        users = 2 * _SEARCH_BLOCK + 3                 # straddles two edges
        interests = rng.normal(size=(users, 4, 32)).astype(np.float32)
        ks = [int(k) for k in rng.integers(1, 40, size=users)]
        excludes = [set(rng.integers(1, 1001, size=30).tolist()) if u % 3
                    else None for u in range(users)]
        index = ExactIndex(vectors, score_mode=score_mode, score_pow=2.0)
        blocked = index.search_many(interests, ks, excludes)
        for user in range(users):
            single = index.search(interests[user], ks[user],
                                  exclude=excludes[user])
            np.testing.assert_array_equal(blocked[user].items, single.items)
            assert blocked[user].scores.tobytes() == single.scores.tobytes()
            assert blocked[user].candidates_scored == 1000
        # ...and the one-user product is the plain per-user matmul.
        manual = (interests[0] @ vectors.T).max(axis=0).astype(np.float64)
        if score_mode == "max":
            top = index.search(interests[0], 5)
            assert top.scores.tobytes() == \
                manual[top.items - 1].tobytes()

    def test_rejects_bad_inputs(self, vectors, queries):
        index = ExactIndex(vectors)
        with pytest.raises(ValueError, match="k must be positive"):
            index.search_many(queries[None], [0], [None])
        with pytest.raises(ValueError, match="interest queries"):
            index.search_many(queries, [5], [None])


@pytest.fixture(scope="module")
def tied_vectors():
    """Item rows drawn from five distinct vectors: scores tie in groups."""
    rng = np.random.default_rng(13)
    base = rng.normal(size=(5, 16)).astype(np.float32)
    return base[rng.integers(0, 5, size=60)]


def reference_order(vectors, queries, k, exclude=()):
    """Item ids by (score descending, item id ascending), by a plain sort."""
    scores = (queries @ vectors.T).max(axis=0).astype(np.float64)
    items = [i + 1 for i in range(len(scores)) if i + 1 not in exclude]
    return sorted(items, key=lambda item: (-scores[item - 1], item))[:k]


class TestTieOrder:
    @pytest.mark.parametrize("k", [7, 25, 60, 100])
    def test_exact_ties_rank_by_ascending_item_id(self, tied_vectors,
                                                  queries, k):
        exclude = {2, 9, 30}
        result = ExactIndex(tied_vectors).search(queries, k, exclude=exclude)
        assert result.items.tolist() == reference_order(
            tied_vectors, queries, k, exclude)

    @pytest.mark.parametrize("k", [7, 25])
    def test_full_probe_ivf_ties_rank_by_ascending_item_id(
            self, tied_vectors, queries, k):
        ivf = IVFIndex(tied_vectors, nlist=4, nprobe=4, seed=0)
        assert ivf.search(queries, k).items.tolist() == reference_order(
            tied_vectors, queries, k)


class TestIVFIndex:
    def test_full_probe_matches_exact(self, vectors, queries):
        exact = ExactIndex(vectors).search(queries, k=20)
        ivf = IVFIndex(vectors, nlist=8, nprobe=8, seed=0)
        approx = ivf.search(queries, k=20)
        assert topk_overlap(approx.items, exact.items) == 1.0
        np.testing.assert_allclose(np.sort(approx.scores),
                                   np.sort(exact.scores))

    def test_partial_probe_prunes_candidates(self, vectors, queries):
        ivf = IVFIndex(vectors, nlist=16, nprobe=2, seed=0)
        result = ivf.search(queries, k=10)
        assert result.candidates_scored < 200
        assert len(result) <= 10

    def test_partial_probe_recall_reasonable(self, vectors, queries):
        exact = ExactIndex(vectors).search(queries, k=10)
        ivf = IVFIndex(vectors, nlist=16, nprobe=8, seed=0)
        recall = topk_overlap(ivf.search(queries, k=10).items, exact.items)
        assert 0.5 <= recall <= 1.0

    def test_deterministic_given_seed(self, vectors, queries):
        first = IVFIndex(vectors, nlist=8, seed=3).search(queries, k=10)
        second = IVFIndex(vectors, nlist=8, seed=3).search(queries, k=10)
        np.testing.assert_array_equal(first.items, second.items)

    def test_defaults_auto_calibrate_nprobe(self, vectors):
        ivf = IVFIndex(vectors)
        assert ivf.nlist == round(np.sqrt(200))
        assert ivf.auto_calibrated
        assert 1 <= ivf.nprobe <= ivf.nlist
        # The calibrated default covers the target recall on its own sample
        # (or saturated at nlist trying).
        assert (ivf.calibration["achieved_coverage"]
                >= ivf.calibration["target_recall"]
                or ivf.nprobe == ivf.nlist)
        assert sum(len(rows) for rows in ivf.lists) == 200

    def test_calibrated_recall_beats_legacy_default(self, vectors, queries):
        exact = ExactIndex(vectors).search(queries, k=10)
        calibrated = IVFIndex(vectors, seed=0)
        legacy = IVFIndex(vectors, nprobe=max(1, calibrated.nlist // 4),
                          seed=0)
        calibrated_recall = topk_overlap(
            calibrated.search(queries, k=10).items, exact.items)
        legacy_recall = topk_overlap(
            legacy.search(queries, k=10).items, exact.items)
        assert calibrated_recall >= legacy_recall

    def test_explicit_nprobe_skips_calibration(self, vectors):
        ivf = IVFIndex(vectors, nlist=8, nprobe=2)
        assert not ivf.auto_calibrated
        assert ivf.calibration is None
        assert ivf.nprobe == 2

    def test_calibration_respects_target(self, vectors):
        easy = IVFIndex(vectors, nlist=16, target_recall=0.05, seed=0)
        hard = IVFIndex(vectors, nlist=16, target_recall=1.0, seed=0)
        assert easy.nprobe <= hard.nprobe

    def test_exclusions_absent(self, vectors, queries):
        ivf = IVFIndex(vectors, nlist=8, nprobe=8, seed=0)
        exclude = set(ivf.search(queries, k=5).items.tolist())
        result = ivf.search(queries, k=10, exclude=exclude)
        assert not exclude & set(result.items.tolist())


class TestHelpers:
    def test_topk_overlap(self):
        assert topk_overlap(np.array([1, 2, 3]), np.array([2, 3, 4])) == pytest.approx(2 / 3)
        assert topk_overlap(np.array([]), np.array([])) == 1.0

    def test_build_index_dispatch(self, vectors):
        assert build_index(vectors, "exact").backend == "exact"
        assert build_index(vectors, "ivf", nlist=4).backend == "ivf"
        for gone in ("faiss", "hnsw", "pq", "ivf_pq", "exact_sq"):
            with pytest.raises(ValueError, match="unknown index backend"):
                build_index(vectors, gone)

    def test_resident_bytes_reported(self, vectors):
        for backend in ("exact", "ivf"):
            index = build_index(vectors, backend)
            assert index.resident_bytes() >= vectors.nbytes
