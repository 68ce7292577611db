"""Batch/sequential ``Top-k-Pkg`` equivalence (the contract of the batch path).

The batch searcher must be a pure performance optimisation: for every weight
vector, its result has to match what the sequential searcher computes for
that vector alone.  The equivalence contract asserted here is exact:

* **Scores**: the utility lists are *bit-identical* (both searchers report
  through the same canonical scoring helper, so equality is ``==``, not
  ``allclose``).
* **Packages**: identical for every rank whose utility is strictly above the
  k-th utility value.  Packages tied *exactly at* the k-th utility are the
  one place the algorithms may legitimately differ: the paper's termination
  rule (``η_up ≤ η_lo``) stops as soon as no undiscovered package can beat
  the k-th best, which means boundary ties are reported in discovery order —
  and the two implementations discover in different orders.  Where the tie
  set is fully enumerated (small catalogs searched to exhaustion), both
  implementations break ties identically by package id and the package lists
  match outright.
* **Exactness**: both sides equal the brute-force oracle's utilities.
"""

import numpy as np
import pytest

from repro.core.items import ItemCatalog
from repro.core.packages import PackageEvaluator
from repro.core.predicates import MinCountPredicate, PredicateSet
from repro.core.profiles import AggregateProfile
from repro.topk.batch_search import BatchTopKPackageSearcher, CandidateCarryover
from repro.topk.bruteforce import brute_force_top_k_packages
from repro.topk.package_search import TopKPackageSearcher

AGGREGATIONS = ["sum", "avg", "max", "min"]


def random_instance(seed):
    """A random catalog/profile/weights instance, with nulls on some seeds."""
    rng = np.random.default_rng(seed)
    num_items = int(rng.integers(6, 15))
    num_features = int(rng.integers(2, 5))
    phi = int(rng.integers(2, 5))
    features = rng.random((num_items, num_features))
    if seed % 3 == 0:
        mask = rng.random((num_items, num_features)) < 0.15
        features[mask] = np.nan
        if np.isnan(features).all(axis=0).any():
            features[0] = rng.random(num_features)
    catalog = ItemCatalog(features)
    profile = AggregateProfile(
        [AGGREGATIONS[int(rng.integers(0, 4))] for _ in range(num_features)]
    )
    evaluator = PackageEvaluator(catalog, profile, phi)
    num_vectors = int(rng.integers(1, 8))
    k = int(rng.integers(1, 6))
    weights = rng.uniform(-1, 1, (num_vectors, num_features))
    if seed % 4 == 0:
        weights[0] = 0.0  # degenerate all-zero row
    if num_vectors > 2:
        weights[-1] = weights[0]  # duplicate row (exercises dedup)
    return evaluator, weights, k


def assert_equivalent(sequential_result, batch_result):
    """Exact-score equality plus package equality above the tie boundary."""
    assert sequential_result.utilities == batch_result.utilities
    utilities = sequential_result.utilities
    if not utilities:
        assert not batch_result.packages
        return
    boundary = utilities[-1]
    strict = sum(1 for value in utilities if value > boundary)
    assert (
        [p.items for p in sequential_result.packages[:strict]]
        == [p.items for p in batch_result.packages[:strict]]
    )


class TestPropertyEquivalence:
    @pytest.mark.parametrize("seed", range(60))
    def test_random_instances_match_per_vector_search(self, seed):
        evaluator, weights, k = random_instance(seed)
        sequential = TopKPackageSearcher(evaluator)
        batch = BatchTopKPackageSearcher(evaluator)
        batch_results = batch.search_many(weights, k)
        assert len(batch_results) == weights.shape[0]
        for v in range(weights.shape[0]):
            assert_equivalent(sequential.search(weights[v], k), batch_results[v])

    @pytest.mark.parametrize("seed", range(0, 60, 5))
    def test_both_match_the_brute_force_oracle(self, seed):
        evaluator, weights, k = random_instance(seed)
        batch_results = BatchTopKPackageSearcher(evaluator).search_many(weights, k)
        sequential = TopKPackageSearcher(evaluator)
        for v in range(weights.shape[0]):
            expected = [u for _, u in brute_force_top_k_packages(evaluator, weights[v], k)]
            assert np.allclose(batch_results[v].utilities, expected, atol=1e-9)
            assert np.allclose(sequential.search(weights[v], k).utilities, expected, atol=1e-9)

    def test_search_many_matches_sequential_search_many(self):
        evaluator, weights, k = random_instance(7)
        sequential = TopKPackageSearcher(evaluator).search_many(weights, k)
        batch = BatchTopKPackageSearcher(evaluator).search_many(weights, k)
        for s, b in zip(sequential, batch):
            assert_equivalent(s, b)


class TestSearchPools:
    """The multi-pool entry point used for across-session search batching."""

    @pytest.mark.parametrize("seed", range(0, 30, 3))
    def test_concatenated_pools_match_per_pool_search(self, seed):
        evaluator, weights, k = random_instance(seed)
        rng = np.random.default_rng(seed + 1000)
        matrices = [
            weights,
            rng.uniform(-1, 1, (3, weights.shape[1])),
            weights[:1] + rng.normal(0, 0.1, (2, weights.shape[1])),
        ]
        searcher = BatchTopKPackageSearcher(evaluator)
        pooled = searcher.search_pools(matrices, k)
        assert len(pooled) == len(matrices)
        for matrix, results in zip(matrices, pooled):
            assert len(results) == matrix.shape[0]
            solo = searcher.search_many(matrix, k)
            for s, b in zip(solo, results):
                assert s.utilities == b.utilities

    def test_duplicate_rows_across_pools_share_results(self):
        evaluator, weights, k = random_instance(2)
        searcher = BatchTopKPackageSearcher(evaluator)
        pooled = searcher.search_pools([weights, weights.copy()], k)
        for a, b in zip(pooled[0], pooled[1]):
            assert a.utilities == b.utilities
            assert [p.items for p in a.packages] == [p.items for p in b.packages]

    def test_empty_pool_list(self):
        evaluator, _weights, k = random_instance(3)
        assert BatchTopKPackageSearcher(evaluator).search_pools([], k) == []

    def test_rejects_wrong_width_matrix(self):
        evaluator, weights, k = random_instance(4)
        searcher = BatchTopKPackageSearcher(evaluator)
        bad = np.zeros((2, weights.shape[1] + 1))
        with pytest.raises(ValueError, match="pool matrix"):
            searcher.search_pools([weights, bad], k)


class TestDegenerateCases:
    def test_single_vector_batch_equals_search(self):
        evaluator, weights, k = random_instance(1)
        row = weights[0]
        sequential = TopKPackageSearcher(evaluator).search(row, k)
        via_many = BatchTopKPackageSearcher(evaluator).search_many(row[None, :], k)
        via_single = BatchTopKPackageSearcher(evaluator).search(row, k)
        assert_equivalent(sequential, via_many[0])
        assert_equivalent(sequential, via_single)

    def test_all_zero_weight_rows(self):
        rng = np.random.default_rng(3)
        evaluator = PackageEvaluator(
            ItemCatalog(rng.random((8, 3))), AggregateProfile(["sum", "avg", "max"]), 3
        )
        weights = np.zeros((3, 3))
        weights[1] = rng.uniform(-1, 1, 3)
        batch_results = BatchTopKPackageSearcher(evaluator).search_many(weights, 4)
        sequential = TopKPackageSearcher(evaluator)
        for v in range(3):
            expected = sequential.search(weights[v], 4)
            # zero rows: utility 0 everywhere, deterministic smallest-id packages
            assert [p.items for p in expected.packages] == [
                p.items for p in batch_results[v].packages
            ]
            assert expected.utilities == batch_results[v].utilities

    def test_k_larger_than_feasible_package_count(self):
        rng = np.random.default_rng(4)
        evaluator = PackageEvaluator(
            ItemCatalog(rng.random((4, 2))), AggregateProfile(["sum", "min"]), 2
        )
        # 4 singletons + 6 pairs = 10 feasible packages, k far larger.
        weights = rng.uniform(-1, 1, (3, 2))
        batch_results = BatchTopKPackageSearcher(evaluator).search_many(weights, 50)
        sequential = TopKPackageSearcher(evaluator)
        for v in range(3):
            expected = sequential.search(weights[v], 50)
            assert len(batch_results[v].packages) == len(expected.packages) <= 10
            assert_equivalent(expected, batch_results[v])

    def test_exact_tie_handling_on_duplicate_items(self):
        # Identical items make utilities tie exactly; on a catalog this small
        # both searchers enumerate the full tie set, so the deterministic
        # package-id tie-break must make the result lists identical.
        features = np.array([[0.5, 0.2]] * 4 + [[0.3, 0.1]] * 2)
        evaluator = PackageEvaluator(
            ItemCatalog(features), AggregateProfile(["sum", "avg"]), 2
        )
        weights = np.array([[0.8, -0.3], [-0.2, 0.6], [0.5, 0.5]])
        batch_results = BatchTopKPackageSearcher(evaluator).search_many(weights, 6)
        sequential = TopKPackageSearcher(evaluator)
        for v in range(3):
            expected = sequential.search(weights[v], 6)
            assert [p.items for p in expected.packages] == [
                p.items for p in batch_results[v].packages
            ]
            assert expected.utilities == batch_results[v].utilities

    def test_beam_and_item_cap_modes_run(self):
        # Bounded-work anytime modes: results are well-formed (sorted, within
        # caps) even though a shared beam is not bit-compatible with the
        # sequential per-vector beam.
        evaluator, weights, k = random_instance(5)
        searcher = BatchTopKPackageSearcher(
            evaluator, beam_width=2, max_items_accessed=5
        )
        results = searcher.search_many(weights, k)
        assert len(results) == weights.shape[0]
        for result in results:
            assert result.items_accessed <= 5
            assert all(
                first >= second
                for first, second in zip(result.utilities, result.utilities[1:])
            )

    def test_empty_matrix_returns_no_results(self):
        evaluator, _, _ = random_instance(2)
        assert BatchTopKPackageSearcher(evaluator).search_many(
            np.zeros((0, evaluator.num_features)), 3
        ) == []

    def test_wrong_width_and_bad_k_rejected(self):
        evaluator, weights, _ = random_instance(2)
        searcher = BatchTopKPackageSearcher(evaluator)
        with pytest.raises(ValueError):
            searcher.search_many(np.ones((2, evaluator.num_features + 1)), 3)
        with pytest.raises(ValueError):
            searcher.search_many(weights, 0)

    def test_invalid_construction_rejected(self):
        evaluator, _, _ = random_instance(2)
        with pytest.raises(ValueError):
            BatchTopKPackageSearcher(evaluator, max_candidates=0)
        with pytest.raises(ValueError):
            BatchTopKPackageSearcher(evaluator, beam_width=0)
        with pytest.raises(ValueError):
            BatchTopKPackageSearcher(evaluator, max_items_accessed=0)


class TestPredicates:
    def test_predicates_filter_batch_results(self):
        rng = np.random.default_rng(9)
        evaluator = PackageEvaluator(
            ItemCatalog(rng.random((10, 3))), AggregateProfile(["sum", "avg", "max"]), 3
        )
        predicates = PredicateSet([MinCountPredicate(1, matching_items=[0, 1, 2])])
        weights = rng.uniform(-1, 1, (4, 3))
        batch_results = BatchTopKPackageSearcher(
            evaluator, predicates=predicates
        ).search_many(weights, 3)
        sequential = TopKPackageSearcher(evaluator, predicates=predicates)
        for v in range(4):
            for package in batch_results[v].packages:
                assert any(item in (0, 1, 2) for item in package)
            assert_equivalent(sequential.search(weights[v], 3), batch_results[v])


class TestNullSoundness:
    """The τ bound must dominate null-valued unaccessed items (fixed this PR).

    A null contributes nothing to any aggregate, which beats the boundary
    value τ for negative-weight sum/avg/max features and interacts with min
    features per candidate; without the null-aware boundary both searchers
    pruned true top-k packages on catalogs with nulls.
    """

    @pytest.mark.parametrize("seed", [9, 30, 78, 12, 15])
    def test_null_catalogs_stay_exact(self, seed):
        evaluator, weights, k = random_instance(seed * 3)  # *3 -> nulls present
        sequential = TopKPackageSearcher(evaluator)
        batch = BatchTopKPackageSearcher(evaluator)
        batch_results = batch.search_many(weights, k)
        for v in range(weights.shape[0]):
            expected = [u for _, u in brute_force_top_k_packages(evaluator, weights[v], k)]
            assert np.allclose(sequential.search(weights[v], k).utilities, expected, atol=1e-9)
            assert np.allclose(batch_results[v].utilities, expected, atol=1e-9)


class TestCandidateCarryover:
    """The carryover cache itself: bounded LRU of candidate item-tuples."""

    def test_store_fetch_lru_eviction(self):
        cache = CandidateCarryover(capacity=2)
        cache.store("a", [(0,), (1,)])
        cache.store("b", [(2,)])
        assert cache.fetch("a") == ((0,), (1,))  # refreshes "a"
        cache.store("c", [(3,)])  # evicts "b" (least recently used)
        assert "b" not in cache
        assert cache.fetch("b") == ()
        assert cache.fetch("a") == ((0,), (1,))
        assert len(cache) == 2
        stats = cache.as_dict()
        assert stats["evictions"] == 1
        assert stats["misses"] == 1
        assert stats["hits"] == 2

    def test_per_key_truncation_and_discard(self):
        cache = CandidateCarryover(capacity=4, max_candidates_per_key=2)
        cache.store("a", [(0,), (1,), (2,), (3,)])
        assert cache.fetch("a") == ((0,), (1,))
        assert cache.discard("a") is True
        assert cache.discard("a") is False
        cache.store("b", [(5,)])
        cache.clear()
        assert len(cache) == 0

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            CandidateCarryover(capacity=0)
        with pytest.raises(ValueError, match="max_candidates_per_key"):
            CandidateCarryover(max_candidates_per_key=0)


class TestCarryoverEquivalence:
    """Carried seeds must never change an exact search's results.

    Every test compares a searcher with a carryover cache (fed by a prior
    round's harvest) against a cold searcher on the same query; with exact
    settings (no beam / items cap) the results must match outright — seeds
    are re-validated and re-scored, so they only shorten the walk.
    """

    @pytest.mark.parametrize("seed", range(0, 40))
    def test_carried_search_matches_cold_search(self, seed):
        evaluator, weights, k = random_instance(seed)
        rng = np.random.default_rng(seed + 10_000)
        # Round 1 primes the cache; round 2 perturbs the weights (a "click"
        # moves the posterior a little) and must match a cold search exactly.
        perturbed = weights + rng.normal(0.0, 0.05, weights.shape)
        carry = BatchTopKPackageSearcher(evaluator, carryover=CandidateCarryover())
        cold = BatchTopKPackageSearcher(evaluator)
        carry.search_pools([weights], k, carry_in=[None], carry_out=["r1"])
        warm_results = carry.search_pools(
            [perturbed], k, carry_in=["r1"], carry_out=["r2"]
        )[0]
        cold_results = cold.search_pools([perturbed], k)[0]
        for warm, cold_result in zip(warm_results, cold_results):
            assert_equivalent(cold_result, warm)

    @pytest.mark.parametrize("seed", [0, 3, 9, 21, 30])
    def test_null_catalog_seeds_stay_exact(self, seed):
        # seed*3 -> random_instance sprinkles NaNs: carried seeds must rebuild
        # their aggregation states null-aware (masked sums/mins/maxs).
        evaluator, weights, k = random_instance(seed * 3)
        carry = BatchTopKPackageSearcher(evaluator, carryover=CandidateCarryover())
        cold = BatchTopKPackageSearcher(evaluator)
        carry.search_pools([weights], k, carry_in=[None], carry_out=["r1"])
        warm_results = carry.search_pools([weights], k, carry_in=["r1"])[0]
        for warm, cold_result in zip(cold.search_pools([weights], k)[0], warm_results):
            assert_equivalent(cold_result, warm)

    def test_k_larger_than_feasible_with_seeds(self):
        evaluator = PackageEvaluator(
            ItemCatalog(np.array([[1.0, 0.5], [0.4, 0.2]])),
            AggregateProfile(["sum", "sum"]),
            2,
        )
        carry = BatchTopKPackageSearcher(evaluator, carryover=CandidateCarryover())
        weights = np.array([[1.0, 1.0], [0.5, 2.0]])
        carry.search_pools([weights], 50, carry_in=[None], carry_out=["r1"])
        warm = carry.search_pools([weights], 50, carry_in=["r1"])[0]
        cold = BatchTopKPackageSearcher(evaluator).search_pools([weights], 50)[0]
        for w, c in zip(warm, cold):
            assert [p.items for p in w.packages] == [p.items for p in c.packages]
            assert len(w.packages) == 3  # {0}, {1}, {0,1}: all feasible packages
            assert w.utilities == c.utilities

    def test_all_candidates_invalidated_by_adversarial_shift(self):
        # Prime with one weight orthant, then search its negation: every
        # carried candidate is now deep below eta_lo and must be pruned
        # without corrupting the (exact) result.
        evaluator, weights, k = random_instance(7)
        carry = BatchTopKPackageSearcher(evaluator, carryover=CandidateCarryover())
        cold = BatchTopKPackageSearcher(evaluator)
        carry.search_pools([weights], k, carry_in=[None], carry_out=["r1"])
        flipped = -weights
        warm_results = carry.search_pools([flipped], k, carry_in=["r1"])[0]
        for warm, cold_result in zip(cold.search_pools([flipped], k)[0], warm_results):
            assert_equivalent(cold_result, warm)

    def test_corrupt_seeds_degrade_to_exact_search(self):
        evaluator, weights, k = random_instance(11)
        cache = CandidateCarryover()
        num_items = evaluator.catalog.num_items
        phi = evaluator.max_package_size
        cache.store(
            "bad",
            [
                (),  # empty
                (num_items + 5,),  # out-of-catalog item
                tuple(range(phi + 3)),  # oversized
                (-1,),  # negative index
                (0,),  # one genuinely valid seed
            ],
        )
        carry = BatchTopKPackageSearcher(evaluator, carryover=cache)
        warm_results = carry.search_pools([weights], k, carry_in=["bad"])[0]
        cold_results = BatchTopKPackageSearcher(evaluator).search_pools(
            [weights], k
        )[0]
        for warm, cold_result in zip(cold_results, warm_results):
            assert_equivalent(cold_result, warm)
        assert cache.candidates_invalidated == 4
        assert cache.candidates_carried == 1

    def test_evicted_entry_mid_session_degrades_to_miss(self):
        # A capacity-1 cache with two interleaved sessions: each store evicts
        # the other session's entry, so every carry_in is a miss — results
        # must still be exact and the misses visible in the stats.
        evaluator, weights, k = random_instance(13)
        cache = CandidateCarryover(capacity=1)
        carry = BatchTopKPackageSearcher(evaluator, carryover=cache)
        cold = BatchTopKPackageSearcher(evaluator)
        carry.search_pools([weights], k, carry_in=[None], carry_out=["s1-r1"])
        carry.search_pools([weights * 0.5], k, carry_in=[None], carry_out=["s2-r1"])
        assert "s1-r1" not in cache  # evicted by s2's store
        warm_results = carry.search_pools([weights], k, carry_in=["s1-r1"])[0]
        for warm, cold_result in zip(cold.search_pools([weights], k)[0], warm_results):
            assert_equivalent(cold_result, warm)
        assert cache.misses >= 1

    def test_search_many_ignores_the_cache(self):
        evaluator, weights, k = random_instance(17)
        cache = CandidateCarryover()
        carry = BatchTopKPackageSearcher(evaluator, carryover=cache)
        carry.search_many(weights, k)
        assert len(cache) == 0  # only search_pools with carry_out stores

    def test_carry_list_length_validation(self):
        evaluator, weights, k = random_instance(19)
        carry = BatchTopKPackageSearcher(evaluator, carryover=CandidateCarryover())
        with pytest.raises(ValueError, match="carry_in"):
            carry.search_pools([weights], k, carry_in=["a", "b"])
        with pytest.raises(ValueError, match="carry_out"):
            carry.search_pools([weights], k, carry_out=[])

    @pytest.mark.parametrize("seed", [2, 5, 8, 14])
    def test_truncated_walks_carry_is_anytime_improvement(self, seed):
        """Under an items cap, carried searches are never *worse*.

        Bit-identity only holds for exact searches: a bounded-work walk that
        hits ``max_items_accessed`` reports best-so-far, and seeding hands it
        packages the truncated cold walk may never reach.  The guarantee that
        remains — and that this test pins — is per-rank dominance: every
        utility of the carried result is >= the cold result's at that rank,
        because a seeded walk only prunes candidates provably below its own
        k-th best.
        """
        evaluator, weights, k = random_instance(seed)
        cap = max(2, evaluator.catalog.num_items // 2)
        carry = BatchTopKPackageSearcher(
            evaluator, max_items_accessed=cap, carryover=CandidateCarryover()
        )
        cold = BatchTopKPackageSearcher(evaluator, max_items_accessed=cap)
        carry.search_pools([weights], k, carry_in=[None], carry_out=["r1"])
        warm_results = carry.search_pools([weights], k, carry_in=["r1"])[0]
        cold_results = cold.search_pools([weights], k)[0]
        for warm, cold_result in zip(warm_results, cold_results):
            assert len(warm.utilities) >= len(cold_result.utilities)
            for warm_value, cold_value in zip(warm.utilities, cold_result.utilities):
                assert warm_value >= cold_value


class TestWalkStats:
    """``last_search_stats`` reports the walk's shape and whether it was exact."""

    @staticmethod
    def _searcher(**kwargs):
        rng = np.random.default_rng(11)
        evaluator = PackageEvaluator(
            ItemCatalog(rng.random((60, 4))),
            AggregateProfile(["sum", "avg", "max", "min"]), 3,
        )
        weights = rng.uniform(-1, 1, (6, 4))
        return BatchTopKPackageSearcher(evaluator, **kwargs), weights

    def test_exact_search_is_not_anytime(self):
        searcher, weights = self._searcher()
        searcher.search_many(weights, 3)
        stats = searcher.last_search_stats
        assert stats["anytime"] is False
        assert stats["steps"] >= 1
        assert stats["peak_queue_rows"] >= 2
        assert stats["bound_cells"] >= stats["steps"]

    def test_item_cap_makes_the_search_anytime(self):
        searcher, weights = self._searcher(max_items_accessed=3)
        searcher.search_many(weights, 3)
        assert searcher.last_search_stats["anytime"] is True
        assert searcher.last_search_stats["steps"] == 3

    def test_a_cap_the_walk_never_reaches_stays_exact(self):
        searcher, weights = self._searcher(max_items_accessed=60)
        searcher.search_many(weights, 3)
        assert searcher.last_search_stats["anytime"] is False

    def test_beam_truncation_makes_the_search_anytime(self):
        searcher, weights = self._searcher(beam_width=1)
        searcher.search_many(weights[:1], 3)
        assert searcher.last_search_stats["anytime"] is True

    def test_max_candidates_stop_makes_the_search_anytime(self):
        searcher, weights = self._searcher(max_candidates=5)
        searcher.search_many(weights, 3)
        assert searcher.last_search_stats["anytime"] is True

    def test_all_zero_rows_take_no_walk_steps(self):
        searcher, weights = self._searcher()
        searcher.search_many(np.zeros_like(weights), 3)
        stats = searcher.last_search_stats
        assert stats["steps"] == 0 and stats["anytime"] is False
