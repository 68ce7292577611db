"""Vectorised batch ``Top-k-Pkg``: one shared walk for many weight vectors.

With the serving engine's shared sample-pool cache in place, the dominant
per-round cost is running ``Top-k-Pkg`` once per posterior weight sample —
N near-identical package searches over one catalog.  The sequential
:class:`~repro.topk.package_search.TopKPackageSearcher` spends almost all of
that time in per-candidate Python: every accessed item triggers
``state_utility``/``upper-exp`` calls for every queue entry, repeated N times.

:class:`BatchTopKPackageSearcher` restructures the search so the repeated
work is shared and the per-candidate work is NumPy row-wise:

* **Shared walk.**  Each weight vector walks its own round-robin access
  sequence over the per-feature sorted lists (its access order and boundary
  vector τ are exactly the sequential algorithm's), and the walks advance in
  lockstep *steps* — one new item per still-active vector per step.  A
  vector's access sequence depends only on its weight signs, so the cursors
  are array state: one precomputed sequence per sign pattern
  (:class:`~repro.topk.sorted_lists.AccessSequences`) and one access count
  per vector, all advanced by a single gather.
* **Shared candidate pool.**  Candidate packages are kept once, in
  struct-of-arrays form (``sums`` / ``mins`` / ``maxs`` / ``sizes`` matrices),
  instead of once per weight vector.  Utilities of every candidate under
  every weight vector are matrix products; the ``upper-exp`` bound of §4
  (padding a candidate with copies of the boundary item τ) is evaluated for
  all candidates × vectors at once from a closed form over the aggregation
  types (sum/avg parts are affine in the number of pads r, min/max parts are
  constant for r ≥ 1), so one small loop over r = 1..φ replaces the
  per-candidate Python padding loop.
* **Cross-round candidate carryover.**  With a :class:`CandidateCarryover`
  attached, :meth:`BatchTopKPackageSearcher.search_pools` can seed a fresh
  walk with the candidate packages a previous round materialised (``carry_in``)
  and retain this round's candidates for the next (``carry_out``).  Seeds are
  hints, not answers: each one is re-validated against the catalog, rebuilt
  null-aware from the current feature matrix, and re-scored under the current
  weight matrix, so its *true* utilities tighten η_lo from step one and its
  growable states re-enter Q+ where the ordinary bound recomputation prunes
  whatever the click invalidated.  In the exact configuration (no beam, no
  item cap, ``max_candidates`` not reached) results are identical with or
  without carryover; consecutive post-click searches just walk only the
  invalidated frontier instead of restarting from scratch.  When a beam or
  item cap stops the walk early (anytime mode), seeds change which
  candidates the truncated walk holds, so a carried search may return other
  — per rank never worse — packages than a cold one.
* **Active-mask early termination.**  Per vector v the usual bounds are
  maintained: ``η_lo[v]`` is the k-th best utility among discovered
  reportable candidates, ``η_up[v]`` the best ``upper-exp`` bound over the
  expandable queue.  As soon as ``η_up[v] ≤ η_lo[v]`` (or v's lists are
  exhausted, or its item cap is reached) v leaves the active mask: its
  cursor stops and it stops contributing columns to the bound matrices,
  while the remaining vectors keep walking.

Exactness.  The shared pool is a *superset* of every per-vector search's
candidate set: a candidate leaves the expandable queue only when **every**
active vector's bound says none of its completions can reach that vector's
top-k, and each vector's own termination test is unchanged.  Since the
sequential searcher (in its default exact configuration) and the batch
searcher both return the true top-k by utility with ties broken by package
id — and both report utilities through the same canonical scoring helper —
their results match exactly, package by package and score by score.  See
``tests/test_topk_batch.py`` for the property-style equivalence suite and
DESIGN.md ("Batched top-k search") for the data layout.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.packages import Package, PackageEvaluator
from repro.core.predicates import PredicateSet
from repro.core.profiles import Aggregation
from repro.core.utility import LinearUtility
from repro.topk.package_search import (
    PackageSearchResult,
    TopKPackageSearcher,
    canonical_package_vectors,
)
from repro.topk.sorted_lists import AccessSequences, FilteredOrderSource, sign_codes

__all__ = ["BatchTopKPackageSearcher", "CandidateCarryover"]


class CandidateCarryover:
    """Bounded LRU store of candidate packages carried across searches.

    After a click, most of a session's sample pool survives (§3.4) and the
    weight posterior moves only a little — so the candidate packages the
    previous round's sorted-list walk materialised are excellent *seeds* for
    the next round's walk: their true utilities initialise η_lo near its
    final value and their aggregation states re-enter the expandable queue,
    leaving only the click-invalidated frontier to be walked from scratch.

    Entries are keyed by an opaque string (the serving layer uses the pool's
    fingerprint key, giving per-session lineage through the engine's
    ``carry_key`` tracking) and hold plain item-tuples, not search state:
    every seed is re-validated against the current catalog and re-scored
    under the current weight matrix before it influences anything, so in an
    exact search a carried candidate can only *speed up* the search, never
    change its result (see :meth:`BatchTopKPackageSearcher.search_pools`).
    A search bounded by a beam or an item cap is anytime: there the seeds
    change what the truncated walk holds, and with it the result.  A stale,
    evicted or even corrupted entry degrades to a slower search without
    seeds.

    Seeds are not free: every carried candidate occupies a row of the shared
    struct-of-arrays pool for the whole walk, so each per-round matrix
    operation pays for it whether or not it helps.  The per-key cap bounds
    that cost; harvests order the *reportable* packages (the union of every
    vector's top-k — exactly the candidates whose true utilities tighten
    η_lo) ahead of the remaining queue frontier, so truncation keeps the
    valuable prefix.

    Not thread-safe; callers serialise access (the engine's serving path is
    synchronous per round, like its other caches).
    """

    def __init__(
        self, capacity: int = 128, max_candidates_per_key: int = 256
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        if max_candidates_per_key <= 0:
            raise ValueError(
                f"max_candidates_per_key must be > 0, got {max_candidates_per_key}"
            )
        self.capacity = capacity
        self.max_candidates_per_key = max_candidates_per_key
        self._entries: "OrderedDict[str, Tuple[Tuple[int, ...], ...]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        #: Total candidates injected as seeds into searches (post-validation).
        self.candidates_carried = 0
        #: Seeds dropped by validation (out-of-catalog items, oversized, ...).
        self.candidates_invalidated = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def fetch(self, key: str) -> Tuple[Tuple[int, ...], ...]:
        """The candidates stored under ``key`` (LRU-refreshing; () on miss)."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return ()
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def store(self, key: str, candidates: Sequence[Tuple[int, ...]]) -> None:
        """Retain ``candidates`` under ``key`` (truncated, LRU-evicting)."""
        self._entries[key] = tuple(candidates[: self.max_candidates_per_key])
        self._entries.move_to_end(key)
        self.stores += 1
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def discard(self, key: str) -> bool:
        """Drop ``key``'s entry if present; returns whether it existed."""
        return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        self._entries.clear()

    def as_dict(self) -> dict:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "candidates_carried": self.candidates_carried,
            "candidates_invalidated": self.candidates_invalidated,
        }


class _BatchState:
    """Mutable per-run state: cursors, bounds, and the shared candidate queue.

    **Cursors.**  A vector's access sequence depends only on its weight sign
    pattern, so the cursors are one :class:`AccessSequences` table per
    pattern (``seq_items`` / ``seq_taus``, padded with −1 past exhaustion)
    plus one access count per vector: advancing every active vector is one
    gather.  ``taus`` holds each vector's null-aware boundary vector.

    **Per-step bound terms.**  ``terms`` holds, per vector, every τ-derived
    input of :meth:`BatchTopKPackageSearcher._padded_bounds`, recomputed once
    per walk step: ``r·a`` and ``r·b`` for r = 1..φ, where ``a``/``b`` are the
    sum/avg dot products of the NaN-filled τ, then τ of each min feature and
    τ of each max feature with NaN → −∞; followed by the (static) normalised
    weights of the min and max features.  A bound call slices its columns
    with one gather.

    **Queue.**  The expandable queue Q+ is held in struct-of-arrays form so
    candidate × vector quantities come out of matrix products: ``sums``/
    ``mins``/``maxs``/``sizes`` describe each candidate's aggregation state
    exactly like :class:`~repro.core.packages.AggregationState`, while
    ``su``/``sa`` cache the candidate's sum-/avg-feature dot products against
    every weight vector (the τ-independent part of the ``upper-exp`` bound).
    The arrays are preallocated and double when full; ``rows`` counts the
    live prefix, which the ``q_*`` properties view.  Row 0 is always the
    empty package — the seed for singletons of still-unseen items.
    """

    def __init__(self, searcher: "BatchTopKPackageSearcher", W: np.ndarray, k: int):
        ev = searcher.evaluator
        m = ev.num_features
        n = W.shape[0]
        aggs = ev.profile.aggregations
        self.k = k
        self.W = W
        self.phi = ev.max_package_size
        self.features = ev.catalog.features
        self.sum_mask = np.array([a is Aggregation.SUM for a in aggs])
        self.avg_mask = np.array([a is Aggregation.AVG for a in aggs])
        max_mask = np.array([a is Aggregation.MAX for a in aggs])
        self.min_feats = [j for j, a in enumerate(aggs) if a is Aggregation.MIN]
        self.max_feats = [j for j, a in enumerate(aggs) if a is Aggregation.MAX]
        self.Wn = W / ev.normalisers  # utility = raw aggregate @ (w / normalisers)
        self.Wn_sum = self.Wn * self.sum_mask
        self.Wn_avg = self.Wn * self.avg_mask
        self.set_mono = np.array(
            [LinearUtility(W[v]).is_set_monotone(ev.profile) for v in range(n)]
        )
        self.any_mono = bool(self.set_mono.any())

        self.patterns, pattern_of = np.unique(
            sign_codes(W), axis=0, return_inverse=True
        )
        self.pattern_of = np.ravel(pattern_of)
        self.seq_items = np.empty((len(self.patterns), 0), dtype=np.int64)
        self.seq_taus = np.empty((len(self.patterns), 0, m))
        self.accessed = np.zeros(n, dtype=np.int64)
        self.active = np.ones(n, dtype=bool)
        self.taus = np.zeros((n, m))
        # null_aware_boundary, vectorised: NaN where a null beats τ.
        null_columns = searcher._null_columns
        self.nullable = bool(null_columns.any())
        self.null_sign_columns = null_columns & (self.sum_mask | self.avg_mask)
        self.null_max = (null_columns & max_mask)[None, :] & (W < 0)

        n_min, n_max = len(self.min_feats), len(self.max_feats)
        self.pads = np.arange(1, self.phi + 1)
        self.rb_col = self.phi
        self.tau_min_col = 2 * self.phi
        self.tau_max_col = self.tau_min_col + n_min
        self.w_min_col = self.tau_max_col + n_max
        self.w_max_col = self.w_min_col + n_min
        self.terms = np.zeros((n, self.w_max_col + n_max))
        self.terms[:, self.w_min_col:self.w_max_col] = self.Wn[:, self.min_feats]
        self.terms[:, self.w_max_col:] = self.Wn[:, self.max_feats]
        #: Whether a padded max feature can be non-finite this step.
        self.max_unbounded = not searcher._max_columns_finite

        self.discovered: set = set()  # non-empty candidate item-tuples, shared
        self.reportable: List[Tuple[int, ...]] = []
        self.top_vals = np.full((n, k), -np.inf)  # per-vector k best utilities
        self.eta_lo = np.full(n, -np.inf)

        capacity = 64
        self.q_items: List[Tuple[int, ...]] = [()]
        self._sums = np.zeros((capacity, m))
        self._mins = np.full((capacity, m), np.inf)
        self._maxs = np.full((capacity, m), -np.inf)
        self._sizes = np.zeros(capacity, dtype=int)
        self._slots = np.full((capacity, self.phi), -1, dtype=np.int64)
        self._su = np.zeros((capacity, n))
        self._sa = np.zeros((capacity, n))
        self.rows = 1
        self.slot_of: Dict[int, int] = {}  # item index -> membership slot

        # Walk attributes reported through last_search_stats.
        self.steps = 0
        self.peak_rows = 1
        self.bound_cells = 0
        self.anytime = False

    # ----------------------------------------------------------- queue views
    @property
    def q_sums(self) -> np.ndarray:
        return self._sums[: self.rows]

    @property
    def q_mins(self) -> np.ndarray:
        return self._mins[: self.rows]

    @property
    def q_maxs(self) -> np.ndarray:
        return self._maxs[: self.rows]

    @property
    def q_sizes(self) -> np.ndarray:
        return self._sizes[: self.rows]

    @property
    def q_slots(self) -> np.ndarray:
        return self._slots[: self.rows]

    @property
    def q_su(self) -> np.ndarray:
        return self._su[: self.rows]

    @property
    def q_sa(self) -> np.ndarray:
        return self._sa[: self.rows]

    def walk_stats(self) -> dict:
        return {
            "steps": self.steps,
            "peak_queue_rows": self.peak_rows,
            "bound_cells": self.bound_cells,
            "anytime": self.anytime,
        }

    def observe(self, utilities: np.ndarray) -> None:
        """Fold newly discovered reportable utilities into η_lo (k-th best)."""
        stacked = np.concatenate([self.top_vals, utilities.T], axis=1)
        self.top_vals = np.partition(stacked, stacked.shape[1] - self.k, axis=1)[
            :, -self.k:
        ]
        self.eta_lo = self.top_vals.min(axis=1)

    def append_queue(self, items, sums, mins, maxs, sizes, slots) -> None:
        start = self.rows
        stop = start + len(items)
        if stop > self._sums.shape[0]:
            self._grow(stop)
        self.q_items.extend(items)
        self._sums[start:stop] = sums
        self._mins[start:stop] = mins
        self._maxs[start:stop] = maxs
        self._sizes[start:stop] = sizes
        self._slots[start:stop] = slots
        self._su[start:stop] = sums @ self.Wn_sum.T
        self._sa[start:stop] = sums @ self.Wn_avg.T
        self.rows = stop
        self.peak_rows = max(self.peak_rows, stop)

    def _grow(self, needed: int) -> None:
        capacity = max(2 * self._sums.shape[0], needed)
        for name in ("_sums", "_mins", "_maxs", "_sizes", "_slots", "_su", "_sa"):
            old = getattr(self, name)
            new = np.empty((capacity,) + old.shape[1:], dtype=old.dtype)
            new[: self.rows] = old[: self.rows]
            setattr(self, name, new)

    def shrink_queue(self, keep: np.ndarray) -> None:
        """Restrict the queue to ``keep`` (boolean mask or index array)."""
        rows = np.flatnonzero(keep) if keep.dtype == bool else np.asarray(keep)
        count = rows.size
        self.q_items = [self.q_items[i] for i in rows]
        for array in (
            self._sums, self._mins, self._maxs, self._sizes,
            self._slots, self._su, self._sa,
        ):
            array[:count] = array[rows]
        self.rows = count


class BatchTopKPackageSearcher:
    """Run ``Top-k-Pkg`` for a whole matrix of weight vectors in one pass.

    Parameters
    ----------
    evaluator:
        Binds the item catalog, the aggregate profile and the maximum package
        size φ (same contract as :class:`TopKPackageSearcher`).
    predicates:
        Optional package-schema predicates (§7); candidates violating them are
        discovered but never reported.
    max_candidates:
        Safety cap on the number of *distinct* candidate packages materialised
        across the whole batch; when exceeded the search stops and reports the
        best packages found so far (graceful degradation, as in the sequential
        searcher).
    beam_width:
        Optional *per-vector* beam, matching the sequential searcher's
        parameter: the shared expandable queue is capped at ``beam_width ×
        (number of distinct non-zero weight vectors)``, so a batch of N
        vectors gets the same total candidate budget N sequential beam
        searches would have.  When the cap binds, the candidates with the
        best ``upper-exp`` bound under *any* active vector are kept.
        ``None`` (default) keeps the search exact.  A finite beam is a
        bounded-work anytime mode — not bit-compatible with the sequential
        searcher's independent per-vector queues, since the budget is pooled.
    max_items_accessed:
        Optional per-vector cap on items read from the sorted lists; a vector
        reaching the cap terminates with its best-so-far results.
    carryover:
        Optional :class:`CandidateCarryover` enabling cross-round candidate
        reuse through the ``carry_in`` / ``carry_out`` arguments of
        :meth:`search_pools`.  Carried candidates are seeds only — every one
        is re-validated and re-scored before use — so exact searches return
        the same results with or without a carryover cache; only the walk
        length changes.  Under a finite ``beam_width`` or
        ``max_items_accessed`` the seeds can change the anytime result.
    catalog_predicate:
        Optional item-eligibility predicate
        (:class:`repro.data.columnar.CatalogPredicate`) pushed down into
        every cursor's sorted lists, exactly as in the sequential searcher;
        carried-over seed candidates containing ineligible items are dropped
        at validation.

    Notes
    -----
    :meth:`search_many` deduplicates identical weight rows (MCMC pools repeat
    the chain state on rejection) and delegates all-zero rows to the
    sequential searcher's deterministic zero-weight path, so degenerate pools
    behave identically to per-vector search.
    """

    def __init__(
        self,
        evaluator: PackageEvaluator,
        predicates: Optional[PredicateSet] = None,
        max_candidates: int = 200_000,
        beam_width: Optional[int] = None,
        max_items_accessed: Optional[int] = None,
        carryover: Optional[CandidateCarryover] = None,
        catalog_predicate=None,
    ) -> None:
        self.evaluator = evaluator
        self.predicates = predicates
        self.carryover = carryover
        if max_candidates <= 0:
            raise ValueError(f"max_candidates must be > 0, got {max_candidates}")
        self.max_candidates = max_candidates
        if beam_width is not None and beam_width <= 0:
            raise ValueError(f"beam_width must be > 0 or None, got {beam_width}")
        self.beam_width = beam_width
        if max_items_accessed is not None and max_items_accessed <= 0:
            raise ValueError(
                f"max_items_accessed must be > 0 or None, got {max_items_accessed}"
            )
        self.max_items_accessed = max_items_accessed
        self._null_columns = evaluator.catalog.null_mask.any(axis=0)
        self.catalog_predicate = catalog_predicate
        if catalog_predicate is None:
            self._eligible_mask: Optional[np.ndarray] = None
        else:
            mask = np.asarray(
                catalog_predicate.eligible_mask(evaluator.catalog), dtype=bool
            )
            if mask.shape != (evaluator.catalog.num_items,):
                raise ValueError(
                    "catalog_predicate mask has shape "
                    f"{mask.shape}, expected ({evaluator.catalog.num_items},)"
                )
            self._eligible_mask = mask
        self._order_source = FilteredOrderSource(
            evaluator.catalog, self._eligible_mask
        )
        self._sequences = AccessSequences(evaluator.catalog, self._order_source)
        # A padded max feature is non-finite only through a −∞ pad (a null
        # beating τ) unless the catalog itself holds infinite values.
        max_summaries = [
            evaluator.catalog.column_summary(j)
            for j, aggregation in enumerate(evaluator.profile.aggregations)
            if aggregation is Aggregation.MAX
        ]
        self._max_columns_finite = not any(
            math.isinf(s.vmin) or math.isinf(s.vmax) for s in max_summaries
        )
        #: Summary of the most recent :meth:`_search_flat` call (row counts,
        #: dedup rate, items accessed, carried seeds) — read by the engine's
        #: telemetry layer to annotate ``search.topk`` spans.  ``None`` until
        #: a search runs; plain data, never consulted by the search itself.
        self.last_search_stats: Optional[dict] = None

    # -------------------------------------------------------------- public API
    def search(self, weights: np.ndarray, k: int) -> PackageSearchResult:
        """Single-vector convenience wrapper around :meth:`search_many`."""
        return self.search_many(np.atleast_2d(np.asarray(weights, dtype=float)), k)[0]

    def search_many(
        self, weights_matrix: np.ndarray, k: int
    ) -> List[PackageSearchResult]:
        """Top-k packages for every row of ``weights_matrix``, walking once.

        Returns one :class:`PackageSearchResult` per input row, in row order.
        ``items_accessed`` is per vector (its own cursor's count);
        ``candidates_generated`` is the shared pool's distinct-candidate
        count, which every row of the batch reports.
        """
        results, _harvest = self._search_flat(weights_matrix, k, seeds=None)
        return results

    def search_pools(
        self,
        matrices: Sequence[np.ndarray],
        k: int,
        carry_in: Optional[Sequence[Optional[str]]] = None,
        carry_out: Optional[Sequence[Optional[str]]] = None,
    ) -> List[List[PackageSearchResult]]:
        """Top-k packages for several weight matrices in one shared walk.

        The across-session entry point: ``matrices`` holds one ``(N_i, m)``
        weight matrix per sample pool (e.g. one per cache-missing serving
        session), and all of them are searched as a single concatenated batch
        — one sorted-list walk, one shared candidate pool, one deduplication
        of identical weight rows *across* pools (heterogeneous sessions still
        overlap heavily: MCMC pools repeat states, and sessions one click
        apart share most of their posterior mass).  Results come back split
        per input matrix, in row order, and each row's result is the same as
        :meth:`search_many` of its own matrix would return (per-vector
        termination only depends on the vector's own bounds; a finite
        ``beam_width`` pools the candidate budget over the whole batch, so
        bounded-work runs may differ — the same caveat batching within one
        pool already carries).

        ``carry_in`` / ``carry_out`` (one optional key per matrix, requires a
        :class:`CandidateCarryover`) enable the cross-round fast path: the
        candidates stored under every non-``None`` ``carry_in`` key seed the
        shared walk (the walk is shared, so merged seeds are sound for every
        pool in the batch), and the candidates this walk materialises are
        stored under every non-``None`` ``carry_out`` key for the next round.
        Seeding never changes the results of an exact search: each seed is
        validated against the catalog, its aggregation state is rebuilt from
        the current feature matrix (null-aware, like live expansion), its
        *true* utilities initialise η_lo, and its still-growable states
        re-enter the expandable queue where the per-round bound
        recomputation re-validates them against the moved τs — so
        invalidated candidates are pruned exactly as organically discovered
        ones are.  A walk cut short by a beam or an item cap (reported as
        ``anytime`` in :attr:`last_search_stats`) keeps whichever candidates
        it holds when it stops, and seeds change those, so there the
        carried and the cold search may differ.
        """
        mats = [np.atleast_2d(np.asarray(m, dtype=float)) for m in matrices]
        for matrix in mats:
            if matrix.ndim != 2 or matrix.shape[1] != self.evaluator.num_features:
                raise ValueError(
                    f"every pool matrix must have shape (N, "
                    f"{self.evaluator.num_features}), got {matrix.shape}"
                )
        if not mats:
            return []
        for name, keys in (("carry_in", carry_in), ("carry_out", carry_out)):
            if keys is not None and len(keys) != len(mats):
                raise ValueError(
                    f"{name} must hold one key (or None) per matrix: "
                    f"got {len(keys)} keys for {len(mats)} matrices"
                )
        seeds = self._gather_seeds(carry_in)
        flat, harvest = self._search_flat(np.concatenate(mats, axis=0), k, seeds)
        if self.carryover is not None and carry_out is not None and harvest:
            for key in dict.fromkeys(key for key in carry_out if key is not None):
                self.carryover.store(key, harvest)
        bounds = np.cumsum([0] + [m.shape[0] for m in mats])
        return [flat[bounds[i]:bounds[i + 1]] for i in range(len(mats))]

    def _gather_seeds(
        self, carry_in: Optional[Sequence[Optional[str]]]
    ) -> List[Tuple[int, ...]]:
        """Deterministically ordered union of the carried candidate tuples."""
        if self.carryover is None or carry_in is None:
            return []
        merged: "dict" = {}
        for key in dict.fromkeys(key for key in carry_in if key is not None):
            for candidate in self.carryover.fetch(key):
                merged.setdefault(candidate, None)
        return list(merged)

    def _search_flat(
        self,
        weights_matrix: np.ndarray,
        k: int,
        seeds: Optional[Sequence[Tuple[int, ...]]],
    ):
        """(results, carry harvest) of one deduplicated batch search."""
        matrix = np.atleast_2d(np.asarray(weights_matrix, dtype=float))
        if matrix.ndim != 2 or matrix.shape[1] != self.evaluator.num_features:
            raise ValueError(
                f"weights_matrix must have shape (N, {self.evaluator.num_features}), "
                f"got {matrix.shape}"
            )
        if k <= 0:
            raise ValueError(f"k must be > 0, got {k}")
        if matrix.shape[0] == 0:
            return [], None
        unique, inverse = np.unique(matrix, axis=0, return_inverse=True)
        unique_results, harvest, walk = self._search_unique(unique, k, seeds)
        rows = int(matrix.shape[0])
        unique_rows = int(unique.shape[0])
        self.last_search_stats = {
            "rows": rows,
            "unique_rows": unique_rows,
            "dedup_rate": round(1.0 - unique_rows / rows, 4),
            "items_accessed": int(
                sum(result.items_accessed for result in unique_results)
            ),
            "seeds": len(seeds) if seeds else 0,
            **walk,
        }
        return [unique_results[j] for j in np.ravel(inverse)], harvest

    # ---------------------------------------------------------- orchestration
    def _search_unique(
        self,
        W: np.ndarray,
        k: int,
        seeds: Optional[Sequence[Tuple[int, ...]]] = None,
    ):
        results: List[Optional[PackageSearchResult]] = [None] * W.shape[0]
        harvest: Optional[List[Tuple[int, ...]]] = None
        walk = {"steps": 0, "peak_queue_rows": 0, "bound_cells": 0, "anytime": False}
        zero_rows = [v for v in range(W.shape[0]) if not np.any(W[v])]
        nonzero_rows = [v for v in range(W.shape[0]) if np.any(W[v])]
        if zero_rows:
            # All-zero weights have no sorted-list walk; reuse the sequential
            # searcher's deterministic smallest-ids path so results agree.
            fallback = TopKPackageSearcher(
                self.evaluator,
                predicates=self.predicates,
                max_candidates=self.max_candidates,
                catalog_predicate=self.catalog_predicate,
            )
            for v in zero_rows:
                results[v] = fallback.search(W[v], k)
        if nonzero_rows:
            batch, harvest, walk = self._run(W[nonzero_rows], k, seeds)
            for v, result in zip(nonzero_rows, batch):
                results[v] = result
        return results, harvest, walk  # type: ignore[return-value]

    # ------------------------------------------------------------- core search
    def _run(
        self,
        W: np.ndarray,
        k: int,
        seeds: Optional[Sequence[Tuple[int, ...]]] = None,
    ):
        state = _BatchState(self, W, k)
        if seeds:
            self._seed_candidates(state, seeds)
        while state.active.any():
            new_items = self._advance_cursors(state)
            if not state.active.any():
                break
            state.steps += 1
            self._step_terms(state)
            for item, cols in new_items:
                self._expand_with_item(state, item, cols)
            self._prune_and_terminate(state)
            if len(state.discovered) > self.max_candidates:
                state.anytime = True
                break
        return self._collect(state), self._harvest(state), state.walk_stats()

    def _seed_candidates(
        self, state: _BatchState, seeds: Sequence[Tuple[int, ...]]
    ) -> None:
        """Inject carried candidates into a fresh walk (exactness-preserving).

        Each seed is re-materialised from the *current* catalog: aggregation
        states are rebuilt null-aware (sum of non-null contributions, ±inf
        sentinels when a feature saw no value — exactly like
        :meth:`_expand_with_item` folding one item at a time), membership
        slots are registered so live expansion cannot re-add a member item,
        true utilities of the reportable seeds tighten η_lo immediately, and
        still-growable seeds join the expandable queue where the end-of-round
        bound recomputation re-validates them against the current τs.  Seeds
        that no longer exist in the catalog (or exceed φ) are dropped —
        carryover after catalog or configuration drift degrades to an
        ordinary cold walk, never to a wrong answer.
        """
        catalog = self.evaluator.catalog
        num_items = catalog.num_items
        valid: List[Tuple[int, ...]] = []
        dropped = 0
        for seed in seeds:
            candidate = tuple(sorted({int(i) for i in seed}))
            if (
                not candidate
                or len(candidate) > state.phi
                or candidate[0] < 0
                or candidate[-1] >= num_items
            ):
                dropped += 1
                continue
            if self._eligible_mask is not None and not self._eligible_mask[
                list(candidate)
            ].all():
                dropped += 1
                continue
            if candidate in state.discovered:
                continue
            state.discovered.add(candidate)
            valid.append(candidate)
        if self.carryover is not None:
            self.carryover.candidates_invalidated += dropped
            self.carryover.candidates_carried += len(valid)
        if not valid:
            return
        m = self.evaluator.num_features
        count = len(valid)
        sums = np.zeros((count, m))
        mins = np.full((count, m), np.inf)
        maxs = np.full((count, m), -np.inf)
        sizes = np.fromiter((len(t) for t in valid), dtype=int, count=count)
        slots = np.full((count, state.phi), -1, dtype=np.int64)
        for row, candidate in enumerate(valid):
            values = catalog.features[list(candidate)]
            null = np.isnan(values)
            sums[row] = np.where(null, 0.0, values).sum(axis=0)
            mins[row] = np.where(null, np.inf, values).min(axis=0)
            maxs[row] = np.where(null, -np.inf, values).max(axis=0)
            for position, item in enumerate(candidate):
                slots[row, position] = state.slot_of.setdefault(
                    item, len(state.slot_of)
                )
        reportable = np.array([self._reportable(t) for t in valid])
        if reportable.any():
            rows = np.flatnonzero(reportable)
            state.reportable.extend(valid[i] for i in rows)
            raw = self._raw_vectors(
                state, sums[rows], mins[rows], maxs[rows], sizes[rows]
            )
            state.observe(raw @ state.Wn.T)
        grow = np.flatnonzero(sizes < state.phi)
        if grow.size:
            state.append_queue(
                [valid[i] for i in grow],
                sums[grow], mins[grow], maxs[grow], sizes[grow], slots[grow],
            )

    def _harvest(self, state: _BatchState) -> List[Tuple[int, ...]]:
        """The candidates worth carrying out of a finished walk.

        Discovered reportable candidates first (they include every vector's
        winners — the η_lo seeds that matter most next round), then the
        surviving expandable frontier (growable prefixes whose bounds still
        held at termination); deduplicated, order-deterministic.  Truncation
        to the carryover's per-key cap happens at store time.
        """
        merged: "dict" = {}
        for candidate in state.reportable:
            merged.setdefault(candidate, None)
        for candidate in state.q_items[1:]:
            merged.setdefault(candidate, None)
        return list(merged)

    def _advance_cursors(self, state: _BatchState) -> List[Tuple[int, np.ndarray]]:
        """Read one new item per active vector; returns (item, accessing vectors).

        Items come in the order of their first accessing vector and each
        vector list is ascending — the order the per-vector cursors of
        :class:`~repro.topk.sorted_lists.SortedItemLists` would produce.
        """
        act = np.flatnonzero(state.active)
        if self.max_items_accessed is not None:
            capped = state.accessed[act] >= self.max_items_accessed
            if capped.any():
                state.active[act[capped]] = False
                state.anytime = True
                act = act[~capped]
                if act.size == 0:
                    return []
        position = state.accessed[act]
        needed = int(position.max()) + 1
        if needed > state.seq_items.shape[1]:
            self._extend_sequences(state, needed)
        pattern = state.pattern_of[act]
        items = state.seq_items[pattern, position]
        exhausted = items < 0
        if exhausted.any():
            state.active[act[exhausted]] = False
            live = ~exhausted
            act, pattern, position, items = (
                act[live], pattern[live], position[live], items[live]
            )
            if act.size == 0:
                return []
        state.accessed[act] = position + 1
        taus = state.seq_taus[pattern, position]
        if state.nullable:
            nulled = state.null_max[act] | (
                state.null_sign_columns & (state.W[act] * taus < 0)
            )
            taus[nulled] = np.nan
        state.taus[act] = taus
        if items[0] == items[-1] and (items == items[0]).all():
            return [(int(items[0]), act)]
        groups: Dict[int, List[int]] = {}
        for v, item in zip(act.tolist(), items.tolist()):
            groups.setdefault(item, []).append(v)
        return [(item, np.array(cols)) for item, cols in groups.items()]

    def _extend_sequences(self, state: _BatchState, needed: int) -> None:
        """Grow the per-pattern access tables to hold ``needed`` accesses."""
        length = max(needed, 2 * state.seq_items.shape[1], 16)
        count = len(state.patterns)
        items_table = np.full((count, length), -1, dtype=np.int64)
        taus_table = np.zeros((count, length, state.taus.shape[1]))
        for p, code in enumerate(state.patterns):
            items, taus, _complete = self._sequences.sequence(code, length)
            width = min(items.size, length)
            items_table[p, :width] = items[:width]
            taus_table[p, :width] = taus[:width]
        state.seq_items, state.seq_taus = items_table, taus_table

    def _step_terms(self, state: _BatchState) -> None:
        """Recompute the τ-derived bound terms of every vector for this step."""
        taus = state.taus
        terms = state.terms
        filled = np.where(np.isnan(taus), 0.0, taus) if state.nullable else taus
        a = np.einsum("vj,vj->v", filled, state.Wn_sum)
        b = np.einsum("vj,vj->v", filled, state.Wn_avg)
        np.multiply(a[:, None], state.pads, out=terms[:, : state.rb_col])
        np.multiply(b[:, None], state.pads, out=terms[:, state.rb_col:state.tau_min_col])
        if state.min_feats:
            terms[:, state.tau_min_col:state.tau_max_col] = taus[:, state.min_feats]
        if state.max_feats:
            tau_max = taus[:, state.max_feats]
            if state.nullable:
                tau_max = np.where(np.isnan(tau_max), -np.inf, tau_max)
                state.max_unbounded = not self._max_columns_finite or bool(
                    np.isinf(tau_max).any()
                )
            terms[:, state.tau_max_col:state.w_min_col] = tau_max

    # --------------------------------------------------------------- expansion
    def _expand_with_item(
        self, state: _BatchState, item: int, cols: np.ndarray
    ) -> None:
        """One vectorised round of Algorithm 4 for one newly accessed item.

        ``cols`` are the weight vectors that accessed ``item`` this round: the
        extension gate (``max(utility, upper-exp) ≥ η_lo``) is evaluated
        against exactly those columns, mirroring the sequential algorithm, and
        an extension is materialised when any of them passes.  Extensions
        created for one vector stay visible to all: their exact utilities
        tighten every vector's η_lo and they compete in every vector's final
        ranking.
        """
        # Every queued candidate is still growable (only sizes < φ are
        # queued), so the rows that extend are those not holding the item —
        # all of them when the item is seen for the first time.
        slot = state.slot_of.get(item)
        if slot is None:
            slot = state.slot_of[item] = len(state.slot_of)
            rows = None
            q_sums, q_mins, q_maxs = state.q_sums, state.q_mins, state.q_maxs
            q_sizes = state.q_sizes
        else:
            rows = np.flatnonzero(~(state.q_slots == slot).any(axis=1))
            if rows.size == 0:
                return
            q_sums, q_mins, q_maxs = state.q_sums[rows], state.q_mins[rows], state.q_maxs[rows]
            q_sizes = state.q_sizes[rows]
        values = state.features[item]
        null = np.isnan(values)
        if null.any():
            contrib = np.where(null, 0.0, values)
            ext_mins = np.where(null, q_mins, np.minimum(q_mins, contrib))
            ext_maxs = np.where(null, q_maxs, np.maximum(q_maxs, contrib))
        else:
            contrib = values
            ext_mins = np.minimum(q_mins, contrib)
            ext_maxs = np.maximum(q_maxs, contrib)
        ext_sums = q_sums + contrib
        ext_sizes = q_sizes + 1

        raw = self._raw_vectors(state, ext_sums, ext_mins, ext_maxs, ext_sizes)
        util_cols = raw @ state.Wn[cols].T  # own utilities, gate columns only
        bound_cols = self._padded_bounds(
            state,
            ext_sums @ state.Wn_sum[cols].T,
            ext_sums @ state.Wn_avg[cols].T,
            ext_mins, ext_maxs, ext_sizes, cols,
        )
        passes = np.maximum(util_cols, bound_cols) >= state.eta_lo[cols][None, :]
        kept = np.flatnonzero(passes.any(axis=1))
        if kept.size == 0:
            return

        new_rows: List[int] = []
        new_tuples: List[Tuple[int, ...]] = []
        q_items = state.q_items
        sources = kept if rows is None else rows[kept]
        for r, source in zip(kept.tolist(), sources.tolist()):
            package_items = tuple(sorted(q_items[source] + (item,)))
            if package_items in state.discovered:
                continue
            state.discovered.add(package_items)
            new_rows.append(r)
            new_tuples.append(package_items)
        if not new_rows:
            return
        new_idx = np.asarray(new_rows, dtype=int)

        # Fold the new candidates' utilities (under every vector) into η_lo.
        if self.predicates is None:  # every non-empty package is reportable
            state.reportable.extend(new_tuples)
            state.observe(raw[new_idx] @ state.Wn.T)
        else:
            rep_mask = np.array([self._reportable(t) for t in new_tuples])
            if rep_mask.any():
                state.reportable.extend(
                    t for t, keep in zip(new_tuples, rep_mask) if keep
                )
                state.observe(raw[new_idx[rep_mask]] @ state.Wn.T)

        # Queue the still-growable new candidates; the end-of-round bound
        # recomputation prunes any that cannot reach a surviving top-k.
        grow = np.flatnonzero(ext_sizes[new_idx] < state.phi)
        if grow.size:
            g = new_idx[grow]
            slots = state.q_slots[g if rows is None else rows[g]]
            slots[np.arange(g.size), ext_sizes[g] - 1] = slot
            state.append_queue(
                [new_tuples[i] for i in grow],
                ext_sums[g], ext_mins[g], ext_maxs[g], ext_sizes[g], slots,
            )

    # ------------------------------------------------- pruning and termination
    def _prune_and_terminate(self, state: _BatchState) -> None:
        """Recompute queue bounds against the moved τs; prune, beam, terminate."""
        act = np.flatnonzero(state.active)
        if act.size == state.W.shape[0]:
            su, sa = state.q_su, state.q_sa
        else:
            su, sa = state.q_su[:, act], state.q_sa[:, act]
        bounds = self._padded_bounds(
            state, su, sa, state.q_mins, state.q_maxs, state.q_sizes, act
        )
        eta_lo = state.eta_lo[act]
        keep = (bounds >= eta_lo[None, :]).any(axis=1)
        keep[0] = True  # the empty package always stays
        if not keep.all():
            bounds = bounds[keep]
            state.shrink_queue(keep)
        eta_up = bounds.max(axis=0)
        state.active[act[eta_up <= eta_lo]] = False
        if self.beam_width is not None:
            # beam_width is per vector (as in the sequential searcher); the
            # shared queue gets the batch's pooled budget so minority vectors
            # are not squeezed N times harder than they would be alone.
            shared_cap = self.beam_width * state.W.shape[0]
            if state.rows - 1 > shared_cap:
                state.anytime = True
                scored = bounds.max(axis=1)
                scored[0] = np.inf  # pin the empty package
                top = np.argsort(-scored, kind="stable")[: shared_cap + 1]
                state.shrink_queue(np.sort(top))

    # ------------------------------------------------------------------ bounds
    def _padded_bounds(
        self,
        state: _BatchState,
        su: np.ndarray,
        sa: np.ndarray,
        mins: np.ndarray,
        maxs: np.ndarray,
        sizes: np.ndarray,
        cols: np.ndarray,
    ) -> np.ndarray:
        """Vectorised Algorithm 3 with ``force_first`` (≥ 1 copy of τ).

        Padding a candidate with r copies of the boundary item τ_v decomposes
        by aggregation type: sum features contribute ``su + r·a(v)``, avg
        features ``(sa + r·b(v)) / (size + r)``, and min/max features are
        constant in r once one τ is added (``min(mins, τ)`` / ``max(maxs,
        τ)``; the ±inf empty-state sentinels make the no-value case collapse
        to τ itself).  Set-monotone vectors take the full padding r = φ−size;
        the rest take the maximum over r, which matches the sequential
        first-non-positive-gain stop whenever the gains are non-increasing
        (Lemma 3) and is a valid — merely looser — upper bound otherwise.
        Rows already at size φ stay at −inf: no completion containing an
        unaccessed item exists for them.

        NaN entries of τ mark features where a *null* contribution dominates
        the boundary value (see :func:`null_aware_boundary`): they add nothing
        to the sum/avg parts and leave the min/max running aggregates — and
        hence their "no value yet" sentinels — untouched, exactly like
        ``AggregationState.add`` treats a null.
        """
        state.bound_cells += su.size
        terms = state.terms[cols]  # (V, K): this step's τ terms, sliced

        mm = np.zeros(su.shape)
        for i, j in enumerate(state.min_feats):
            tau_j = terms[:, state.tau_min_col + i]
            w_j = terms[:, state.w_min_col + i]
            padded = np.minimum.outer(mins[:, j], tau_j)  # no value -> τ
            if self._null_columns[j]:
                # Nullable min features, resolved per candidate exactly like
                # the sequential _upper_exp: a positive weight keeps the
                # candidate's minimum once one exists (a null pad beats
                # lowering it toward τ), a negative weight skips the feature
                # entirely while no value exists (aggregate stays 0).
                has_value = np.isfinite(mins[:, j])[:, None]
                keep = np.where(has_value, mins[:, j][:, None], 0.0)
                padded = np.where(
                    (w_j > 0)[None, :],
                    np.where(has_value, keep, padded),
                    np.where(has_value, padded, 0.0),
                )
            mm += padded * w_j[None, :]
        for i, j in enumerate(state.max_feats):
            # NaN τ entries (nullable max under a negative weight) are −∞ in
            # the terms: they keep the candidate's maximum — or, with no
            # value yet, an aggregate of 0.
            padded = np.maximum.outer(maxs[:, j], terms[:, state.tau_max_col + i])
            if state.max_unbounded:
                padded[~np.isfinite(padded)] = 0.0
            mm += padded * terms[:, state.w_max_col + i][None, :]

        remaining = state.phi - sizes  # (C,)
        fewest, most = int(remaining.min()), int(remaining.max())
        denominators = sizes[:, None] + state.pads  # (C, φ): size + r
        mono = state.set_mono[cols] if state.any_mono else None
        if mono is not None and mono.any():
            best = np.full(su.shape, -np.inf)
        else:
            mono = best = None
        for r in range(1, min(state.phi, most) + 1):
            val = su + terms[:, r - 1]
            val += (sa + terms[:, state.rb_col + r - 1]) / denominators[:, r - 1:r]
            val += mm
            if mono is not None:
                valid = (r <= remaining)[:, None]
                np.maximum(best, val, out=best, where=valid & ~mono[None, :])
                final = remaining == r
                if final.any():
                    np.copyto(best, val, where=final[:, None] & mono[None, :])
            elif r <= fewest:
                # Every row can take r pads: a plain running maximum.
                if best is None:
                    best = val
                else:
                    np.maximum(best, val, out=best)
            else:
                if best is None:
                    best = np.full(su.shape, -np.inf)
                np.maximum(best, val, out=best, where=(r <= remaining)[:, None])
        if best is None:
            best = np.full(su.shape, -np.inf)
        return best

    # ----------------------------------------------------------------- helpers
    def _raw_vectors(
        self,
        state: _BatchState,
        sums: np.ndarray,
        mins: np.ndarray,
        maxs: np.ndarray,
        sizes: np.ndarray,
    ) -> np.ndarray:
        """Unnormalised aggregate vectors for a block of candidate states."""
        raw = np.where(state.sum_mask, sums, 0.0)
        if state.avg_mask.any():
            # Candidates are non-empty, so size ≥ 1 divides the sums as is.
            raw = np.where(state.avg_mask, sums / sizes[:, None], raw)
        for j in state.min_feats:
            raw[:, j] = np.where(np.isfinite(mins[:, j]), mins[:, j], 0.0)
        for j in state.max_feats:
            raw[:, j] = np.where(np.isfinite(maxs[:, j]), maxs[:, j], 0.0)
        return raw

    def _reportable(self, package_items: Tuple[int, ...]) -> bool:
        if not package_items:
            return False
        if self.predicates is None:
            return True
        return self.predicates.satisfied_by(
            Package(package_items), self.evaluator.catalog
        )

    # ------------------------------------------------------------------ results
    def _collect(self, state: _BatchState) -> List[PackageSearchResult]:
        """Rank the discovered reportable candidates per vector.

        Canonical package vectors are computed once; per vector the utilities
        are accumulated feature by feature (bit-identical to
        :func:`canonical_package_utilities`, without materialising a
        candidates × vectors matrix) and only the candidates that can reach
        rank k — the k best by utility plus everything tied with the k-th —
        are sorted, so the collect phase stays cheap even when the search
        discovered far more candidates than it reports.
        """
        reportable = state.reportable
        count = len(reportable)
        vectors = canonical_package_vectors(self.evaluator, reportable)
        id_rank = np.empty(count, dtype=int)
        id_rank[sorted(range(count), key=lambda i: reportable[i])] = np.arange(count)
        results = []
        for v in range(state.W.shape[0]):
            utilities = np.zeros(count)
            for j in range(self.evaluator.num_features):
                utilities += vectors[:, j] * state.W[v, j]
            if count > state.k:
                kth = -np.partition(-utilities, state.k - 1)[state.k - 1]
                contenders = np.flatnonzero(utilities >= kth)
            else:
                contenders = np.arange(count)
            order = contenders[
                np.lexsort((id_rank[contenders], -utilities[contenders]))
            ][: state.k]
            results.append(
                PackageSearchResult(
                    packages=[Package(reportable[i]) for i in order],
                    utilities=[float(utilities[i]) for i in order],
                    items_accessed=int(state.accessed[v]),
                    candidates_generated=len(state.discovered),
                )
            )
        return results
