"""Per-feature sorted item lists with round-robin access (§4, Algorithm 2).

This module is the *access structure* of the paper's upper/lower-bound scheme
for ``Top-k-Pkg``.  The searchers never scan the catalog: they pull items one
at a time from per-feature sorted lists, and everything they know about the
not-yet-seen part of the catalog is summarised by one vector.

**Sorted access (Algorithm 2).**  ``Top-k-Pkg`` accesses items "in their
descending utility order" per feature: for a feature with a positive weight
the list is sorted by decreasing value, for a negative weight by increasing
value (a sorted column can be read in either direction, so only one physical
ordering per feature is kept; zero-weight features get no list at all since
they cannot influence utility).  The lists are consumed round-robin so no
single feature runs far ahead of the others.

**The boundary vector τ and why it bounds.**  τ holds, per feature, the value
of the last accessed item of that feature's list.  Because each list is read
in desirability order, *every unaccessed item is feature-wise dominated by
τ*: on each feature its value is no more desirable than τ's.  An imaginary
item with feature vector τ therefore upper-bounds the utility contribution of
any unaccessed item, which is exactly what the search needs to bound
undiscovered packages:

* the **upper bound** ``η_up`` (``upper-exp``, Algorithm 3) pads a candidate
  package with copies of the τ item — no completion of the candidate using
  unaccessed items can do better;
* the **lower bound** ``η_lo`` is the k-th best utility among packages
  already discovered (exact values, no bounding needed);
* the search stops the moment ``η_up ≤ η_lo``: the best still-undiscovered
  package provably cannot crack the current top-k, usually long before the
  lists are exhausted.

As the walk advances, τ only moves toward less desirable values, so ``η_up``
tightens monotonically while ``η_lo`` rises — the two bounds close in on each
other from both sides.

A cursor's item-access order and τ depend on its weight vector only through
the *sign* of each component (which lists exist and which way each is read).
:class:`AccessSequences` exploits that for the batch searcher: it computes a
cursor's whole access sequence — item after item, with τ after each access —
in bulk, once per sign pattern, so many weight vectors walk by indexing into
shared arrays instead of stepping one :class:`SortedItemLists` each.

One subtlety: a *null* feature value contributes nothing to any aggregate,
and "contributing nothing" can be more desirable than τ itself (e.g. on a
negative-weight sum feature).  The searchers therefore post-process τ with
:func:`repro.topk.package_search.null_aware_boundary` before padding with it;
this module only reports the raw per-list boundary values.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.items import ItemCatalog
from repro.utils.validation import require_vector


class FilteredOrderSource:
    """Per-feature sort orders, optionally restricted to eligible items.

    A callable ``(feature, descending) -> order`` suitable as the
    ``order_provider`` of :class:`SortedItemLists`.  Without a mask it simply
    forwards to ``catalog.argsort_feature`` (stored or cached orders).  With
    an eligibility mask it filters each order to the eligible items —
    ``order[mask[order]]`` preserves the original relative order, so the
    filtered list is exactly the sorted list of the eligible sub-catalog —
    using only index arithmetic, never feature-row reads.  Filtered orders
    are cached so each (feature, direction) pair is filtered at most once
    per searcher.
    """

    def __init__(
        self, catalog: ItemCatalog, eligible_mask: Optional[np.ndarray] = None
    ) -> None:
        self.catalog = catalog
        self.eligible_mask = eligible_mask
        self._filtered: Dict[tuple, np.ndarray] = {}

    def __call__(self, feature_index: int, descending: bool) -> np.ndarray:
        order = self.catalog.argsort_feature(feature_index, descending=descending)
        if self.eligible_mask is None:
            return order
        key = (feature_index, bool(descending))
        filtered = self._filtered.get(key)
        if filtered is None:
            order = np.asarray(order, dtype=np.int64)
            filtered = order[self.eligible_mask[order]]
            self._filtered[key] = filtered
        return filtered


class SortedItemLists:
    """Round-robin access over per-feature desirability-sorted item lists.

    One instance is one *cursor* over the catalog for one weight vector: it
    remembers, per active feature, how deep that feature's list has been
    read, which items have already been produced (an item surfacing in a
    second list is skipped but still advances that list's boundary), and the
    current boundary value vector τ.  The sequential searcher owns a single
    cursor; the batch searcher walks the same access sequences through
    :class:`AccessSequences` instead.

    Parameters
    ----------
    catalog:
        The item catalog.
    weights:
        The weight vector ``w``; the sign of each component decides the sort
        direction of the corresponding list.  Features with zero weight do not
        get a list (they cannot influence utility).
    order_provider:
        Optional ``(feature, descending) -> order`` callable supplying the
        sorted orders — e.g. a :class:`FilteredOrderSource` restricting the
        lists to predicate-eligible items.  Defaults to the catalog's own
        (stored or cached) orders.
    """

    def __init__(
        self,
        catalog: ItemCatalog,
        weights: np.ndarray,
        order_provider: Optional[Callable[[int, bool], np.ndarray]] = None,
    ) -> None:
        weights = require_vector(weights, "weights", length=catalog.num_features)
        self.catalog = catalog
        self.weights = weights
        self.active_features: List[int] = [
            j for j in range(catalog.num_features) if weights[j] != 0.0
        ]
        # One ordering per active feature: best item for that feature first.
        if order_provider is None:
            order_provider = lambda j, descending: catalog.argsort_feature(  # noqa: E731
                j, descending=descending
            )
        self._orders: Dict[int, np.ndarray] = {}
        self._limits: Dict[int, int] = {}
        for j in self.active_features:
            order = order_provider(j, weights[j] > 0)
            self._orders[j] = order
            self._limits[j] = len(order)
        self._positions: Dict[int, int] = {j: 0 for j in self.active_features}
        self._last_value: Dict[int, Optional[float]] = {j: None for j in self.active_features}
        self._accessed: set = set()
        self._cursor = 0

    # ------------------------------------------------------------------ basics
    @property
    def num_accessed(self) -> int:
        """Number of distinct items accessed so far."""
        return len(self._accessed)

    def accessed_items(self) -> List[int]:
        """Indices of all items accessed so far (unordered)."""
        return list(self._accessed)

    def exhausted(self) -> bool:
        """Whether every list has been fully read."""
        return all(
            self._positions[j] >= self._limits[j] for j in self.active_features
        )

    # ------------------------------------------------------------------ access
    def next_item(self) -> Optional[int]:
        """Access the next *new* item in round-robin order over the lists.

        Items already returned from another list are skipped (but still move
        that list's boundary value forward).  Returns ``None`` when all lists
        are exhausted.
        """
        if not self.active_features:
            return None
        while not self.exhausted():
            feature = self.active_features[self._cursor % len(self.active_features)]
            self._cursor += 1
            position = self._positions[feature]
            if position >= self._limits[feature]:
                continue
            item_index = int(self._orders[feature][position])
            self._positions[feature] = position + 1
            value = self.catalog.features[item_index, feature]
            self._last_value[feature] = 0.0 if np.isnan(value) else float(value)
            if item_index in self._accessed:
                # Already produced via another list; keep scanning.
                continue
            self._accessed.add(item_index)
            return item_index
        return None

    # ---------------------------------------------------------------- boundary
    def boundary_vector(self) -> np.ndarray:
        """The boundary value vector τ.

        For each active feature, τ carries the value of the last accessed item
        in that feature's list (or the best possible value if the list has not
        been read yet); inactive (zero-weight) features are set to 0 since they
        cannot contribute utility either way.  An imaginary item with feature
        vector τ therefore upper-bounds the utility contribution of any
        unaccessed item.
        """
        tau = np.zeros(self.catalog.num_features)
        for j in self.active_features:
            if self._last_value[j] is None:
                order = self._orders[j]
                if len(order) == 0:
                    # Empty (fully filtered-out) list: no item can contribute.
                    tau[j] = 0.0
                    continue
                best_value = self.catalog.features[int(order[0]), j]
                tau[j] = 0.0 if np.isnan(best_value) else float(best_value)
            else:
                tau[j] = self._last_value[j]
        return tau

    def exhausted_boundary_vector(self) -> np.ndarray:
        """τ once all items are accessed: the *worst* value per active feature.

        Used to signal that no unaccessed item remains: extending a package
        with this vector can never look better than extending it with a real
        remaining item (there are none).
        """
        tau = np.zeros(self.catalog.num_features)
        for j in self.active_features:
            order = np.asarray(self._orders[j], dtype=np.int64)
            if order.size == 0:
                continue
            # Worst value among the items this list can produce (which under
            # predicate filtering is the eligible subset, not the catalog).
            values = self.catalog.features[order, j]
            values = np.where(np.isnan(values), 0.0, values)
            tau[j] = float(values.min()) if self.weights[j] > 0 else float(values.max())
        return tau


def sign_codes(weights_matrix: np.ndarray) -> np.ndarray:
    """The list code of every weight component: 0 no list, 1 ascending, 2 descending.

    Mirrors :class:`SortedItemLists`: a component gets a list when it is
    non-zero (``w != 0``, so ``-0.0`` does not) and that list is read in
    descending order when ``w > 0``.  Rows with equal codes have cursors
    that access the same items in the same order with the same τ.
    """
    weights = np.asarray(weights_matrix, dtype=float)
    return np.where(weights != 0.0, np.where(weights > 0.0, 2, 1), 0).astype(np.int8)


class AccessSequences:
    """Whole access sequences of :class:`SortedItemLists` cursors, per sign pattern.

    ``sequence(code, length)`` returns ``(items, taus, complete)`` for the
    cursor of any weight vector whose :func:`sign_codes` row is ``code``:
    ``items[t]`` is what the cursor's ``(t+1)``-th ``next_item()`` returns and
    ``taus[t]`` its ``boundary_vector()`` right after.  ``complete`` says that
    ``items`` runs to exhaustion (the next ``next_item()`` returns ``None``);
    otherwise ``items`` holds at least ``length`` entries.

    The sequence is computed in bulk from the round-robin read stream: round
    ``r`` reads position ``r`` of every list that still has one, in feature
    order, so the stream is the row-major ravel of a padded (rounds × lists)
    order table with the padding dropped — which also covers filtered lists
    of unequal length.  An item is returned at its first occurrence in the
    stream, and τ of a list is the (null → 0) value at its last read
    position, or at position 0 before the list's first read.  Sequences are
    built to a number of rounds that doubles on demand and are cached per
    pattern, so a searcher reused across searches builds each only a few
    times.

    Parameters
    ----------
    catalog:
        The item catalog.
    order_provider:
        ``(feature, descending) -> order`` callable, as for
        :class:`SortedItemLists` (e.g. a :class:`FilteredOrderSource`).
    """

    #: Rounds of the read stream a pattern's first build covers.
    INITIAL_ROUNDS = 32

    def __init__(
        self,
        catalog: ItemCatalog,
        order_provider: Optional[Callable[[int, bool], np.ndarray]] = None,
    ) -> None:
        self.catalog = catalog
        if order_provider is None:
            order_provider = lambda j, descending: catalog.argsort_feature(  # noqa: E731
                j, descending=descending
            )
        self._order_provider = order_provider
        self._cache: Dict[bytes, Tuple[int, np.ndarray, np.ndarray, bool]] = {}

    def sequence(
        self, code: np.ndarray, length: int
    ) -> Tuple[np.ndarray, np.ndarray, bool]:
        """``(items, taus, complete)`` covering at least ``length`` accesses."""
        code = np.asarray(code, dtype=np.int8)
        key = code.tobytes()
        cached = self._cache.get(key)
        if cached is not None:
            rounds, items, taus, complete = cached
            if complete or items.size >= length:
                return items, taus, complete
            rounds *= 2
        else:
            rounds = self.INITIAL_ROUNDS
        while True:
            items, taus, complete = self._build(code, rounds)
            if complete or items.size >= length:
                break
            rounds *= 2
        self._cache[key] = (rounds, items, taus, complete)
        return items, taus, complete

    def _build(self, code: np.ndarray, rounds: int):
        features = np.flatnonzero(code)
        num_features = self.catalog.num_features
        orders = [
            np.asarray(self._order_provider(int(j), bool(code[j] == 2)), dtype=np.int64)
            for j in features
        ]
        longest = max((order.size for order in orders), default=0)
        depth = min(rounds, longest)
        table = np.full((depth, features.size), -1, dtype=np.int64)
        for i, order in enumerate(orders):
            head = order[:depth]
            table[: head.size, i] = head
        stream = table.ravel()
        read = stream >= 0
        reads = stream[read]
        lists = np.tile(np.arange(features.size), depth)[read]
        _, first = np.unique(reads, return_index=True)
        first.sort()
        items = reads[first]
        # Reads of each list up to and including the read that returned item t.
        depth_read = np.cumsum(lists[:, None] == np.arange(features.size), axis=0)[first]
        taus = np.zeros((items.size, num_features))
        values_matrix = self.catalog.features
        for i, j in enumerate(features):
            if orders[i].size == 0:
                continue  # an empty list contributes τ = 0, as boundary_vector
            values = values_matrix[orders[i][:depth], j]
            values = np.where(np.isnan(values), 0.0, values)
            taus[:, j] = values[np.maximum(depth_read[:, i] - 1, 0)]
        return items, taus, depth >= longest
