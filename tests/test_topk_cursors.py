"""The batch searcher's array cursors against one ``SortedItemLists`` per vector.

:class:`~repro.topk.batch_search.BatchTopKPackageSearcher` does not step a
:class:`~repro.topk.sorted_lists.SortedItemLists` cursor per weight vector;
it indexes per-sign-pattern access sequences
(:class:`~repro.topk.sorted_lists.AccessSequences`) with one count per
vector and applies the null-aware adjustment to all advanced vectors at
once.  For every vector, the items it accesses and its τ after each access
(null-aware, compared bit for bit) must be exactly what its own sequential
cursor produces, down to exhaustion of the lists.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.items import ItemCatalog
from repro.core.packages import PackageEvaluator
from repro.core.profiles import AggregateProfile
from repro.data.columnar import NumericRangePredicate
from repro.topk.batch_search import BatchTopKPackageSearcher, _BatchState
from repro.topk.package_search import null_aware_boundary
from repro.topk.sorted_lists import AccessSequences, SortedItemLists, sign_codes

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def cursor_cases(draw):
    """A catalog with ties and nulls, a profile, weights with zeros, a mask."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    num_items = draw(st.integers(1, 90))
    num_features = draw(st.integers(1, 5))
    # Few distinct values, so features tie often.
    features = rng.integers(0, 5, (num_items, num_features)) / 4.0
    if draw(st.booleans()):
        features[rng.random(features.shape) < 0.25] = np.nan
    aggregations = [
        draw(st.sampled_from(["sum", "avg", "max", "min", "null"]))
        for _ in range(num_features)
    ]
    if set(aggregations) == {"null"}:
        aggregations[0] = "sum"  # a profile must aggregate some feature
    num_vectors = draw(st.integers(1, 8))
    weights = rng.uniform(-1, 1, (num_vectors, num_features))
    weights[rng.random(weights.shape) < 0.3] = 0.0
    weights[rng.random(weights.shape) < 0.05] = -0.0
    weights[np.flatnonzero(~weights.any(axis=1)), 0] = 0.5
    if num_vectors > 2:
        weights[-1] = weights[0]
    low = draw(st.none() | st.sampled_from([0.0, 0.25, 0.5]))
    return features, aggregations, weights, low


def _walk_cursors(searcher, weights):
    """(items, τs) per vector from the batch state's cursor, to exhaustion."""
    state = _BatchState(searcher, weights, 1)
    items = [[] for _ in range(weights.shape[0])]
    taus = [[] for _ in range(weights.shape[0])]
    while state.active.any():
        for item, cols in searcher._advance_cursors(state):
            for v in cols:
                items[v].append(item)
                taus[v].append(state.taus[v].copy())
    return items, taus, state.accessed


@SETTINGS
@given(cursor_cases())
def test_array_cursor_matches_sorted_item_lists(case):
    features, aggregations, weights, low = case
    catalog = ItemCatalog(features)
    profile = AggregateProfile(aggregations)
    predicate = None if low is None else NumericRangePredicate(0, low=low)
    searcher = BatchTopKPackageSearcher(
        PackageEvaluator(catalog, profile, 2), catalog_predicate=predicate
    )
    searcher._sequences.INITIAL_ROUNDS = 1  # extend the sequences many times
    items, taus, accessed = _walk_cursors(searcher, weights)
    null_columns = catalog.null_mask.any(axis=0)
    for v in range(weights.shape[0]):
        cursor = SortedItemLists(
            catalog, weights[v], order_provider=searcher._order_source
        )
        expected_items, expected_taus = [], []
        while (item := cursor.next_item()) is not None:
            expected_items.append(item)
            expected_taus.append(null_aware_boundary(
                cursor.boundary_vector(), weights[v], profile, null_columns
            ))
        assert items[v] == expected_items
        assert accessed[v] == cursor.num_accessed
        for got, want in zip(taus[v], expected_taus):
            # Bit-identical, NaN marking a null that beats τ.
            assert got.tobytes() == want.tobytes()


@SETTINGS
@given(cursor_cases(), st.integers(1, 200))
def test_sequences_are_prefix_stable(case, length):
    """A short build is a prefix of a long one, whatever the build order."""
    features, _aggregations, weights, _low = case
    catalog = ItemCatalog(features)
    code = sign_codes(weights)[0]
    short_first = AccessSequences(catalog)
    short_first.INITIAL_ROUNDS = 1
    short = short_first.sequence(code, length)
    full = short_first.sequence(code, 10 * catalog.num_items + 1)
    assert full[2]  # complete
    fresh = AccessSequences(catalog).sequence(code, 10 * catalog.num_items + 1)
    assert np.array_equal(full[0], fresh[0])
    assert np.array_equal(full[1], fresh[1])
    assert np.array_equal(short[0], full[0][: short[0].size])
    assert np.array_equal(short[1], full[1][: short[0].size])


def test_sign_codes_follow_sorted_item_lists():
    weights = np.array([[0.5, -0.25, 0.0, -0.0]])
    assert sign_codes(weights).tolist() == [[2, 1, 0, 0]]
