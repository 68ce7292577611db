"""Golden walks of the batch ``Top-k-Pkg`` searcher.

Every batch search must return exactly what the recorded walks returned: the
same packages in the same order, the same utilities (compared through
``repr``, so down to the last bit), the same per-vector ``items_accessed``
and the same ``candidates_generated``.  The batch searcher's internal data
layout may change freely; its walk may not.

The instances below cover the exact setting, the serving preset (beam 150,
item cap 40), beam only, cap only, the ``max_candidates`` stop, catalogs with
nulls, catalog predicates that filter the sorted lists, package predicates,
zero components and all-zero rows, duplicate rows, k beyond the feasible
count, and ``search_pools`` with carried-over seeds.

The fixture ``tests/data/topk_walk_golden.json`` is regenerated with::

    PYTHONPATH=src python tests/test_topk_walk_golden.py

Regenerating it is only right when a change is *meant* to change the walk.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.items import ItemCatalog
from repro.core.packages import PackageEvaluator
from repro.core.predicates import MinCountPredicate, PredicateSet, SizePredicate
from repro.core.profiles import AggregateProfile
from repro.data.columnar import CatalogPredicateSet, NumericRangePredicate
from repro.data.generators import generate_uniform
from repro.topk.batch_search import BatchTopKPackageSearcher, CandidateCarryover

FIXTURE = Path(__file__).parent / "data" / "topk_walk_golden.json"

PAPER_PROFILE = ["sum", "avg", "max", "min"]
AGGREGATIONS = ["sum", "avg", "max", "min", "null"]


def _uni(seed, num_items, num_features=4):
    return generate_uniform(num_items, num_features, rng=np.random.default_rng(seed))


def _posterior_like(rng, count, num_features, spread=0.15):
    """Weight rows scattered around one centre, with a few repeated rows."""
    centre = rng.uniform(-1, 1, num_features)
    rows = centre + rng.normal(0, spread, (count, num_features))
    if count > 4:
        rows[count // 2] = rows[0]  # an MCMC chain repeats its state
        rows[-1] = rows[1]
    return rows


def _with_nulls(rng, features, fraction):
    features = features.copy()
    features[rng.random(features.shape) < fraction] = np.nan
    if np.isnan(features).all(axis=0).any():
        features[0] = rng.random(features.shape[1])
    return features


def _instance(name, features, profile, phi, k, weights, searcher=None, **extra):
    return dict(
        name=name, features=features, profile=profile, phi=phi, k=k,
        weights=np.atleast_2d(weights), searcher=searcher or {}, **extra,
    )


def build_instances():
    """The golden instances, as plain data (catalogs, weights, settings)."""
    out = []
    # The paper's exact setting: every vector searched, no beam, no cap.
    for seed in range(4):
        rng = np.random.default_rng([seed, 1])
        out.append(_instance(
            f"exact-{seed}", _uni([seed, 0], 200), PAPER_PROFILE, 3, 3,
            _posterior_like(rng, 50 if seed < 2 else 12, 4),
        ))
    for seed in range(2):
        rng = np.random.default_rng([seed, 2])
        out.append(_instance(
            f"exact-spread-{seed}", _uni([seed, 3], 120), PAPER_PROFILE, 3, 3,
            rng.uniform(-1, 1, (20, 4)),
        ))
    out.append(_instance(
        "exact-phi4-k5", _uni([9, 0], 80), PAPER_PROFILE, 4, 5,
        _posterior_like(np.random.default_rng(9), 10, 4),
    ))
    # The serving preset and its two halves.
    serving = {"beam_width": 150, "max_items_accessed": 40}
    for seed, count in ((0, 1), (1, 8), (2, 8)):
        rng = np.random.default_rng([seed, 4])
        out.append(_instance(
            f"serving-{seed}x{count}", _uni([seed, 5], 1000), PAPER_PROFILE, 3, 3,
            _posterior_like(rng, count, 4), serving,
        ))
    for seed in range(3):
        rng = np.random.default_rng([seed, 6])
        out.append(_instance(
            f"beam-{seed}", _uni([seed, 7], 200), PAPER_PROFILE, 3, 3,
            _posterior_like(rng, 16, 4), {"beam_width": 3 + seed},
        ))
    for seed in range(3):
        rng = np.random.default_rng([seed, 8])
        out.append(_instance(
            f"cap-{seed}", _uni([seed, 9], 200), PAPER_PROFILE, 3, 3,
            _posterior_like(rng, 16, 4), {"max_items_accessed": 6 + 4 * seed},
        ))
    out.append(_instance(
        "max-candidates", _uni([1, 10], 150), PAPER_PROFILE, 3, 3,
        _posterior_like(np.random.default_rng(10), 12, 4), {"max_candidates": 60},
    ))
    # Catalogs with nulls, one profile per aggregation mix.
    for seed, profile in enumerate(
        (PAPER_PROFILE, ["min", "sum", "max", "avg"], ["max", "min", "avg", "sum"])
    ):
        rng = np.random.default_rng([seed, 11])
        features = _with_nulls(rng, _uni([seed, 12], 150), 0.15)
        out.append(_instance(
            f"nulls-{seed}", features, profile, 3, 3, rng.uniform(-1, 1, (16, 4)),
        ))
    # Catalog predicates pushed into the sorted lists.
    for seed in range(2):
        rng = np.random.default_rng([seed, 13])
        out.append(_instance(
            f"catalog-predicate-{seed}", _uni([seed, 14], 300), PAPER_PROFILE, 3, 3,
            _posterior_like(rng, 16, 4),
            catalog_predicate=[(0, 0.2, 0.9), (2, None, 0.7)],
        ))
    rng = np.random.default_rng(15)
    out.append(_instance(
        "catalog-predicate-nulls", _with_nulls(rng, _uni(16, 200), 0.1),
        PAPER_PROFILE, 3, 3, rng.uniform(-1, 1, (10, 4)),
        {"beam_width": 20, "max_items_accessed": 30},
        catalog_predicate=[(1, 0.1, None)],
    ))
    # Package predicates.
    for seed in range(2):
        rng = np.random.default_rng([seed, 17])
        out.append(_instance(
            f"package-predicates-{seed}", _uni([seed, 18], 100), PAPER_PROFILE, 3, 3,
            _posterior_like(rng, 10, 4),
            predicates=[("min_count", 1, list(range(10 * seed, 10 * seed + 25))),
                        ("size", 2, None)],
        ))
    # Zero components and all-zero rows.
    rng = np.random.default_rng(19)
    weights = _posterior_like(rng, 12, 4)
    weights[:, 1] = 0.0
    weights[3, 2] = 0.0
    weights[5, 0] = -0.0
    out.append(_instance("zero-components", _uni(20, 150), PAPER_PROFILE, 3, 3, weights))
    weights = rng.uniform(-1, 1, (8, 4))
    weights[[0, 4]] = 0.0
    out.append(_instance("all-zero-rows", _uni(21, 100), PAPER_PROFILE, 3, 4, weights))
    out.append(_instance(
        "only-zero-rows", _uni(22, 30), PAPER_PROFILE, 3, 3, np.zeros((3, 4)),
    ))
    # Duplicate rows, duplicate items and k beyond the feasible count.
    rng = np.random.default_rng(23)
    row = rng.uniform(-1, 1, 4)
    out.append(_instance(
        "duplicate-rows", _uni(24, 100), PAPER_PROFILE, 3, 3,
        np.stack([row, row, rng.uniform(-1, 1, 4), row]),
    ))
    out.append(_instance(
        "duplicate-items", np.array([[0.5, 0.2, 0.4]] * 5 + [[0.3, 0.1, 0.9]] * 3),
        ["sum", "avg", "min"], 3, 7, np.array([[0.8, -0.3, 0.2], [-0.2, 0.6, -0.5]]),
    ))
    out.append(_instance(
        "k-beyond-feasible", _uni(25, 5, 3), ["sum", "min", "avg"], 2, 40,
        np.random.default_rng(25).uniform(-1, 1, (4, 3)),
    ))
    # Small random instances over every aggregation, some with nulls.
    for seed in range(8):
        rng = np.random.default_rng([seed, 26])
        num_features = int(rng.integers(2, 6))
        features = rng.random((int(rng.integers(8, 40)), num_features))
        if seed % 2:
            features = _with_nulls(rng, features, 0.2)
        out.append(_instance(
            f"random-{seed}", features,
            [AGGREGATIONS[int(rng.integers(0, 5))] for _ in range(num_features)],
            int(rng.integers(2, 5)), int(rng.integers(1, 6)),
            rng.uniform(-1, 1, (int(rng.integers(1, 9)), num_features)),
        ))
    # search_pools with carried seeds: a round, a click-like shift, a round.
    for seed, settings in enumerate(
        ({}, {"beam_width": 150, "max_items_accessed": 40}, {"beam_width": 4},
         {"max_items_accessed": 12})
    ):
        rng = np.random.default_rng([seed, 27])
        first = [_posterior_like(rng, 12, 4), _posterior_like(rng, 6, 4)]
        second = [m + rng.normal(0, 0.05, m.shape) for m in first]
        out.append(_instance(
            f"carry-{seed}", _uni([seed, 28], 300), PAPER_PROFILE, 3, 3,
            np.concatenate(first), settings,
            pools=[first, second],
        ))
    return out


def _searcher(instance):
    catalog = ItemCatalog(instance["features"])
    evaluator = PackageEvaluator(
        catalog, AggregateProfile(instance["profile"]), instance["phi"]
    )
    kwargs = dict(instance["searcher"])
    if "predicates" in instance:
        built = []
        for kind, count, items in instance["predicates"]:
            if kind == "min_count":
                built.append(MinCountPredicate(count, matching_items=items))
            else:
                built.append(SizePredicate(min_size=count, max_size=items))
        kwargs["predicates"] = PredicateSet(built)
    if "catalog_predicate" in instance:
        kwargs["catalog_predicate"] = CatalogPredicateSet([
            NumericRangePredicate(feature, low=low, high=high)
            for feature, low, high in instance["catalog_predicate"]
        ])
    if "pools" in instance:
        kwargs["carryover"] = CandidateCarryover()
    return BatchTopKPackageSearcher(evaluator, **kwargs)


def _record(result):
    return [
        [list(package.items) for package in result.packages],
        [repr(value) for value in result.utilities],
        int(result.items_accessed),
        int(result.candidates_generated),
    ]


def run_instance(instance):
    """Every result the instance's searches return, as plain JSON data."""
    searcher = _searcher(instance)
    k = instance["k"]
    if "pools" not in instance:
        return [_record(result) for result in searcher.search_many(instance["weights"], k)]
    keys = [f"pool-{i}" for i in range(len(instance["pools"][0]))]
    records = []
    for matrices in instance["pools"]:
        per_pool = searcher.search_pools(matrices, k, carry_in=keys, carry_out=keys)
        records.append([[_record(result) for result in pool] for pool in per_pool])
    return records


def _load():
    with FIXTURE.open() as handle:
        return {entry["name"]: entry["results"] for entry in map(json.loads, handle)}


INSTANCES = build_instances()


@pytest.fixture(scope="module")
def golden():
    return _load()


def test_fixture_covers_every_instance(golden):
    assert sorted(golden) == sorted(instance["name"] for instance in INSTANCES)


@pytest.mark.parametrize(
    "instance", INSTANCES, ids=[instance["name"] for instance in INSTANCES]
)
def test_walk_matches_the_recorded_walk(instance, golden):
    # Round-trip through JSON so tuples and lists compare alike.
    assert json.loads(json.dumps(run_instance(instance))) == golden[instance["name"]]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    with FIXTURE.open("w") as handle:
        for instance in INSTANCES:
            entry = {"name": instance["name"], "results": run_instance(instance)}
            handle.write(json.dumps(entry, separators=(",", ":")) + "\n")
    print(f"wrote {len(INSTANCES)} instances to {FIXTURE}", file=sys.stderr)
