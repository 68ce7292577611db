"""Computations the benchmark makes apart from the program under test.

Everything here is plain numpy over the raw feature matrix: package feature
vectors by the paper's aggregate profile (Definition 1), exhaustive top-k by
enumerating every package of size at most phi, EXP aggregation of per-sample
results (section 4), and the half-space constraints a click history induces
(section 3).  The program's own modules are never imported, so a fault in them
cannot hide itself by also corrupting the reference.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Per-feature aggregation of the benchmark's profile, cycled over features.
AGGREGATION_CYCLE = ("sum", "avg", "max", "min")

#: Largest tolerated difference between the program's and the oracle's
#: utilities (they sum in different orders).
UTILITY_TOL = 1e-9


def aggregations(num_features: int) -> List[str]:
    """The profile the workloads serve under: sum/avg/max/min, cycled."""
    return [AGGREGATION_CYCLE[j % len(AGGREGATION_CYCLE)] for j in range(num_features)]


def normalisers(features: np.ndarray, aggs: Sequence[str], phi: int) -> np.ndarray:
    """Largest aggregate any package of at most ``phi`` items reaches, per feature.

    For ``sum`` that is the sum of the ``phi`` largest values; for ``avg``,
    ``min`` and ``max`` it is the largest single value (features are
    non-negative, and no aggregate of a set exceeds its largest member).
    """
    out = np.empty(len(aggs))
    for j, agg in enumerate(aggs):
        column = np.sort(features[:, j])[::-1]
        value = column[:phi].sum() if agg == "sum" else column[0]
        out[j] = value if value > 0 else 1.0
    return out


def package_vectors(
    features: np.ndarray, aggs: Sequence[str], norms: np.ndarray, items: np.ndarray
) -> np.ndarray:
    """Normalised feature vectors of equal-size packages, one row per package.

    ``items`` is an ``(n, s)`` integer array; every row is one package.
    """
    items = np.asarray(items, dtype=np.int64)
    size = items.shape[1]
    out = np.empty((items.shape[0], len(aggs)))
    for j, agg in enumerate(aggs):
        values = features[:, j][items]
        if agg == "sum":
            out[:, j] = values.sum(axis=1)
        elif agg == "avg":
            out[:, j] = values.sum(axis=1) / size
        elif agg == "max":
            out[:, j] = values.max(axis=1)
        else:
            out[:, j] = values.min(axis=1)
    return out / norms


def vectors_of(
    features: np.ndarray, aggs: Sequence[str], norms: np.ndarray,
    packages: Sequence[Tuple[int, ...]],
) -> np.ndarray:
    """Normalised vectors of packages of any sizes, in input order."""
    out = np.empty((len(packages), len(aggs)))
    by_size: Dict[int, List[int]] = {}
    for row, items in enumerate(packages):
        by_size.setdefault(len(items), []).append(row)
    for rows in by_size.values():
        items = np.array([packages[r] for r in rows], dtype=np.int64)
        out[rows] = package_vectors(features, aggs, norms, items)
    return out


class PackageSpace:
    """Every package of 1..phi items over a small catalog, as dense arrays.

    ``vectors[row]`` is the normalised feature vector of ``package(row)``;
    rows are ordered by size, then lexicographically.
    """

    def __init__(self, features: np.ndarray, aggs: Sequence[str], phi: int) -> None:
        self.features = np.asarray(features, dtype=float)
        self.aggs = list(aggs)
        self.norms = normalisers(self.features, self.aggs, phi)
        n = self.features.shape[0]
        blocks = []
        self.items: List[np.ndarray] = []
        for size in range(1, phi + 1):
            combos = np.fromiter(
                itertools.chain.from_iterable(itertools.combinations(range(n), size)),
                dtype=np.int32,
            ).reshape(-1, size)
            self.items.append(combos)
            blocks.append(package_vectors(self.features, self.aggs, self.norms, combos))
        self.vectors = np.concatenate(blocks)
        self._offsets = np.cumsum([0] + [block.shape[0] for block in blocks])

    def __len__(self) -> int:
        return int(self.vectors.shape[0])

    def package(self, row: int) -> Tuple[int, ...]:
        size = int(np.searchsorted(self._offsets, row, side="right")) - 1
        return tuple(int(i) for i in self.items[size][row - self._offsets[size]])

    def top_k(self, weights: np.ndarray, k: int) -> List[Tuple[Tuple[int, ...], float]]:
        """Exact top-k ``(items, utility)`` pairs, ties broken by item tuple.

        Every package whose utility is within :data:`UTILITY_TOL` of the
        k-th is ranked exactly, so the tie-break is applied to all of them.
        """
        utilities = self.vectors @ np.asarray(weights, dtype=float)
        k = min(k, len(self))
        head = np.argpartition(-utilities, k - 1)[:k]
        kth = utilities[head].min()
        rows = np.flatnonzero(utilities >= kth - UTILITY_TOL)
        ranked = sorted(
            ((float(utilities[r]), self.package(int(r))) for r in rows),
            key=lambda pair: (-pair[0], pair[1]),
        )
        return [(items, utility) for utility, items in ranked[:k]]


def topk_matches(
    program: Sequence[Tuple[Tuple[int, ...], float]],
    oracle: Sequence[Tuple[Tuple[int, ...], float]],
    true_utility,
) -> bool:
    """Whether a program top-k list agrees with the exhaustive one.

    Utilities must agree position by position within :data:`UTILITY_TOL`.
    Packages must agree except among exact ties at the k-th place: a program
    package the oracle lacks must truly score the k-th utility, and every
    oracle package above the k-th utility must be in the program's list.
    ``true_utility(items)`` is the oracle's utility of any package.
    """
    if len(program) != len(oracle):
        return False
    for (_, got), (_, want) in zip(program, oracle):
        if abs(got - want) > UTILITY_TOL:
            return False
    kth = oracle[-1][1]
    program_items = {items for items, _ in program}
    oracle_items = {items for items, _ in oracle}
    for items, utility in program:
        if abs(true_utility(items) - utility) > UTILITY_TOL:
            return False
        if items not in oracle_items and abs(utility - kth) > UTILITY_TOL:
            return False
    return all(
        items in program_items
        for items, utility in oracle
        if utility > kth + UTILITY_TOL
    )


def exp_aggregate(
    per_sample: Sequence[Sequence[Tuple[Tuple[int, ...], float]]],
    sample_weights: Sequence[float],
    k: int,
) -> List[Tuple[int, ...]]:
    """EXP ranking of per-sample top-k lists (section 4).

    A package's score is the weight-averaged utility over the samples whose
    top-k list holds it; ties break by item tuple.
    """
    utility_sum: Dict[Tuple[int, ...], float] = {}
    weight_sum: Dict[Tuple[int, ...], float] = {}
    for result, q in zip(per_sample, sample_weights):
        for items, utility in result:
            utility_sum[items] = utility_sum.get(items, 0.0) + q * utility
            weight_sum[items] = weight_sum.get(items, 0.0) + q
    scores = [
        (utility_sum[items] / weight_sum[items], items)
        for items in utility_sum
        if weight_sum[items] > 0
    ]
    scores.sort(key=lambda pair: (-pair[0], pair[1]))
    return [items for _, items in scores[:k]]


def click_directions(
    features: np.ndarray, aggs: Sequence[str], norms: np.ndarray,
    clicks: Sequence[Tuple[Tuple[int, ...], Sequence[Tuple[int, ...]]]],
) -> np.ndarray:
    """Half-space normals ``v(clicked) - v(other)`` of a click history.

    ``clicks`` holds ``(clicked, presented)`` pairs; a weight vector ``w`` is
    consistent with the history when ``w . d >= 0`` for every returned row.
    """
    rows = []
    for clicked, presented in clicks:
        others = [p for p in presented if p != clicked]
        if not others:
            continue
        vecs = vectors_of(features, aggs, norms, [clicked] + list(others))
        rows.append(vecs[0] - vecs[1:])
    if not rows:
        return np.zeros((0, features.shape[1]))
    return np.concatenate(rows)


def random_packages(
    rng: np.random.Generator, num_items: int, phi: int, count: int
) -> List[Tuple[int, ...]]:
    """``count`` random packages: a uniform size in 1..phi, then distinct items."""
    out = []
    for _ in range(count):
        size = int(rng.integers(1, phi + 1))
        out.append(tuple(sorted(int(i) for i in rng.choice(num_items, size, replace=False))))
    return out
