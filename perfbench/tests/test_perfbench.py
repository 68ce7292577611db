"""Tests of the benchmark's own code.

Run from the root of the repository with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import layers
import oracle
from repro.core.items import ItemCatalog
from repro.core.packages import PackageEvaluator
from repro.core.profiles import AggregateProfile
from repro.topk.bruteforce import brute_force_top_k_packages
from workloads import WORKLOADS, PaperExact, ReplayChurn, ServeHetero

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_passes_every_check(workload, trace):
    out = _run("--workload", workload, "--seed", "3", "--seconds", "0.2",
               "--trace", trace, "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"], out.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }


def test_benchmark_spec_lists_every_per_layer_metric():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(
        layers.PER_LAYER
    )
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("--workload", "paper-exact", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_enumerator_matches_bruteforce():
    features = np.random.default_rng(11).random((12, 4))
    aggs = oracle.aggregations(4)
    evaluator = PackageEvaluator(ItemCatalog(features), AggregateProfile(aggs), 3)
    space = oracle.PackageSpace(features, aggs, 3)
    assert np.allclose(space.norms, evaluator.normalisers, rtol=0, atol=1e-12)
    assert len(space) == 12 + 66 + 220
    rng = np.random.default_rng(0)
    for _ in range(25):
        weights = rng.uniform(-1, 1, 4)
        want = brute_force_top_k_packages(evaluator, weights, 5)
        got = space.top_k(weights, 5)
        assert [items for items, _ in got] == [p.items for p, _ in want]
        assert np.allclose([u for _, u in got], [u for _, u in want], rtol=0, atol=1e-12)


def test_topk_matches_allows_only_kth_place_ties():
    oracle_list = [((1,), 0.9), ((2,), 0.5), ((3,), 0.5)]
    utility = {(1,): 0.9, (2,): 0.5, (3,): 0.5, (4,): 0.5, (5,): 0.4}.get
    assert oracle.topk_matches([((1,), 0.9), ((2,), 0.5), ((4,), 0.5)], oracle_list, utility)
    assert not oracle.topk_matches([((1,), 0.9), ((2,), 0.5), ((5,), 0.5)], oracle_list, utility)
    assert not oracle.topk_matches([((4,), 0.9), ((2,), 0.5), ((3,), 0.5)], oracle_list, utility)


def test_click_directions_hold_for_the_hidden_weights():
    features = np.random.default_rng(2).random((30, 4))
    aggs = oracle.aggregations(4)
    norms = oracle.normalisers(features, aggs, 3)
    weights = np.array([0.5, -0.2, 0.8, 0.1])
    presented = [(0, 1), (2,), (3, 4, 5), (7,)]
    vectors = oracle.vectors_of(features, aggs, norms, presented)
    clicked = presented[int(np.argmax(vectors @ weights))]
    directions = oracle.click_directions(features, aggs, norms, [(clicked, presented)])
    assert directions.shape == (3, 4)
    assert (directions @ weights >= 0).all()


def test_layer_self_times_of_a_traced_round_add_up_to_its_wall_time():
    workload = PaperExact(seed=4, smoke=True)
    workload.setup()
    try:
        user = workload.users[0]
        user.engine.recommend(user.session_id)  # round 1: served from warm start
        user.engine.feedback(user.session_id, 0)
        with layers.LayerTracer() as tracer:
            user.engine.recommend(user.session_id)
        assert tracer.calls["search.topk"] and tracer.calls["pool.fill"]
        [(wall, _own)] = tracer.calls["engine.recommend"]
        spans_self = sum(own for pairs in tracer.calls.values() for _, own in pairs)
        assert spans_self == pytest.approx(wall, rel=1e-9)
        assert sum(tracer.layer_self_s.values()) == pytest.approx(wall, rel=1e-9)
    finally:
        workload.close()


def test_tracer_restores_every_wrapped_function():
    originals = [owner.__dict__[attr] for owner, attr, _, _ in layers.WRAPPED]
    with layers.LayerTracer():
        assert all(
            owner.__dict__[attr] is not original
            for (owner, attr, _, _), original in zip(layers.WRAPPED, originals)
        )
    assert all(
        owner.__dict__[attr] is original
        for (owner, attr, _, _), original in zip(layers.WRAPPED, originals)
    )


def test_serve_hetero_batches_hold_one_request_per_client():
    workload = ServeHetero(seed=5, smoke=True)
    workload.setup()
    try:
        with layers.LayerTracer() as tracer:
            workload.run(seconds=0.0, min_rounds=3)
        assert set(tracer.batch_sizes) == {workload.clients}
        assert len(tracer.queue_waits) == workload.clients * len(tracer.batch_sizes)
        assert all(shop.captured for shop in workload.shops)
        assert workload.check() == []
    finally:
        workload.close()


class _SearchEachSessionApart(ServeHetero):
    def _config(self, shop):
        return dataclasses.replace(super()._config(shop), batch_search_across_sessions=False)


def test_batched_equals_per_session_when_batches_search_each_session_apart():
    # With the cross-session top-k walk off, the per-session comparison must
    # pass, so a mismatch it reports with the walk on is the program's.
    workload = _SearchEachSessionApart(seed=3, smoke=True)
    workload.setup()
    try:
        workload.run(seconds=0.0, min_rounds=6)
        workload.compare_users = workload.compare_from
        assert workload.check_per_session() == []
    finally:
        workload.close()


class _NoCarryover(ReplayChurn):
    def _config(self, max_active):
        return dataclasses.replace(super()._config(max_active), search_carryover=False)


@pytest.mark.parametrize("carryover", [True, False])
def test_replay_comparison_fails_only_with_candidate_carryover(carryover):
    # On this seed the fourth timed generation is served other rounds after
    # replay than without swapping, because a restored session loses its
    # carryover key.  With carryover off the comparison passes, so the
    # mismatches are the program's; once that is mended, the comparison
    # belongs in ``check()``.
    workload = (ReplayChurn if carryover else _NoCarryover)(seed=3, smoke=True)
    workload.setup()
    try:
        workload.run(seconds=0.0, min_rounds=4 * workload.sessions * workload.rounds)
        assert bool(workload.known_faults()) is carryover
        assert workload.captured and workload.check() == []
    finally:
        workload.close()
