"""The traced run: wrappers around each layer's public functions.

:class:`LayerTracer` patches the functions listed in :data:`WRAPPED` with
timing wrappers while it is installed, and restores the originals when it is
removed.  Wrapped calls nest: each call's *self time* is its duration minus
the durations of the wrapped calls made inside it, so the self times of the
calls under one top-level call add up to that call's duration.  Span names
follow the program's own ``repro.obs`` span names where one exists
(``search.topk``, ``pool.fill``, ``eventlog.append``,
``dispatcher.queue_wait``).  The program's tracer stays off.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

import repro.core.elicitation as elicitation_mod
import repro.core.ranking as ranking_mod
import repro.service.engine as engine_mod
from repro.core.elicitation import PackageRecommender
from repro.sampling.batch import BatchRejectionSampler
from repro.sampling.mcmc import MetropolisHastingsSampler
from repro.service.async_server import AsyncRecommendationServer
from repro.service.engine import RecommendationEngine
from repro.service.eventlog import EventLogStore
from repro.service.pool_repository import ShardedPoolRepository
from repro.service.session_manager import SessionManager
from repro.topk.batch_search import BatchTopKPackageSearcher

#: (owner, attribute, span name, layer) of every wrapped function.
WRAPPED = (
    (BatchTopKPackageSearcher, "search_pools", "search.topk", "repro.topk"),
    (PackageRecommender, "current_top_k", "search.topk", "repro.topk"),
    (ranking_mod, "rank_from_samples", "ranking.aggregate", "repro.core.ranking"),
    (BatchRejectionSampler, "sample_many", "sampling.sample", "repro.sampling"),
    (MetropolisHastingsSampler, "sample", "sampling.mcmc", "repro.sampling"),
    (ShardedPoolRepository, "fill_many", "pool.fill", "repro.service.pool_repository"),
    (ShardedPoolRepository, "fill_one", "pool.fill", "repro.service.pool_repository"),
    (ShardedPoolRepository, "get", "pool.get", "repro.service.pool_repository"),
    (RecommendationEngine, "recommend", "engine.recommend", "repro.service.engine"),
    (RecommendationEngine, "recommend_many", "engine.recommend_many", "repro.service.engine"),
    (RecommendationEngine, "feedback", "engine.feedback", "repro.service.engine"),
    (PackageRecommender, "feedback", "elicitation.feedback", "repro.core.elicitation"),
    (SessionManager, "acquire", "session.acquire", "repro.service.session_manager"),
    (EventLogStore, "log_round_served", "eventlog.append", "repro.service.eventlog"),
    (EventLogStore, "log_feedback", "eventlog.append", "repro.service.eventlog"),
    (EventLogStore, "save", "eventlog.append", "repro.service.eventlog"),
    (EventLogStore, "load", "eventlog.load", "repro.service.eventlog"),
)

#: Modules that imported ``rank_from_samples`` by name; the wrapper replaces
#: their binding too, or calls through them would go unseen.
RANK_IMPORTERS = (engine_mod, elicitation_mod)

LAYERS = tuple(dict.fromkeys(layer for _, _, _, layer in WRAPPED))


class LayerTracer:
    """Installable timing wrappers with a self-time roll-up.

    ``calls[span]`` holds ``(inclusive_s, self_s)`` per finished call;
    ``queue_waits`` holds, per request dispatched through
    ``recommend_many``, the time from its submission to the async server
    to the start of its batch; ``batch_sizes`` the size of each batch.
    """

    def __init__(self) -> None:
        self.calls: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        self.layer_self_s: Dict[str, float] = defaultdict(float)
        self.search_stats: List[dict] = []
        self.samples_filled = 0
        self.pools_filled = 0
        self.restore_s: List[float] = []
        self.queue_waits: List[float] = []
        self.batch_sizes: List[int] = []
        self._submitted: Dict[Tuple[int, str], float] = {}
        self._stack: List[List[float]] = []
        self._saved: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ install
    def install(self) -> "LayerTracer":
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for owner, attr, span, layer in WRAPPED:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span, layer))
        for module in RANK_IMPORTERS:
            self._saved.append((module, "rank_from_samples", module.rank_from_samples))
            module.rank_from_samples = ranking_mod.rank_from_samples
        original_submit = AsyncRecommendationServer.__dict__["recommend"]
        self._saved.append((AsyncRecommendationServer, "recommend", original_submit))
        submitted = self._submitted

        async def recommend(server, session_id):
            # Session ids repeat across engines, so the engine is in the key.
            submitted[id(server.engine), session_id] = time.perf_counter()
            return await original_submit(server, session_id)

        AsyncRecommendationServer.recommend = recommend
        return self

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    # ------------------------------------------------------------ wrapping
    def _wrap(self, fn: Callable, span: str, layer: str) -> Callable:
        # Observers are the methods named _before_<function> (called with
        # the call's arguments before it runs; returns a token) and
        # _after_<function> (called with the arguments, result, inclusive
        # duration and token once it returned).
        stack = self._stack
        calls = self.calls[span]
        layer_self = self.layer_self_s
        before = getattr(self, "_before_" + fn.__name__, None)
        after = getattr(self, "_after_" + fn.__name__, None)

        def wrapper(*args, **kwargs):
            token = before(*args) if before is not None else None
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                inclusive = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += inclusive
                calls.append((inclusive, inclusive - frame[0]))
                layer_self[layer] += inclusive - frame[0]
            if after is not None:
                after(args, result, inclusive, token)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__wrapped__ = fn
        return wrapper

    # Per-function observers: counts read at the layer boundary.
    def _after_search_pools(self, args, result, inclusive, token) -> None:
        if args[0].last_search_stats:
            self.search_stats.append(dict(args[0].last_search_stats))

    def _after_current_top_k(self, args, result, inclusive, token) -> None:
        stats = args[0].batch_searcher.last_search_stats
        if args[0].config.use_batch_search and stats:
            self.search_stats.append(dict(stats))

    def _after_fill_many(self, args, result, inclusive, token) -> None:
        self.pools_filled += len(result)
        self.samples_filled += sum(pool.size for pool in result.values())

    def _after_fill_one(self, args, result, inclusive, token) -> None:
        self.pools_filled += 1
        self.samples_filled += result.size

    def _before_acquire(self, manager, session_id):
        return manager.sessions_restored

    def _after_acquire(self, args, result, inclusive, token) -> None:
        if args[0].sessions_restored > token:
            self.restore_s.append(inclusive)

    def _before_recommend_many(self, engine, session_ids):
        now = time.perf_counter()
        self.batch_sizes.append(len(session_ids))
        for session_id in session_ids:
            submitted = self._submitted.pop((id(engine), session_id), None)
            if submitted is not None:
                self.queue_waits.append(now - submitted)

    # ------------------------------------------------------------ roll-up
    def span_self_s(self, span: str) -> float:
        return sum(own for _, own in self.calls.get(span, ()))

    def p50_ms(self, span: str) -> float:
        """Median self time of the span's calls, in ms."""
        return _p50_ms([own for _, own in self.calls.get(span, ())])


def _p50_ms(values_s) -> float:
    return 1000.0 * statistics.median(values_s) if values_s else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("topk.search_ms.per_round", "ms", "lower"),
    ("topk.rows_searched", "rows/round", "lower"),
    ("topk.items_accessed", "items/round", "lower"),
    ("topk.dedup_rate", "ratio", "higher"),
    ("ranking.aggregate_ms.per_round", "ms", "lower"),
    ("sampling.fill_ms.per_fill", "ms", "lower"),
    ("sampling.mcmc_calls", "calls/round", "lower"),
    ("pool.fill_ms.per_round", "ms", "lower"),
    ("pool.fills", "fills/round", "lower"),
    ("pool.samples_filled", "samples/round", "lower"),
    ("pool.hit_rate", "ratio", "higher"),
    ("maintenance.kept_frac", "ratio", "higher"),
    ("dispatcher.queue_wait_ms.p50", "ms", "lower"),
    ("dispatcher.batch_sessions.mean", "sessions", "higher"),
    ("engine.self_ms.per_round", "ms", "lower"),
    ("engine.topk_cache.hit_rate", "ratio", "higher"),
    ("elicitation.feedback_ms.p50", "ms", "lower"),
    ("session.restore_ms.p50", "ms", "lower"),
    ("session.restores", "restores/round", "lower"),
    ("session.swap_outs", "swaps/round", "lower"),
    ("eventlog.append_ms.p50", "ms", "lower"),
    ("eventlog.appends", "appends/round", "lower"),
    ("eventlog.bytes_written", "bytes/round", "lower"),
)


class Counters:
    """Program counters read through public surfaces, summed over engines."""

    def __init__(self, engines) -> None:
        self.pool_hits = self.pool_misses = self.topk_hits = self.topk_misses = 0
        self.pools_rebuilt = self.restores = self.swap_outs = self.log_bytes = 0
        for engine in engines:
            stats = engine.stats()
            pool = engine.pool_repository.stats
            self.pool_hits += pool.hits
            self.pool_misses += pool.misses
            self.topk_hits += stats.topk_cache["hits"]
            self.topk_misses += stats.topk_cache["misses"]
            self.pools_rebuilt += stats.pools_sampled + stats.pools_maintained
            self.restores += engine.sessions.sessions_restored
            self.swap_outs += engine.sessions.sessions_swapped_out
            if engine.event_log is not None:
                self.log_bytes += engine.event_log.total_bytes()


def per_layer_metrics(
    tracer: LayerTracer,
    before: Counters,
    after: Counters,
    rounds: int,
    num_samples: int,
) -> Dict[str, float]:
    """Every per-layer metric of one traced timed phase."""
    stats = tracer.search_stats
    rows = sum(s["rows"] for s in stats)
    unique_rows = sum(s["unique_rows"] for s in stats)
    rebuilt = after.pools_rebuilt - before.pools_rebuilt
    pool_lookups = (after.pool_hits - before.pool_hits) + (after.pool_misses - before.pool_misses)
    topk_lookups = (after.topk_hits - before.topk_hits) + (after.topk_misses - before.topk_misses)
    per_round = 1.0 / rounds
    return {
        "topk.search_ms.per_round": 1000.0 * tracer.span_self_s("search.topk") * per_round,
        "topk.rows_searched": rows * per_round,
        "topk.items_accessed": sum(s["items_accessed"] for s in stats) * per_round,
        "topk.dedup_rate": _ratio(rows - unique_rows, rows),
        "ranking.aggregate_ms.per_round": (
            1000.0 * tracer.span_self_s("ranking.aggregate") * per_round
        ),
        "sampling.fill_ms.per_fill": 1000.0 * _ratio(
            tracer.layer_self_s["repro.sampling"], tracer.pools_filled
        ),
        "sampling.mcmc_calls": len(tracer.calls.get("sampling.mcmc", ())) * per_round,
        "pool.fill_ms.per_round": 1000.0 * tracer.span_self_s("pool.fill") * per_round,
        "pool.fills": tracer.pools_filled * per_round,
        "pool.samples_filled": tracer.samples_filled * per_round,
        "pool.hit_rate": _ratio(after.pool_hits - before.pool_hits, pool_lookups),
        "maintenance.kept_frac": (
            1.0 - _ratio(tracer.samples_filled, rebuilt * num_samples) if rebuilt else 0.0
        ),
        "dispatcher.queue_wait_ms.p50": _p50_ms(tracer.queue_waits),
        "dispatcher.batch_sessions.mean": (
            statistics.fmean(tracer.batch_sizes) if tracer.batch_sizes else 0.0
        ),
        "engine.self_ms.per_round": (
            1000.0 * tracer.layer_self_s["repro.service.engine"] * per_round
        ),
        "engine.topk_cache.hit_rate": _ratio(after.topk_hits - before.topk_hits, topk_lookups),
        "elicitation.feedback_ms.p50": tracer.p50_ms("elicitation.feedback"),
        "session.restore_ms.p50": _p50_ms(tracer.restore_s),
        "session.restores": (after.restores - before.restores) * per_round,
        "session.swap_outs": (after.swap_outs - before.swap_outs) * per_round,
        "eventlog.append_ms.p50": tracer.p50_ms("eventlog.append"),
        "eventlog.appends": len(tracer.calls.get("eventlog.append", ())) * per_round,
        "eventlog.bytes_written": (after.log_bytes - before.log_bytes) * per_round,
    }


def layer_shares(tracer: LayerTracer, wall_s: float) -> Dict[str, float]:
    """Each layer's self time as a share of the timed phase's wall time.

    ``outside`` is the rest: the clients, the asyncio loop, the dispatcher's
    own code and the benchmark's bookkeeping between wrapped calls.
    """
    shares = {layer: tracer.layer_self_s.get(layer, 0.0) / wall_s for layer in LAYERS}
    shares["outside"] = 1.0 - sum(shares.values())
    return shares
