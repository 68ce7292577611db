"""The three workloads: inputs from a seed, a closed-loop timed phase, checks.

Each workload object goes through ``setup()`` (everything before the first
timed request), ``run(seconds, min_rounds)`` (the timed phase), then
``check()`` (the output checks, outside the timed phase) and ``close()``.
``known_faults()`` runs the comparisons the program is known to fail on
some seeds; they are printed but do not decide ``correct``.
All of them run on one thread, on the ``inline`` shard backend, and send
their next request only when the previous one has returned.
"""

from __future__ import annotations

import asyncio
import dataclasses
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import oracle
from repro.core.elicitation import ElicitationConfig, RecommendationRound
from repro.core.items import ItemCatalog
from repro.core.profiles import AggregateProfile
from repro.data.generators import generate_uniform
from repro.service import AsyncRecommendationServer, EngineConfig, RecommendationEngine
from repro.service.eventlog import EventLogStore

#: Root of the checkout; event logs are written below it and removed on close.
ROOT = Path(__file__).resolve().parents[1]
WORK_DIR = ROOT / ".bench_work"

#: Number of features of every catalog.
NUM_FEATURES = 4

#: Largest package size (phi) and packages recommended per round (k).
PHI = 3
K = 3

#: Random reference packages the quality metric ranks the top-1 against.
QUALITY_REFERENCES = 1000

#: The event log never fsyncs inside a run: appends cost the program's own
#: work and a write into the page cache, as on a memory-backed directory,
#: not the latency of whatever disk holds the checkout.
NO_FSYNC = 1 << 30

Items = Tuple[int, ...]
Served = Tuple[Tuple[Items, ...], Tuple[Items, ...]]


def round_items(round_: RecommendationRound) -> Served:
    """A served round as plain item tuples: (recommended, random)."""
    return (
        tuple(p.items for p in round_.recommended),
        tuple(p.items for p in round_.random_packages),
    )


class CatalogInputs:
    """One generated UNI catalog, as the program and as the oracle see it."""

    def __init__(self, num_items: int, seed_words) -> None:
        self.features = generate_uniform(
            num_items, NUM_FEATURES, rng=np.random.default_rng(seed_words)
        )
        self.aggs = oracle.aggregations(NUM_FEATURES)
        self.norms = oracle.normalisers(self.features, self.aggs, PHI)
        self.catalog = ItemCatalog(self.features)
        self.profile = AggregateProfile(self.aggs)
        self.references: Optional[np.ndarray] = None

    def vectors(self, packages) -> np.ndarray:
        return oracle.vectors_of(self.features, self.aggs, self.norms, packages)

    def utility(self, items: Items, weights: np.ndarray) -> float:
        return float(self.vectors([items])[0] @ weights)

    def reference_vectors(self, seed_words) -> np.ndarray:
        """Vectors of the random packages the quality metric uses.

        Drawn from ``seed_words`` on the first call and kept for the
        catalog's lifetime.
        """
        if self.references is None:
            rng = np.random.default_rng(seed_words)
            packages = oracle.random_packages(
                rng, self.features.shape[0], PHI, QUALITY_REFERENCES
            )
            self.references = self.vectors(packages)
        return self.references


@dataclass
class User:
    """A simulated user: hidden weights, the catalog it shops in, its session."""

    weights: np.ndarray
    session_seed: int
    inputs: CatalogInputs
    engine: Optional[RecommendationEngine] = None
    session_id: Optional[str] = None
    rounds: List[Served] = field(default_factory=list)
    clicks: List[int] = field(default_factory=list)
    #: (clicked, presented) item tuples of every click so far.
    history: List[Tuple[Items, Tuple[Items, ...]]] = field(default_factory=list)

    def open(self, engine: RecommendationEngine) -> None:
        self.engine = engine
        self.session_id = engine.create_session(seed=self.session_seed)

    def click(self, round_: RecommendationRound) -> int:
        """Record ``round_`` and choose the package this user truly prefers.

        Returns the clicked index into ``round_.presented`` (first of ties).
        """
        presented = tuple(p.items for p in round_.presented)
        choice = int(np.argmax(self.inputs.vectors(presented) @ self.weights))
        self.rounds.append(round_items(round_))
        self.clicks.append(choice)
        self.history.append((presented[choice], presented))
        return choice

    def twin(self) -> "User":
        """A fresh user with the same hidden utility and session seed."""
        return User(self.weights, self.session_seed, self.inputs)


@dataclass
class Timed:
    """What a timed phase measured."""

    latencies_s: List[float]
    wall_s: float


class Workload:
    """Shared plumbing: engines, users, the event-log directory, quality."""

    name = ""

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = int(seed)
        self.engines: List[RecommendationEngine] = []
        self.finished: List[User] = []
        self._work: Optional[str] = None

    def _log_store(self) -> EventLogStore:
        """A new event log, in its own directory below the run's."""
        if self._work is None:
            WORK_DIR.mkdir(exist_ok=True)
            self._work = tempfile.mkdtemp(prefix=f"{self.name}-", dir=WORK_DIR)
        return EventLogStore(tempfile.mkdtemp(dir=self._work), fsync_every=NO_FSYNC)

    def _engine(self, inputs: CatalogInputs, config: EngineConfig, store=None):
        engine = RecommendationEngine(inputs.catalog, inputs.profile, config, store=store)
        self.engines.append(engine)
        return engine

    @staticmethod
    def _user(rng: np.random.Generator, inputs: CatalogInputs) -> User:
        weights = rng.uniform(-1.0, 1.0, NUM_FEATURES)
        return User(weights, int(rng.integers(1, 2**31 - 1)), inputs)

    def known_faults(self) -> List[str]:
        """Comparisons the program fails on some seeds, reported apart."""
        return []

    def quality(self) -> float:
        """Mean share (%) of reference packages the last top-1 beats, over users."""
        shares = []
        for user in self.finished:
            references = user.inputs.reference_vectors([self.seed, 7])
            top1 = user.inputs.utility(user.rounds[-1][0][0], user.weights)
            shares.append(float(np.mean(references @ user.weights < top1)))
        return 100.0 * float(np.mean(shares))

    def close(self) -> None:
        for engine in self.engines:
            engine.close_repository()
            if engine.event_log is not None:
                engine.event_log.close()
        self.engines = []
        if self._work is not None:
            shutil.rmtree(self._work, ignore_errors=True)
            self._work = None


def check_pools(inputs: CatalogInputs, captured) -> List[str]:
    """Every sample of every captured ``(samples, history)`` pool satisfies
    the clicks of its history, recomputed from the catalog."""
    failures = []
    for samples, history in captured:
        directions = oracle.click_directions(inputs.features, inputs.aggs, inputs.norms, history)
        if directions.size and (samples @ directions.T).min() < -oracle.UTILITY_TOL:
            failures.append(f"a pool sample violates the clicks {history}")
    return failures


def _serving_elicitation(num_samples: int) -> ElicitationConfig:
    """The low-latency serving preset: one searched sample, a beam and a cap."""
    return ElicitationConfig(
        k=K,
        num_random=2,
        max_package_size=PHI,
        num_samples=num_samples,
        search_sample_budget=1,
        search_beam_width=150,
        search_items_cap=40,
    )


# ====================================================================== paper
class PaperExact(Workload):
    """The paper's search setting: every pool sample searched, exactly.

    One client serves heterogeneous users one after another, ``rounds``
    rounds each, through ``engine.recommend`` then ``engine.feedback``.
    Search cost depends strongly on the catalog, so each run spreads its
    users over ``catalogs`` small catalogs, one engine each.
    """

    name = "paper-exact"

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.items = 40 if smoke else 200
        self.samples = 12 if smoke else 50
        self.catalogs = 2 if smoke else 8
        self.rounds = 3 if smoke else 8
        self.max_users = 96
        self.check_rounds = 2 if smoke else 3

    def setup(self) -> None:
        config = EngineConfig(
            elicitation=ElicitationConfig(
                k=K,
                max_package_size=PHI,
                num_samples=self.samples,
                search_sample_budget=None,
                search_beam_width=None,
                search_items_cap=None,
            ),
        )
        shops = []
        for c in range(self.catalogs):
            inputs = CatalogInputs(self.items, [self.seed, 0, c])
            # Each engine draws its own pools: with one engine seed, every
            # catalog would search the same root samples, and their cost
            # would not average out over the catalogs.
            engine_seed = int(np.random.SeedSequence([self.seed, 8, c]).generate_state(1)[0])
            engine = self._engine(inputs, dataclasses.replace(config, seed=engine_seed))
            engine.warm_start(0)
            shops.append((inputs, engine))
        rng = np.random.default_rng([self.seed, 1])
        self.users = []
        for index in range(self.max_users):
            inputs, engine = shops[index % self.catalogs]
            user = self._user(rng, inputs)
            user.open(engine)
            self.users.append(user)
        picks = np.random.default_rng([self.seed, 2])
        self.to_check = {
            (int(picks.integers(0, self.catalogs)), int(picks.integers(0, self.rounds)))
            for _ in range(self.check_rounds)
        }
        self.captured: List[Tuple[User, np.ndarray, np.ndarray, Tuple[Items, ...]]] = []

    def run(self, seconds: float, min_rounds: int) -> Timed:
        latencies: List[float] = []
        start = time.perf_counter()
        for index, user in enumerate(self.users):
            engine = user.engine
            for r in range(self.rounds):
                t0 = time.perf_counter()
                round_ = engine.recommend(user.session_id)
                latencies.append(time.perf_counter() - t0)
                choice = user.click(round_)
                if (index, r) in self.to_check:
                    pool = engine.sessions.peek(user.session_id).recommender.pending_pool
                    served = tuple(p.items for p in round_.recommended)
                    self.captured.append((user, pool.samples, pool.weights, served))
                engine.feedback(user.session_id, choice)
            self.finished.append(user)
            if time.perf_counter() - start >= seconds and len(latencies) >= min_rounds:
                break
        return Timed(latencies, time.perf_counter() - start)

    def check(self) -> List[str]:
        """Per-sample top-k against exhaustive enumeration; served list = EXP."""
        failures = []
        if len(self.captured) != len(self.to_check):
            failures.append("a round chosen for checking was never served")
        for user, samples, weights, served in self.captured:
            inputs = user.inputs
            space = oracle.PackageSpace(inputs.features, inputs.aggs, PHI)
            results = user.engine.batch_searcher.search_many(samples, K)
            per_sample = []
            for w, result in zip(samples, results):
                got = [(p.items, float(u)) for p, u in result.as_pairs()]
                want = space.top_k(w, K)
                if not oracle.topk_matches(
                    got, want, lambda items, w=w: inputs.utility(items, w)
                ):
                    failures.append(f"top-k of sample {w} is {got}, enumeration gives {want}")
                per_sample.append(got)
            expected = tuple(oracle.exp_aggregate(per_sample, weights, K))
            if expected != tuple(served):
                failures.append(f"served {served}, EXP of per-sample results gives {expected}")
        return failures


# ================================================================== serving
class Shop:
    """One catalog behind its own engine and async server, with C clients.

    Each client serves one user after another; ``current[i]`` is client
    ``i``'s user and ``left[i]`` the rounds that user has still to go.
    """

    def __init__(self, inputs: CatalogInputs, engine: RecommendationEngine,
                 clients: int, seed_words) -> None:
        self.inputs = inputs
        self.engine = engine
        self.server = AsyncRecommendationServer(engine, max_batch_size=clients, max_wait=3600.0)
        self.rngs = [np.random.default_rng([*seed_words, 3, i]) for i in range(clients)]
        self.picks = np.random.default_rng([*seed_words, 4])
        self.current: List[User] = []
        self.left: List[int] = []
        self.captured: List[Tuple[np.ndarray, list]] = []
        self.finished: List[User] = []

    def next_user(self, client: int) -> User:
        user = Workload._user(self.rngs[client], self.inputs)
        user.open(self.engine)
        return user


class ServeHetero(Workload):
    """The serving preset behind async servers, ``clients`` closed loops each.

    The run spreads its users over ``num_shops`` catalogs, each with its own
    engine and server, since the cost of serving depends strongly on the
    catalog; the shops take turns.  Every client drives one heterogeneous
    user after another, ``rounds`` rounds each; the first timed users'
    sessions are staggered in length so batches mix session depths.  Set-up
    warms every engine with short sessions of ``warmup_rounds`` rounds.
    Each dispatcher's batch size equals its client count and its wait window
    never expires, so every batch holds exactly one request per client of
    its shop.
    """

    name = "serve-hetero"

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.items = 200 if smoke else 1000
        self.samples = 200 if smoke else 2000
        self.num_shops = 2 if smoke else 4
        self.clients = 4 if smoke else 8
        self.rounds = 3 if smoke else 4
        #: Warm-up users are served this many rounds each, all clients in step.
        self.warmup_rounds = 2
        self.warmup_batches = 2 if smoke else 16
        self.block_batches = 1 if smoke else 4
        self.capture_every = 4 if smoke else 16
        #: Per shop: users compared, drawn from the first ones to finish,
        #: which every run reaches whatever its length.
        self.compare_users = 1 if smoke else 2
        self.compare_from = 4 if smoke else 24

    def _config(self, shop: int) -> EngineConfig:
        # A finished user's session is closed, so at most one session per
        # client is open and no session ever swaps out.  The shops share the
        # default pool budget, so that their caches fill within a run and
        # resident memory does not grow with the rounds a run serves.
        engine_seed = int(np.random.SeedSequence([self.seed, 8, shop]).generate_state(1)[0])
        return EngineConfig(
            elicitation=_serving_elicitation(self.samples),
            max_active_sessions=2 * self.clients,
            pool_cache_size=EngineConfig.pool_cache_size // self.num_shops,
            seed=engine_seed,
        )

    def setup(self) -> None:
        self.shops: List[Shop] = []
        for s in range(self.num_shops):
            inputs = CatalogInputs(self.items, [self.seed, 0, s])
            engine = self._engine(inputs, self._config(s), store=self._log_store())
            engine.warm_start()
            self.shops.append(Shop(inputs, engine, self.clients, [self.seed, s]))
        # Warm-up: short sessions fill the hot pools and caches; they end
        # together, so no warm-up session is open when timing starts.
        self._user_rounds = self.warmup_rounds

        async def warm_up() -> None:
            for shop in self.shops:
                shop.current = [shop.next_user(i) for i in range(self.clients)]
                shop.left = [self.warmup_rounds] * self.clients
                await self._drive(shop, self.warmup_batches, [])

        asyncio.run(warm_up())
        # The first timed users are staggered in length, so batches soon mix
        # every session depth.
        self._user_rounds = self.rounds
        for shop in self.shops:
            shop.left = [self.rounds - i % self.rounds for i in range(self.clients)]
            shop.captured = []
            shop.finished = []
        self.finished = []

    async def _drive(self, shop: Shop, batches: int, latencies: List[float]) -> None:
        """Run one shop's clients for ``batches`` whole batches.

        A client stops once the batch its round came from is the last one,
        so every client of that batch stops together and no request is left
        waiting in the window.
        """
        stats = shop.server.dispatcher.stats
        last = stats.batches_dispatched + batches

        async def client(i: int) -> None:
            while True:
                user = shop.current[i]
                t0 = time.perf_counter()
                round_ = await shop.server.recommend(user.session_id)
                latencies.append(time.perf_counter() - t0)
                self._after_round(shop, i, user, round_)
                if stats.batches_dispatched >= last:
                    return

        await asyncio.gather(*(client(i) for i in range(self.clients)))

    def _after_round(self, shop: Shop, i: int, user: User, round_: RecommendationRound) -> None:
        engine = shop.engine
        if shop.picks.integers(0, self.capture_every) == 0:
            pool = engine.sessions.peek(user.session_id).recommender.pending_pool
            shop.captured.append((pool.samples, list(user.history)))
        engine.feedback(user.session_id, user.click(round_))
        shop.left[i] -= 1
        if shop.left[i] == 0:
            engine.close(user.session_id)
            shop.finished.append(user)
            self.finished.append(user)
            shop.current[i] = shop.next_user(i)
            shop.left[i] = self._user_rounds

    def run(self, seconds: float, min_rounds: int) -> Timed:
        """Timed phase; ``min_rounds`` counts batches, over all shops.

        The shops take turns, ``block_batches`` batches each, and the phase
        ends after a whole turn of every shop, so each run spreads its work
        evenly over the catalogs.
        """
        latencies: List[float] = []
        start = time.perf_counter()

        async def turns() -> None:
            served = 0
            while True:
                for shop in self.shops:
                    await self._drive(shop, self.block_batches, latencies)
                served += self.block_batches * len(self.shops)
                if time.perf_counter() - start >= seconds and served >= min_rounds:
                    return

        asyncio.run(turns())
        return Timed(latencies, time.perf_counter() - start)

    def check(self) -> List[str]:
        """Whole batches, and every captured pool satisfies the clicks."""
        failures = self.check_batches()
        for shop in self.shops:
            failures += check_pools(shop.inputs, shop.captured)
        return failures

    def known_faults(self) -> List[str]:
        """Batched rounds differ from per-session ones on some seeds.

        The cross-session top-k walk pools the beam and item cap over the
        whole batch, so a session's packages depend on its batch mates.
        """
        return self.check_per_session()

    def check_batches(self) -> List[str]:
        """Every batch held one request per client, and no session swapped out."""
        failures = []
        for shop in self.shops:
            stats = shop.server.dispatcher.stats
            if not (
                stats.size_flushes == stats.batches_dispatched
                and stats.timer_flushes == 0
                and stats.requests_completed == stats.batches_dispatched * self.clients
                and stats.requests_failed == 0
            ):
                failures.append(f"a batch did not hold one request per client: {stats.as_dict()}")
            if shop.engine.sessions.sessions_swapped_out:
                failures.append(f"{shop.engine.sessions.sessions_swapped_out} sessions swapped out")
        return failures

    def check_per_session(self) -> List[str]:
        """A seeded subset of each shop's first finished users, served alone.

        Each chosen user's twin (same hidden utility, same session seed) is
        served on a second engine through ``engine.recommend``, clicking as
        the user did; every round must equal the batched round.
        """
        picks = np.random.default_rng([self.seed, 5])
        differing, compared = [], 0
        for s, shop in enumerate(self.shops):
            if len(shop.finished) < self.compare_from:
                return [f"only {len(shop.finished)} users finished in shop {s}, "
                        f"{self.compare_from} needed"]
            chosen = picks.choice(self.compare_from, size=self.compare_users, replace=False)
            engine = RecommendationEngine(shop.inputs.catalog, shop.inputs.profile, self._config(s))
            engine.warm_start()
            try:
                for index in sorted(int(i) for i in chosen):
                    user = shop.finished[index]
                    twin = user.twin()
                    twin.open(engine)
                    for _ in user.rounds:
                        round_ = engine.recommend(twin.session_id)
                        engine.feedback(twin.session_id, twin.click(round_))
                    engine.close(twin.session_id)
                    compared += 1
                    pairs = enumerate(zip(twin.rounds, user.rounds))
                    first = next((r for r, (alone, batched) in pairs if alone != batched), None)
                    if first is not None:
                        differing.append(f"user {index} of shop {s} from round {first + 1}")
            finally:
                engine.close_repository()
        if differing:
            return [
                f"{len(differing)} of {compared} users were served other rounds one "
                f"request at a time than in batches: {', '.join(differing)}"
            ]
        return []


# =================================================================== replay
class ReplayChurn(Workload):
    """Identical users, round-robin, far more sessions than active slots.

    Each generation opens ``sessions`` sessions for one user: one hidden
    utility and one session seed, so after the first session of a round
    every pool and top-k lookup hits.  They are served round-robin for
    ``rounds`` rounds, then closed, and the next generation brings a new
    user.  With ``active`` slots, every request restores one session by
    replaying its log and swaps another out.
    """

    name = "replay-churn"

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.items = 100 if smoke else 300
        self.samples = 100 if smoke else 200
        self.sessions = 8 if smoke else 32
        self.active = 2 if smoke else 4
        self.rounds = 4 if smoke else 10
        self.capture_every = 4 if smoke else 16

    def _config(self, max_active: int) -> EngineConfig:
        return EngineConfig(
            elicitation=_serving_elicitation(self.samples),
            max_active_sessions=max_active,
            seed=self.seed,
        )

    def setup(self) -> None:
        self.inputs = CatalogInputs(self.items, [self.seed, 0])
        self.engine = self._engine(self.inputs, self._config(self.active), store=self._log_store())
        self._rng = np.random.default_rng([self.seed, 6])
        self._picks = np.random.default_rng([self.seed, 9])
        self.captured: List[Tuple[np.ndarray, list]] = []
        #: (user, the rounds its sessions were served as (round, items)), per generation.
        self.generations: List[Tuple[User, List[Tuple[int, Served]]]] = []
        self._generation()
        self._serve_generation([])
        self.finished = []
        self.captured = []
        self._generation()

    def _generation(self) -> None:
        template = self._user(self._rng, self.inputs)
        self.generations.append((template, []))
        self.users = [template.twin() for _ in range(self.sessions)]
        for user in self.users:
            user.open(self.engine)

    def _serve_generation(self, latencies: List[float]) -> None:
        engine = self.engine
        served = self.generations[-1][1]
        for r in range(self.rounds):
            for user in self.users:
                t0 = time.perf_counter()
                round_ = engine.recommend(user.session_id)
                latencies.append(time.perf_counter() - t0)
                if self._picks.integers(0, self.capture_every) == 0:
                    pool = engine.sessions.peek(user.session_id).recommender.pending_pool
                    self.captured.append((pool.samples, list(user.history)))
                choice = user.click(round_)
                served.append((r, user.rounds[-1]))
                engine.feedback(user.session_id, choice)
        for user in self.users:
            engine.close(user.session_id)
        self.finished.extend(self.users)

    def run(self, seconds: float, min_rounds: int) -> Timed:
        latencies: List[float] = []
        start = time.perf_counter()
        while True:
            self._serve_generation(latencies)
            if time.perf_counter() - start >= seconds and len(latencies) >= min_rounds:
                break
            self._generation()
        return Timed(latencies, time.perf_counter() - start)

    def check(self) -> List[str]:
        """The pools of restored sessions satisfy every click they made.

        A session restored from its log serves from the pool its replayed
        clicks lead to; a click lost or changed by the replay would leave
        that pool's samples free to fall on the wrong side of the click.
        """
        return check_pools(self.inputs, self.captured)

    def known_faults(self) -> List[str]:
        """Every served round against a never-swapped session's round.

        A restored session loses its candidate-carryover key, and with a
        beam and an item cap the carried candidates change what the search
        returns, so on some seeds replayed rounds differ.
        """
        engine = RecommendationEngine(
            self.inputs.catalog,
            self.inputs.profile,
            self._config(max_active=len(self.generations)),
        )
        mismatched = 0
        try:
            for template, served in self.generations:
                if not served:
                    continue
                user = template.twin()
                user.open(engine)
                reference = []
                for _ in range(self.rounds):
                    round_ = engine.recommend(user.session_id)
                    engine.feedback(user.session_id, user.click(round_))
                    reference.append(user.rounds[-1])
                mismatched += sum(1 for r, items in served if items != reference[r])
        finally:
            engine.close_repository()
        if mismatched:
            return [f"{mismatched} served rounds differ from never-swapped sessions"]
        return []


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (PaperExact, ServeHetero, ReplayChurn)
}
