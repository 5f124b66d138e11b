"""The generation loop shared by the EA and the NSGA-II front search.

The paper's search (Sec. III-D) breeds each generation from the best
parents — crossover w.p. 0.25, mutation w.p. 0.25, a clone otherwise —
and then scores the population. The NSGA-II extension breeds the same
way and differs only in how it picks parents, so both engines subclass
:class:`GenerationalSearch` and plug in just their policy:

* ``_score_many`` — uncached batch scoring (the backend's work function);
* ``_seed_archs`` — architectures placed in the first population ahead
  of the uniform samples;
* ``_select`` — the parents kept from a scored population;
* ``_record`` — what the engine remembers of each scored generation;
* ``_state`` / ``_restore`` — the engine's checkpoint fields.

Each generation *breeds* first (every rng draw, dedup, and containment
check, in the parent) and *scores* second (one cached batch). Scoring
draws no randomness, so a batch scored serially, across worker
processes, or from a tabular artifact gives identical results.

``generations_done`` — the progress a cancel check reports — counts
generations scored: 0 before the first population, 1 once it is
scored, and so on up to ``config.generations``.
"""

from __future__ import annotations

import contextlib
from typing import List, Optional

import numpy as np

from repro.core.cache import EvaluationCache
from repro.parallel.backend import create_backend
from repro.runstate.rng import generator_state, set_generator_state
from repro.space.architecture import Architecture
from repro.space.search_space import SearchSpace

CHECKPOINT_FORMAT = 1


class GenerationalSearch:
    """Seeded breed-then-score loop with cancel checks and checkpoints.

    Parameters
    ----------
    space, config:
        The search space and the engine's hyper-parameters (``seed``,
        ``generations``, ``population_size``, ``crossover_prob``,
        ``mutation_prob``, ``per_layer_mutation_prob``).
    cache:
        Optional shared :class:`~repro.core.cache.EvaluationCache`. The
        pipeline passes the EA the cache it used during space shrinking,
        so architectures already scored there are free; by default the
        search memoizes privately.
    evaluator:
        Optional externally-owned evaluation backend (e.g. a
        :class:`~repro.parallel.ParallelEvaluator`) that scores each
        batch's cache misses. The search borrows it and never closes
        it; without one, :meth:`_open_backend` builds a backend for the
        run and tears it down on exit. Breeding (all rng use) stays in
        the parent, so results are bit-identical with any backend.
    checkpoint:
        Optional checkpoint slot (e.g.
        :class:`~repro.runstate.PhaseCheckpoint`). The search saves its
        full resumable state — rng stream, engine state, and evaluation
        count — after each generation and continues from the saved
        point instead of starting over. A resumed run is bit-identical
        to an uninterrupted one.
    cancel:
        Optional cooperative :class:`~repro.resilience.CancelToken`,
        checked once per generation and forwarded to the backend.
        Expiry raises :class:`~repro.resilience.DeadlineExceeded`
        carrying the generation counters as partial progress; with a
        checkpoint, the generations scored before expiry remain
        resumable. Checks draw no randomness, so a run that finishes in
        time is bit-identical with or without a token.
    """

    # Progress label on cancel checks and checkpoint errors.
    stage = "search"
    # The checkpoint field holding the generation counter, and how many
    # generations it trails the number scored.
    _progress_key = "next_generation"
    _progress_lag = 0

    def __init__(
        self,
        space: SearchSpace,
        config,
        cache: Optional[EvaluationCache] = None,
        evaluator=None,
        checkpoint=None,
        cancel=None,
    ):
        self.space = space
        self.config = config
        self.cache = cache if cache is not None else EvaluationCache()
        self.evaluator = evaluator
        self.checkpoint = checkpoint
        self.cancel = cancel
        self._misses_before = self.cache.misses

    # -- engine policy -------------------------------------------------------------

    def _score_many(self, archs: List[Architecture]) -> list:
        """Uncached batch scoring, one result per architecture."""
        raise NotImplementedError

    def _seed_archs(self) -> List[Architecture]:
        """Architectures placed in the first population before samples."""
        return []

    def _select(self, population: list) -> list:
        """The parents kept from a scored population."""
        raise NotImplementedError

    def _record(self, gen: int, population: list) -> None:
        """Remember scored generation ``gen``."""
        raise NotImplementedError

    def _state(self) -> dict:
        """The engine's checkpoint fields."""
        raise NotImplementedError

    def _restore(self, saved: dict) -> list:
        """Reload the engine's fields; returns the current population."""
        raise NotImplementedError

    def _open_backend(self):
        """The backend for a run without an evaluator (closed on exit)."""
        return create_backend("serial", self._score_many)

    # -- genetic operators ---------------------------------------------------------

    def _crossover(
        self, a: Architecture, b: Architecture, rng: np.random.Generator
    ) -> Architecture:
        """Uniform crossover: each layer's (op, factor) pair comes from
        one of the two parents."""
        take_a = rng.random(a.num_layers) < 0.5
        ops = tuple(
            a.ops[i] if take_a[i] else b.ops[i] for i in range(a.num_layers)
        )
        factors = tuple(
            a.factors[i] if take_a[i] else b.factors[i] for i in range(a.num_layers)
        )
        return Architecture(ops, factors)

    def _mutate(self, arch: Architecture, rng: np.random.Generator) -> Architecture:
        """Per-layer resampling of the op and/or factor genes."""
        ops = list(arch.ops)
        factors = list(arch.factors)
        p = self.config.per_layer_mutation_prob
        for layer in range(arch.num_layers):
            if rng.random() < p:
                ops[layer] = int(rng.choice(self.space.candidate_ops[layer]))
            if rng.random() < p:
                factors[layer] = float(
                    rng.choice(self.space.candidate_factors[layer])
                )
        return Architecture(tuple(ops), tuple(factors))

    def _breed(self, parents: list, rng: np.random.Generator) -> List[Architecture]:
        """Offspring filling the population up from ``parents``.

        Each child clones a parent, then crosses it with another w.p.
        ``crossover_prob`` and mutates it w.p. ``mutation_prob``;
        duplicates and out-of-space children are dropped. If dedup
        starves the loop (tiny shrunk spaces), samples fill the rest.
        """
        cfg = self.config
        children: List[Architecture] = []
        seen = {p.arch.key() for p in parents}
        needed = cfg.population_size - len(parents)
        attempts = 0
        while len(children) < needed and attempts < needed * 40:
            attempts += 1
            child = parents[int(rng.integers(len(parents)))].arch
            if rng.random() < cfg.crossover_prob and len(parents) > 1:
                other = parents[int(rng.integers(len(parents)))].arch
                child = self._crossover(child, other, rng)
            if rng.random() < cfg.mutation_prob:
                child = self._mutate(child, rng)
            if child.key() in seen or not self.space.contains(child):
                continue
            seen.add(child.key())
            children.append(child)
        children.extend(self.space.sample_many(rng, needed - len(children)))
        return children

    # -- bookkeeping ---------------------------------------------------------------

    def _evaluations(self) -> int:
        """Fresh evaluations this run, relative to the cache baseline."""
        return self.cache.misses - self._misses_before

    def _check_cancel(self, generations_done: int) -> None:
        if self.cancel is not None:
            self.cancel.check(
                stage=self.stage,
                generations_done=generations_done,
                total_generations=self.config.generations,
                evaluations=self._evaluations(),
            )

    def _save(self, rng: np.random.Generator, done: int, complete=False) -> None:
        if self.checkpoint is None:
            return
        self.checkpoint.save(
            {
                "format": CHECKPOINT_FORMAT,
                self._progress_key: done - self._progress_lag,
                "rng": generator_state(rng),
                **self._state(),
                # Relative to *this run's* cache baseline; a resumed run
                # re-derives its baseline from it so the final count
                # matches exactly.
                "evaluations_so_far": self._evaluations(),
            },
            complete=complete,
        )

    # -- main loop -----------------------------------------------------------------

    def _evolve(self) -> Optional[dict]:
        """Run every generation not yet scored; returns backend stats.

        With a ``checkpoint``, a run killed at any point replays the
        saved state (restoring the rng stream mid-sequence) and
        continues; a complete checkpoint returns at once, scoring
        nothing, and then there are no backend stats (``None``).
        """
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        self._misses_before = self.cache.misses
        done, population = 0, []
        saved = self.checkpoint.load() if self.checkpoint is not None else None
        if saved is not None:
            if int(saved.get("format", 0)) != CHECKPOINT_FORMAT:
                raise ValueError(
                    f"unsupported {self.stage} checkpoint format "
                    f"{saved.get('format')!r}"
                )
            population = self._restore(saved)
            set_generator_state(rng, saved["rng"])
            self._misses_before = self.cache.misses - int(
                saved["evaluations_so_far"]
            )
            done = int(saved[self._progress_key]) + self._progress_lag
            if self.checkpoint.is_complete():
                return None

        if self.evaluator is not None:
            backend = contextlib.nullcontext(self.evaluator)
        else:
            backend = self._open_backend()
        with backend as pool:
            # Forward the deadline so the backend also stops between
            # dispatches; the token is cleared on exit, since a
            # borrowed evaluator outlives this run.
            forwarded = self.cancel is not None and hasattr(pool, "set_cancel")
            if forwarded:
                pool.set_cancel(self.cancel)
            try:
                for gen in range(done, cfg.generations):
                    self._check_cancel(gen)
                    if gen == 0:
                        parents = []
                        seeds = self._seed_archs()
                        children = seeds + self.space.sample_many(
                            rng, cfg.population_size - len(seeds)
                        )
                    else:
                        parents = self._select(population)
                        children = self._breed(parents, rng)
                    population = parents + self.cache.get_or_eval_many(
                        children, pool.map
                    )
                    self._record(gen, population)
                    self._save(rng, gen + 1)
            finally:
                if forwarded:
                    pool.set_cancel(None)
            stats = pool.stats()
        self._save(rng, cfg.generations, complete=True)
        return stats
