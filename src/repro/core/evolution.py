"""Evolutionary architecture search (paper Sec. III-D).

The EA maximizes the Eq. 1 objective over the (shrunk) search space with
the paper's hyper-parameters: 20 generations, population 50, 20 parents,
crossover probability 0.25 and mutation probability 0.25. Crossover and
mutation act on *both* the operator gene and the channel-factor gene of
each layer — "efficient explorations not only on the operator level but
also on the channel level".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.cache import EvaluationCache
from repro.core.generational import GenerationalSearch
from repro.core.objective import EvaluatedArch, Objective
from repro.space.architecture import Architecture
from repro.space.search_space import SearchSpace


@dataclass(frozen=True)
class EvolutionConfig:
    """EA hyper-parameters; defaults match the paper."""

    generations: int = 20
    population_size: int = 50
    num_parents: int = 20
    crossover_prob: float = 0.25
    mutation_prob: float = 0.25
    per_layer_mutation_prob: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.generations < 1 or self.population_size < 2:
            raise ValueError("need >= 1 generation and population >= 2")
        if not 1 <= self.num_parents <= self.population_size:
            raise ValueError("num_parents must be in [1, population_size]")
        for p in (self.crossover_prob, self.mutation_prob, self.per_layer_mutation_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must be in [0, 1]")


@dataclass
class GenerationRecord:
    """Everything evaluated in one generation."""

    index: int
    population: List[EvaluatedArch]

    @property
    def best(self) -> EvaluatedArch:
        return max(self.population, key=lambda e: e.score)

    def latencies(self) -> List[float]:
        return [e.latency_ms for e in self.population]

    def accuracies(self) -> List[float]:
        return [e.accuracy for e in self.population]


@dataclass
class SearchResult:
    """Outcome of one EA run."""

    best: EvaluatedArch
    generations: List[GenerationRecord] = field(default_factory=list)
    num_evaluations: int = 0
    # Hit/miss/size counters of the evaluation cache at the end of the
    # run — how much of the search the memo actually absorbed.
    cache_stats: Optional[dict] = None

    def all_evaluated(self) -> List[EvaluatedArch]:
        return [e for g in self.generations for e in g.population]

    def best_per_generation(self) -> List[EvaluatedArch]:
        return [g.best for g in self.generations]

    # -- (de)serialization (archiving search runs as JSON artifacts) --------

    def to_dict(self) -> dict:
        return {
            "best": self.best.to_dict(),
            "num_evaluations": self.num_evaluations,
            "cache_stats": self.cache_stats,
            "generations": [
                {
                    "index": g.index,
                    "population": [e.to_dict() for e in g.population],
                }
                for g in self.generations
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SearchResult":
        result = cls(best=EvaluatedArch.from_dict(payload["best"]))
        result.num_evaluations = int(payload.get("num_evaluations", 0))
        result.cache_stats = payload.get("cache_stats")
        result.generations = [
            GenerationRecord(
                index=int(g["index"]),
                population=[
                    EvaluatedArch.from_dict(e) for e in g["population"]
                ],
            )
            for g in payload["generations"]
        ]
        return result


class EvolutionarySearch(GenerationalSearch):
    """Regularized-evolution-style search over a :class:`SearchSpace`.

    Each generation keeps the ``num_parents`` best-scoring architectures
    (elitism) and regenerates the rest of the population from them.
    ``objective`` is the Eq. 1 objective and ``config`` the EA
    hyper-parameters; the other parameters, the loop, breeding, cancel
    checks and checkpoints are those of
    :class:`~repro.core.generational.GenerationalSearch`.
    """

    stage = "evolution"

    def __init__(
        self,
        space: SearchSpace,
        objective: Objective,
        config: Optional[EvolutionConfig] = None,
        cache: Optional[EvaluationCache] = None,
        evaluator=None,
        checkpoint=None,
        cancel=None,
    ):
        super().__init__(
            space,
            config if config is not None else EvolutionConfig(),
            cache=cache,
            evaluator=evaluator,
            checkpoint=checkpoint,
            cancel=cancel,
        )
        self.objective = objective
        self._result: Optional[SearchResult] = None

    # -- engine policy -------------------------------------------------------------

    def _score_many(self, archs: List[Architecture]) -> List[EvaluatedArch]:
        return self.objective.evaluate_many(archs)

    def _select(self, population: List[EvaluatedArch]) -> List[EvaluatedArch]:
        ranked = sorted(population, key=lambda e: e.score, reverse=True)
        return ranked[: self.config.num_parents]

    def _record(self, gen: int, population: List[EvaluatedArch]) -> None:
        record = GenerationRecord(gen, population)
        if self._result is None:
            self._result = SearchResult(best=record.best)
        elif record.best.score > self._result.best.score:
            self._result.best = record.best
        self._result.generations.append(record)

    def _state(self) -> dict:
        payload = self._result.to_dict()
        return {"best": payload["best"], "generations": payload["generations"]}

    def _restore(self, saved: dict) -> List[EvaluatedArch]:
        self._result = SearchResult.from_dict(saved)
        return list(self._result.generations[-1].population)

    def run(self) -> SearchResult:
        """Run the EA; deterministic for a fixed config seed.

        Each generation *breeds* first (every rng draw, dedup, and
        containment check — parent-side, sequential) and *evaluates*
        second (one batch). Evaluation consumes no randomness, so the
        reordering leaves the rng stream — and therefore the whole
        run — identical to evaluating each child as it is bred.
        """
        self._result = None
        self._evolve()
        result = self._result
        # Fresh objective evaluations this run — still meaningful when
        # a shared cache arrives pre-warmed.
        result.num_evaluations = self._evaluations()
        result.cache_stats = self.cache.stats()
        return result


class RandomSearch:
    """Uniform random search baseline (the EA ablation comparator)."""

    def __init__(self, space: SearchSpace, objective: Objective, budget: int, seed: int = 0):
        if budget < 1:
            raise ValueError("budget must be >= 1")
        self.space = space
        self.objective = objective
        self.budget = budget
        self.seed = seed

    def run(self) -> SearchResult:
        rng = np.random.default_rng(self.seed)
        evaluated = [
            self.objective.evaluate(self.space.sample(rng))
            for _ in range(self.budget)
        ]
        record = GenerationRecord(0, evaluated)
        return SearchResult(
            best=record.best,
            generations=[record],
            num_evaluations=len(evaluated),
        )
