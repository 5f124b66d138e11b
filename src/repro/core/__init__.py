"""HSCoNAS core — the paper's primary contribution.

* :class:`~repro.core.objective.Objective` — the multi-objective score
  ``F(arch, T) = ACC(arch) + beta * |LAT(arch)/T - 1|`` (Eq. 1).
* :class:`~repro.core.quality.SubspaceQuality` — ``Q(A_sub)`` via N
  uniform samples (Eq. 4).
* :class:`~repro.core.shrinking.ProgressiveSpaceShrinking` — the staged
  layer-by-layer operator fixing of Sec. III-C.
* :class:`~repro.core.evolution.EvolutionarySearch` — the EA of
  Sec. III-D (20 generations, population 50, 20 parents, crossover and
  mutation probability 0.25), on the generation loop of
  :class:`~repro.core.generational.GenerationalSearch` that the NSGA-II
  front search shares.
* :class:`~repro.core.search.HSCoNAS` — the end-to-end pipeline gluing
  hardware modeling, channel scaling, shrinking, and the EA together.
"""

from repro.core.cache import EvaluationCache
from repro.core.objective import EvaluatedArch, Objective
from repro.core.quality import SubspaceQuality
from repro.core.shrinking import (
    JointShrinking,
    ProgressiveSpaceShrinking,
    ShrinkDecision,
    ShrinkResult,
)
from repro.core.evolution import (
    EvolutionConfig,
    EvolutionarySearch,
    RandomSearch,
    SearchResult,
)
from repro.core.multi_constraint import MultiConstraintObjective
from repro.core.nsga2 import BiObjective, Nsga2Config, Nsga2Result, Nsga2Search
from repro.core.reinforce import ReinforceConfig, ReinforceSearch
from repro.core.channel_scaling import (
    best_uniform_factor,
    greedy_fit_factors,
    uniform_scaled,
)
from repro.core.search import HSCoNAS, HSCoNASConfig, HSCoNASResult

__all__ = [
    "EvaluationCache",
    "Objective",
    "EvaluatedArch",
    "SubspaceQuality",
    "ProgressiveSpaceShrinking",
    "JointShrinking",
    "ShrinkDecision",
    "ShrinkResult",
    "EvolutionConfig",
    "EvolutionarySearch",
    "RandomSearch",
    "SearchResult",
    "MultiConstraintObjective",
    "BiObjective",
    "Nsga2Config",
    "Nsga2Result",
    "Nsga2Search",
    "ReinforceConfig",
    "ReinforceSearch",
    "uniform_scaled",
    "best_uniform_factor",
    "greedy_fit_factors",
    "HSCoNAS",
    "HSCoNASConfig",
    "HSCoNASResult",
]
