"""Write the mid-run EA and NSGA-II checkpoint fixtures.

Each fixture holds one search's checkpoint payload as written after
save number ``SAVE_INDEX``, the evaluation cache at that moment, and
the search's final, uninterrupted result. ``tests/core/
test_generational.py`` resumes from the payload and must reach the
same result, so fixtures written by an older build pin checkpoint
compatibility across versions. Regenerate (only when the checkpoint
format changes on purpose) from the repository root::

    PYTHONPATH=src python -m tests.core.fixtures.make_checkpoints
"""

import json
from pathlib import Path

from repro.core import (
    EvolutionConfig,
    EvolutionarySearch,
    Nsga2Config,
    Nsga2Search,
    Objective,
)
from repro.core.cache import EvaluationCache
from repro.runstate import MemoryCheckpoint
from repro.runstate.atomic import atomic_write_text
from repro.space import SearchSpace
from repro.space.config import proxy

FIXTURES = Path(__file__).parent
SAVE_INDEX = 3


class RecordingCheckpoint(MemoryCheckpoint):
    """Keeps every saved payload with a snapshot of the cache beside it."""

    def __init__(self, cache, encode):
        super().__init__()
        self.cache = cache
        self.encode = encode
        self.history = []

    def save(self, payload, complete=False):
        super().save(payload, complete=complete)
        self.history.append((self.payload, self.cache.snapshot(self.encode)))


def ea_search(space, **kwargs):
    objective = Objective(
        accuracy_fn=lambda a: min(1.0, (space.arch_flops(a) / 2.5e5) ** 0.5),
        latency_fn=lambda a: space.arch_flops(a) / 1e4,
        target_ms=15.0,
        beta=-0.5,
    )
    return EvolutionarySearch(
        space,
        objective,
        EvolutionConfig(generations=5, population_size=8, num_parents=4, seed=5),
        **kwargs,
    )


def nsga2_search(space, **kwargs):
    return Nsga2Search(
        space,
        accuracy_fn=lambda a: space.arch_flops(a) / 3e5,
        latency_fn=lambda a: space.arch_flops(a) / 1e4,
        config=Nsga2Config(generations=5, population_size=8, seed=2),
        **kwargs,
    )


def ea_outcome(result) -> dict:
    return result.to_dict()


def nsga2_outcome(result) -> dict:
    return {
        "front": [p.to_dict() for p in result.front],
        "population": [p.to_dict() for p in result.population],
        "num_evaluations": result.num_evaluations,
    }


ENGINES = {
    "ea": (ea_search, ea_outcome),
    "nsga2": (nsga2_search, nsga2_outcome),
}


def record(engine: str) -> dict:
    """One engine's fixture, computed by the code on the import path."""
    build, outcome = ENGINES[engine]
    space = SearchSpace(proxy())
    cache = EvaluationCache()
    checkpoint = RecordingCheckpoint(cache, lambda value: value.to_dict())
    result = build(space, cache=cache, checkpoint=checkpoint).run()
    payload, cache_snapshot = checkpoint.history[SAVE_INDEX - 1]
    return {
        "save_index": SAVE_INDEX,
        "payload": payload,
        "cache": cache_snapshot,
        "result": json.loads(json.dumps(outcome(result))),
    }


def render(engine: str) -> str:
    """The fixture file's exact text (key order included: checkpoint
    files are written unsorted)."""
    return json.dumps(record(engine), indent=1) + "\n"


def fixture_path(engine: str) -> Path:
    return FIXTURES / f"{engine}_checkpoint.json"


def main() -> None:
    for engine in ENGINES:
        atomic_write_text(fixture_path(engine), render(engine))
        print(f"wrote {fixture_path(engine)}")


if __name__ == "__main__":
    main()
