"""The generation loop the EA and NSGA-II share.

* both engines report ``generations_done`` as generations scored;
* checkpoints written by an earlier build still resume to the same
  result, and the current build writes the same payload at the same
  point (fixtures in ``tests/core/fixtures``);
* NSGA-II's sorting and crowding match their definitions on random
  point sets, ties included.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import EvaluationCache
from repro.core.nsga2 import BiObjective, crowding_distance, non_dominated_sort
from repro.core.objective import EvaluatedArch
from repro.resilience import CancelToken, DeadlineExceeded
from repro.runstate import MemoryCheckpoint
from repro.space.architecture import Architecture

from tests.core.fixtures import make_checkpoints

DECODE = {"ea": EvaluatedArch.from_dict, "nsga2": BiObjective.from_dict}
STAGE = {"ea": "evolution", "nsga2": "nsga2"}


def _fixture(engine):
    return json.loads(make_checkpoints.fixture_path(engine).read_text())


class TestGenerationsDone:
    @pytest.mark.parametrize("engine", sorted(make_checkpoints.ENGINES))
    def test_first_in_loop_check_reports_one_generation(
        self, engine, proxy_space
    ):
        """Expire the token at the first check after the initial
        population is scored: one generation is done."""
        token = CancelToken()
        original_check = token.check
        generation_checks = []

        def check(**progress):
            if "generations_done" in progress:
                generation_checks.append(progress)
                if len(generation_checks) == 2:
                    token.cancel()
            original_check(**progress)

        token.check = check
        build, _ = make_checkpoints.ENGINES[engine]
        search = build(proxy_space, cancel=token)
        with pytest.raises(DeadlineExceeded) as excinfo:
            search.run()
        progress = excinfo.value.progress
        assert progress["stage"] == STAGE[engine]
        assert progress["generations_done"] == 1
        assert progress["evaluations"] == search.config.population_size


class TestCheckpointFixtures:
    @pytest.mark.parametrize("engine", sorted(make_checkpoints.ENGINES))
    def test_writes_the_recorded_payload(self, engine):
        expected = make_checkpoints.fixture_path(engine).read_text()
        assert make_checkpoints.render(engine) == expected

    @pytest.mark.parametrize("engine", sorted(make_checkpoints.ENGINES))
    def test_resumes_from_the_recorded_payload(self, engine, proxy_space):
        fixture = _fixture(engine)
        cache = EvaluationCache()
        cache.restore(fixture["cache"], DECODE[engine])
        checkpoint = MemoryCheckpoint()
        checkpoint.payload = fixture["payload"]
        build, outcome = make_checkpoints.ENGINES[engine]
        result = build(proxy_space, cache=cache, checkpoint=checkpoint).run()
        assert json.loads(json.dumps(outcome(result))) == fixture["result"]
        assert checkpoint.complete


# Small integer grids make ties (equal latency, equal accuracy, or
# identical points) common.
POINT_SETS = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=14
)
ARCH = Architecture.uniform(2, op_index=0, factor=1.0)


def _points(pairs):
    return [BiObjective(ARCH, float(lat), float(acc)) for lat, acc in pairs]


def _brute_force_layers(points):
    """Peel off, repeatedly, the points nothing remaining dominates."""
    remaining = set(range(len(points)))
    layers = []
    while remaining:
        layer = {
            i for i in remaining
            if not any(points[j].dominates(points[i]) for j in remaining)
        }
        layers.append(sorted(layer))
        remaining -= layer
    return layers


class TestNsga2Properties:
    @settings(max_examples=200, deadline=None)
    @given(POINT_SETS)
    def test_non_dominated_sort_matches_brute_force(self, pairs):
        points = _points(pairs)
        fronts = non_dominated_sort(points)
        assert [sorted(f) for f in fronts] == _brute_force_layers(points)

    @settings(max_examples=200, deadline=None)
    @given(POINT_SETS)
    def test_crowding_distance_extreme_point_rule(self, pairs):
        points = _points(pairs)
        for front in non_dominated_sort(points):
            distance = crowding_distance(points, front)
            assert set(distance) == set(front)
            if len(front) <= 2:
                assert all(d == float("inf") for d in distance.values())
                continue
            infinite = {i for i in front if distance[i] == float("inf")}
            extremes = {}
            for key in ("latency_ms", "accuracy"):
                values = [getattr(points[i], key) for i in front]
                extremes[key] = (min(values), max(values))
            # Each objective's lowest and highest value is held by an
            # infinite-distance member, and only extremes are infinite.
            for key, ends in extremes.items():
                for end in ends:
                    assert any(getattr(points[i], key) == end for i in infinite)
            for i in infinite:
                assert any(
                    getattr(points[i], key) in ends
                    for key, ends in extremes.items()
                )
            for i in set(front) - infinite:
                assert 0.0 <= distance[i] <= 2.0
