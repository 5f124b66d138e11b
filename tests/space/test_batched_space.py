"""Batched sampling and FLOPs are exact: ``==`` against the scalar paths.

``sample_many`` is checked against both ``n`` :meth:`SearchSpace.sample`
calls and a per-layer ``rng.choice`` loop (the historical one-at-a-time
sampler), including the generator state left behind; ``arch_flops_many``
against the primitive-by-primitive :meth:`SearchSpace.arch_flops`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.space import LAYOUT_NAMES, Architecture, SearchSpace, space_for_layout

FULL = {name: space_for_layout(name) for name in LAYOUT_NAMES}


def choice_loop_sample(space, rng):
    """One architecture the way the original scalar sampler drew it."""
    ops = tuple(int(rng.choice(c)) for c in space.candidate_ops)
    factors = tuple(float(rng.choice(c)) for c in space.candidate_factors)
    return Architecture(ops, factors)


@st.composite
def spaces(draw):
    """A layout's space with random non-empty candidate subsets per layer
    (often a single candidate, as after shrinking), with the full space."""
    full = FULL[draw(st.sampled_from(LAYOUT_NAMES))]
    ops = [
        draw(st.lists(st.sampled_from(c), min_size=1, max_size=2, unique=True))
        if draw(st.booleans())
        else list(c)
        for c in full.candidate_ops
    ]
    factors = [
        draw(st.lists(st.sampled_from(c), min_size=1, max_size=3, unique=True))
        if draw(st.booleans())
        else list(c)
        for c in full.candidate_factors
    ]
    return full, SearchSpace(full.config, ops, factors)


class TestSampleMany:
    @settings(max_examples=40, deadline=None)
    @given(spaces=spaces(), seed=st.integers(0, 2**32 - 1), n=st.integers(0, 12))
    def test_matches_scalar_and_choice_loop(self, spaces, seed, n):
        _, space = spaces
        batched_rng = np.random.default_rng(seed)
        scalar_rng = np.random.default_rng(seed)
        choice_rng = np.random.default_rng(seed)
        batched = space.sample_many(batched_rng, n)
        assert batched == [space.sample(scalar_rng) for _ in range(n)]
        assert batched == [choice_loop_sample(space, choice_rng) for _ in range(n)]
        state = batched_rng.bit_generator.state
        assert state == scalar_rng.bit_generator.state
        assert state == choice_rng.bit_generator.state
        assert all(space.contains(a) for a in batched)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_fix_operator_shrunk_space(self, seed):
        space = FULL["a"].fix_operator(0, 4).fix_operator(7, 2)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert space.sample_many(rng, 30) == [
            choice_loop_sample(space, ref) for _ in range(30)
        ]
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_single_candidate_everywhere_draws_nothing(self):
        full = FULL["proxy"]
        space = SearchSpace(
            full.config,
            [[c[0]] for c in full.candidate_ops],
            [[c[-1]] for c in full.candidate_factors],
        )
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        archs = space.sample_many(rng, 4)
        assert len(set(archs)) == 1
        assert rng.bit_generator.state == before

    def test_negative_n_raises(self):
        with pytest.raises(ValueError):
            FULL["proxy"].sample_many(np.random.default_rng(0), -1)


class TestArchFlopsMany:
    @settings(max_examples=40, deadline=None)
    @given(spaces=spaces(), seed=st.integers(0, 2**32 - 1), n=st.integers(0, 12))
    def test_matches_scalar(self, spaces, seed, n):
        full, space = spaces
        archs = space.sample_many(np.random.default_rng(seed), n)
        assert space.arch_flops_many(archs).tolist() == [
            space.arch_flops(a) for a in archs
        ]
        assert full.arch_flops_many(archs).tolist() == [
            full.arch_flops(a) for a in archs
        ]

    @pytest.mark.parametrize("layout", LAYOUT_NAMES)
    def test_skip_and_min_factor_corners(self, layout):
        space = FULL[layout]
        lo, hi = min(space.config.channel_factors), max(space.config.channel_factors)
        n = space.num_layers
        archs = [
            Architecture.uniform(n, 4, lo),
            Architecture.uniform(n, 4, hi),
            Architecture.uniform(n, 0, lo),
            # A narrow skip followed by a wide skip: the wide layer's
            # input (and so its own output) is capped by the narrow one.
            Architecture((4,) * n, tuple(lo if i % 2 else hi for i in range(n))),
            Architecture((3, 4) * (n // 2) + (1,) * (n % 2), (lo,) * n),
        ]
        assert space.arch_flops_many(archs).tolist() == [
            space.arch_flops(a) for a in archs
        ]

    def test_empty_batch(self):
        assert FULL["a"].arch_flops_many([]).tolist() == []

    def test_layer_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            FULL["a"].arch_flops_many([Architecture.uniform(3)])
