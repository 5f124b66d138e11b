"""``proxy_accuracy_many`` is exact: ``==`` against per-arch scoring.

The batched path extracts features with array reductions and
``arch_flops_many``; the scalar path goes through ``extract_features``
and the primitive-level ``arch_flops``. Both end in the same per-arch
Python-float tail, so any disagreement is a feature-extraction bug.
A literal copy of the original scalar formula pins the tail itself.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accuracy import AccuracySurrogate
from repro.accuracy.features import extract_features
from repro.space import LAYOUT_NAMES, Architecture, space_for_layout

SPACES = {name: space_for_layout(name) for name in LAYOUT_NAMES}
SURROGATES = {
    (name, kind): (
        AccuracySurrogate(space) if kind == "plain"
        else AccuracySurrogate.for_space(space)
    )
    for name, space in SPACES.items()
    for kind in ("plain", "for_space")
}


def reference_proxy_accuracy(surrogate, arch):
    """The scalar surrogate as first written, kept verbatim as a pin."""

    def residual(salt, sigma):
        digest = hashlib.sha256((arch.digest() + salt).encode()).digest()
        seed = int.from_bytes(digest[:8], "little")
        return float(np.random.default_rng(seed).normal(0.0, sigma))

    feats = extract_features(surrogate.space, arch)
    penalty = 0.0
    free_skips = feats.num_layers // 8
    num_skips = feats.num_layers - feats.depth
    if num_skips > free_skips:
        penalty += 0.45 * (num_skips - free_skips) ** 1.3
    if feats.min_factor < 0.3:
        penalty += 8.0 * (0.3 - feats.min_factor)
    penalty += 1.2 * feats.std_factor
    if feats.num_distinct_ops >= 3:
        penalty -= 0.15
    flops = surrogate.space.arch_flops(arch) * surrogate.flops_scale
    error = surrogate.curve.error_at(flops)
    error += penalty
    error += residual("standalone", surrogate.residual_sigma)
    error = float(np.clip(error, 5.0, 95.0)) + surrogate.proxy_gap
    error += residual("proxy", surrogate.proxy_sigma)
    return float(np.clip((100.0 - error) / 100.0, 0.0, 1.0))


def corner_archs(space):
    lo = min(space.config.channel_factors)
    hi = max(space.config.channel_factors)
    n = space.num_layers
    return [
        Architecture.uniform(n, 4, lo),  # all skip, narrowest
        Architecture.uniform(n, 4, hi),  # all skip, widest
        Architecture.uniform(n, 2, lo),  # min factor everywhere
        Architecture((4,) * (n - 1) + (0,), (hi,) * (n - 1) + (lo,)),
    ]


@st.composite
def batches(draw):
    """(layout, surrogate kind, archs) with archs drawn from the full
    space or a ``fix_operator``-shrunk one, plus corner cases."""
    layout = draw(st.sampled_from(LAYOUT_NAMES))
    kind = draw(st.sampled_from(("plain", "for_space")))
    space = SPACES[layout]
    for _ in range(draw(st.integers(0, 3))):
        layer = draw(st.integers(0, space.num_layers - 1))
        space = space.fix_operator(layer, draw(st.sampled_from(space.candidate_ops[layer])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    archs = space.sample_many(rng, draw(st.integers(0, 16)))
    if draw(st.booleans()):
        archs += corner_archs(SPACES[layout])
    return layout, kind, archs


class TestProxyAccuracyMany:
    @settings(max_examples=40, deadline=None)
    @given(batch=batches())
    def test_matches_scalar(self, batch):
        layout, kind, archs = batch
        surrogate = SURROGATES[(layout, kind)]
        assert surrogate.proxy_accuracy_many(archs) == [
            surrogate.proxy_accuracy(a) for a in archs
        ]

    @pytest.mark.parametrize("layout", LAYOUT_NAMES)
    @pytest.mark.parametrize("kind", ("plain", "for_space"))
    def test_corners_and_samples(self, layout, kind):
        surrogate = SURROGATES[(layout, kind)]
        space = SPACES[layout]
        archs = corner_archs(space) + space.sample_many(np.random.default_rng(9), 60)
        scalar = [surrogate.proxy_accuracy(a) for a in archs]
        assert surrogate.proxy_accuracy_many(archs) == scalar
        assert scalar == [reference_proxy_accuracy(surrogate, a) for a in archs]

    def test_empty_batch(self):
        assert SURROGATES[("a", "plain")].proxy_accuracy_many([]) == []

    def test_layer_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            SURROGATES[("a", "plain")].proxy_accuracy_many([Architecture.uniform(3)])
