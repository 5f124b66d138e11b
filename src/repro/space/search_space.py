"""The search space ``A`` and its shrinkable subspaces.

A :class:`SearchSpace` tracks, for every layer, the candidate operator
indices and channel factors that remain available. Progressive space
shrinking (paper Sec. III-C) produces smaller spaces by fixing a single
operator for a layer; the EA then samples and mutates strictly inside
the shrunk space.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.layers.mask import channels_kept
from repro.space.architecture import Architecture
from repro.space.config import SpaceConfig
from repro.space.geometry import LayerGeometry, build_layer_geometry
from repro.space.operators import (
    NUM_OPERATORS,
    Primitive,
    get_operator,
    operators,
)

_DTYPE_BYTES = 4


class SearchSpace:
    """Candidate sets per layer plus the analytic cost model.

    Parameters
    ----------
    config:
        The space definition (stage plan, factors, resolution).
    candidate_ops:
        Optional per-layer operator candidate lists; defaults to all K
        operators for every layer.
    candidate_factors:
        Optional per-layer factor candidate lists; defaults to the
        config's full factor set everywhere.
    """

    def __init__(
        self,
        config: SpaceConfig,
        candidate_ops: Optional[Sequence[Sequence[int]]] = None,
        candidate_factors: Optional[Sequence[Sequence[float]]] = None,
    ):
        self.config = config
        self.geometry: List[LayerGeometry] = build_layer_geometry(config)
        num_layers = config.num_layers

        if candidate_ops is None:
            candidate_ops = [list(range(NUM_OPERATORS))] * num_layers
        if candidate_factors is None:
            candidate_factors = [list(config.channel_factors)] * num_layers
        if len(candidate_ops) != num_layers or len(candidate_factors) != num_layers:
            raise ValueError("candidate lists must have one entry per layer")

        self.candidate_ops: List[Tuple[int, ...]] = []
        for layer, ops in enumerate(candidate_ops):
            ops = tuple(sorted(set(int(o) for o in ops)))
            if not ops:
                raise ValueError(f"layer {layer} has no candidate operators")
            for o in ops:
                if not 0 <= o < NUM_OPERATORS:
                    raise ValueError(f"operator index {o} out of range")
            self.candidate_ops.append(ops)

        self.candidate_factors: List[Tuple[float, ...]] = []
        for layer, factors in enumerate(candidate_factors):
            factors = tuple(sorted(set(float(f) for f in factors)))
            if not factors:
                raise ValueError(f"layer {layer} has no candidate factors")
            self.candidate_factors.append(factors)

        # Padded candidate tables and the per-draw candidate counts
        # (ops of every layer, then factors) that ``sample_many`` uses.
        draws = self.candidate_ops + self.candidate_factors
        width = max(len(c) for c in draws)
        self._draw_counts = np.array([len(c) for c in draws], dtype=np.int64)
        self._op_table = np.array(
            [c + (0,) * (width - len(c)) for c in self.candidate_ops]
        )
        self._factor_table = np.array(
            [c + (1.0,) * (width - len(c)) for c in self.candidate_factors]
        )

        # Per-layer MACs keyed on the *actual* ``(layer, op, cin, cout)``
        # (a stride-1 skip can narrow the next layer's input below its
        # factor's width), filled lazily by ``OperatorSpec.flops``.
        # Shrunk spaces share it: it depends on the geometry only.
        self._layer_macs: Dict[Tuple[int, int, int, int], float] = {}

    # -- basic properties -----------------------------------------------------

    @property
    def num_layers(self) -> int:
        return self.config.num_layers

    def space_size(self) -> float:
        """|A| — the number of distinct architectures (may exceed float64
        integer precision; returned as float, e.g. ``9.5e33``)."""
        size = 1.0
        for ops, factors in zip(self.candidate_ops, self.candidate_factors):
            size *= len(ops) * len(factors)
        return size

    def log10_size(self) -> float:
        """log10 |A| — used to verify the 3-orders-per-stage shrinking claim."""
        total = 0.0
        for ops, factors in zip(self.candidate_ops, self.candidate_factors):
            total += math.log10(len(ops) * len(factors))
        return total

    def contains(self, arch: Architecture) -> bool:
        """Whether ``arch`` lies inside this (possibly shrunk) space."""
        if arch.num_layers != self.num_layers:
            return False
        for layer, (op, factor) in enumerate(zip(arch.ops, arch.factors)):
            if op not in self.candidate_ops[layer]:
                return False
            if not any(
                abs(factor - f) < 1e-9 for f in self.candidate_factors[layer]
            ):
                return False
        return True

    # -- sampling ----------------------------------------------------------------

    def sample(self, rng: np.random.Generator) -> Architecture:
        """Uniformly sample one architecture from the space."""
        return self.sample_many(rng, 1)[0]

    def sample_many(self, rng: np.random.Generator, n: int) -> List[Architecture]:
        """``n`` uniform samples, identical to ``n`` :meth:`sample` calls.

        One ``rng.integers`` call draws every candidate index: per
        sample, each layer's operator, then each layer's factor. That is
        the draw order of a per-layer ``rng.choice`` loop, so batching
        changes neither the architectures nor the generator's final
        state.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        if n == 0:
            return []
        num_layers = self.num_layers
        picks = rng.integers(0, np.tile(self._draw_counts, n)).reshape(n, -1)
        layers = np.arange(num_layers)
        op_rows = self._op_table[layers, picks[:, :num_layers]].tolist()
        factor_rows = self._factor_table[layers, picks[:, num_layers:]].tolist()
        return [
            Architecture(tuple(o), tuple(f))
            for o, f in zip(op_rows, factor_rows)
        ]

    def max_architecture(self) -> Architecture:
        """The largest architecture (first op candidates, factor 1.0-ish)."""
        ops = tuple(cands[0] for cands in self.candidate_ops)
        factors = tuple(max(cands) for cands in self.candidate_factors)
        return Architecture(ops, factors)

    # -- shrinking -------------------------------------------------------------

    def fix_operator(self, layer: int, op_index: int) -> "SearchSpace":
        """Return a new space with layer ``layer`` pinned to ``op_index``."""
        if not 0 <= layer < self.num_layers:
            raise IndexError(f"layer {layer} out of range")
        if op_index not in self.candidate_ops[layer]:
            raise ValueError(
                f"operator {op_index} is not a candidate for layer {layer}"
            )
        ops = [list(c) for c in self.candidate_ops]
        ops[layer] = [op_index]
        shrunk = SearchSpace(self.config, ops, self.candidate_factors)
        shrunk._layer_macs = self._layer_macs
        return shrunk

    def restrict_to_operator_subspace(self, layer: int, op_index: int) -> "SearchSpace":
        """The subspace used when *evaluating* candidate ``op_index`` for a
        layer during progressive shrinking — identical to
        :meth:`fix_operator` but kept as a distinct name to mirror the
        paper's procedure (sample-from-subspace vs. commit)."""
        return self.fix_operator(layer, op_index)

    def fixed_layers(self) -> Dict[int, int]:
        """Layers whose operator is already pinned: ``{layer: op_index}``."""
        return {
            layer: ops[0]
            for layer, ops in enumerate(self.candidate_ops)
            if len(ops) == 1
        }

    # -- analytic costs --------------------------------------------------------

    def active_channels(self, arch: Architecture) -> List[Tuple[int, int]]:
        """Active (in, out) channel counts per layer under channel scaling.

        The active output of layer ``l`` is ``round(S^l * c^l)`` (at
        least 1); the active input is the previous layer's active output
        (the stem provides full channels to layer 0). A stride-1 skip is
        an identity: its mask can only *remove* channels, so its active
        output is ``min(active_in, round(S^l * c^l))``.
        """
        self._check_arch(arch)
        result: List[Tuple[int, int]] = []
        cin = self.config.stem_channels
        for geom, op_idx, factor in zip(self.geometry, arch.ops, arch.factors):
            cout = channels_kept(geom.max_out_channels, factor)
            op = get_operator(op_idx)
            if op.is_skip and geom.stride == 1:
                cout = min(cin, cout)
            result.append((cin, cout))
            cin = cout
        return result

    def arch_primitives(self, arch: Architecture) -> List[List[Primitive]]:
        """Per-layer primitive lists (searchable layers only).

        The stem/head primitives are provided separately by
        :meth:`stem_head_primitives` because the latency LUT (paper
        Eq. 2) is built over the searchable operators while stem/head
        cost is part of the bias term's measured end-to-end latency.
        """
        self._check_arch(arch)
        channels = self.active_channels(arch)
        out: List[List[Primitive]] = []
        for geom, op_idx, (cin, cout) in zip(self.geometry, arch.ops, channels):
            op = get_operator(op_idx)
            out.append(op.primitives(cin, cout, geom.in_size, geom.stride))
        return out

    def stem_primitives(self) -> List[Primitive]:
        """Primitives of the fixed stem convolution."""
        cfg = self.config
        s_in = cfg.input_size
        s_stem = s_in // 2
        stem = Primitive(
            name="stem-conv3x3",
            kind="conv",
            flops=float(s_stem * s_stem * cfg.input_channels * cfg.stem_channels * 9),
            bytes_read=float(
                (s_in * s_in * cfg.input_channels
                 + cfg.input_channels * cfg.stem_channels * 9) * _DTYPE_BYTES
            ),
            bytes_written=float(s_stem * s_stem * cfg.stem_channels * _DTYPE_BYTES),
        )
        return [stem]

    def head_primitives(self, last_c: int) -> List[Primitive]:
        """Primitives of the classifier head for a given input width."""
        cfg = self.config
        s_out = self.geometry[-1].out_size
        head_conv = Primitive(
            name="head-conv1x1",
            kind="conv",
            flops=float(s_out * s_out * last_c * cfg.head_channels),
            bytes_read=float(
                (s_out * s_out * last_c + last_c * cfg.head_channels) * _DTYPE_BYTES
            ),
            bytes_written=float(s_out * s_out * cfg.head_channels * _DTYPE_BYTES),
        )
        gap = Primitive(
            name="head-gap",
            kind="memory",
            flops=0.0,
            bytes_read=float(s_out * s_out * cfg.head_channels * _DTYPE_BYTES),
            bytes_written=float(cfg.head_channels * _DTYPE_BYTES),
        )
        fc = Primitive(
            name="head-fc",
            kind="conv",
            flops=float(cfg.head_channels * cfg.num_classes),
            bytes_read=float(
                (cfg.head_channels + cfg.head_channels * cfg.num_classes) * _DTYPE_BYTES
            ),
            bytes_written=float(cfg.num_classes * _DTYPE_BYTES),
        )
        return [head_conv, gap, fc]

    def stem_head_primitives(self, arch: Architecture) -> List[Primitive]:
        """Stem + head primitives for an architecture (head input width
        follows the last layer's active channels)."""
        last_c = self.active_channels(arch)[-1][1]
        return self.stem_primitives() + self.head_primitives(last_c)

    def arch_flops(self, arch: Architecture) -> float:
        """Total MACs including stem and head."""
        total = sum(
            p.flops for layer in self.arch_primitives(arch) for p in layer
        )
        total += sum(p.flops for p in self.stem_head_primitives(arch))
        return total

    def arch_flops_many(self, archs: Sequence[Architecture]) -> np.ndarray:
        """:meth:`arch_flops` for a batch, as a float64 array.

        Active channels follow :meth:`active_channels` layer by layer
        across the whole batch; each layer's MACs come from
        ``OperatorSpec.flops`` (memoized on the actual channel counts)
        and the head's from :meth:`head_primitives`. Every term is an
        integer-valued float far below 2**53, so the sums are exact in
        any order and equal the scalar results.
        """
        archs = list(archs)
        for arch in archs:
            self._check_arch(arch)
        if not archs:
            return np.zeros(0)
        ops = np.array([a.ops for a in archs], dtype=np.int64)
        factors = np.array([a.factors for a in archs], dtype=np.float64)
        skip = np.array([op.is_skip for op in operators()])[ops]
        macs = np.empty(ops.shape)
        cin = np.full(len(archs), self.config.stem_channels, dtype=np.int64)
        for layer, geom in enumerate(self.geometry):
            # channels_kept, vectorized: round half up, clamp to [1, max].
            kept = np.floor(geom.max_out_channels * factors[:, layer] + 0.5)
            cout = np.clip(kept, 1, geom.max_out_channels).astype(np.int64)
            if geom.stride == 1:
                cout = np.where(skip[:, layer], np.minimum(cin, cout), cout)
            macs[:, layer] = [
                self._layer_flops(layer, op, c_in, c_out)
                for op, c_in, c_out in zip(
                    ops[:, layer].tolist(), cin.tolist(), cout.tolist()
                )
            ]
            cin = cout
        stem = sum(p.flops for p in self.stem_primitives())
        head = {
            c: sum(p.flops for p in self.head_primitives(c))
            for c in set(cin.tolist())
        }
        ends = np.array([head[c] for c in cin.tolist()]) + stem
        return macs.sum(axis=1) + ends

    def arch_params(self, arch: Architecture) -> float:
        """Total weight count including stem and head."""
        self._check_arch(arch)
        cfg = self.config
        channels = self.active_channels(arch)
        total = float(cfg.input_channels * cfg.stem_channels * 9)
        for geom, op_idx, (cin, cout) in zip(self.geometry, arch.ops, channels):
            total += get_operator(op_idx).params(cin, cout, geom.stride)
        last_c = channels[-1][1]
        total += float(last_c * cfg.head_channels)
        total += float(cfg.head_channels * cfg.num_classes + cfg.num_classes)
        return total

    # -- internals ------------------------------------------------------------

    def _layer_flops(self, layer: int, op: int, cin: int, cout: int) -> float:
        key = (layer, op, cin, cout)
        value = self._layer_macs.get(key)
        if value is None:
            geom = self.geometry[layer]
            value = get_operator(op).flops(cin, cout, geom.in_size, geom.stride)
            self._layer_macs[key] = value
        return value

    def _check_arch(self, arch: Architecture) -> None:
        if arch.num_layers != self.num_layers:
            raise ValueError(
                f"architecture has {arch.num_layers} layers; "
                f"space expects {self.num_layers}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SearchSpace(config={self.config.name!r}, "
            f"layers={self.num_layers}, log10|A|={self.log10_size():.1f})"
        )
