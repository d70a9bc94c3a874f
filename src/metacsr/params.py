"""Model parameter container with the theta1/theta2 partition.

theta1 holds everything the inner loop must never touch: the inherent
entity embeddings and the per-layer diffusion weights. theta2 holds the
sequence-encoder weights, the only tensors adapted per task (the scorer
is an inner product and has none).
The partition is total and disjoint by construction and checked on load.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import graph, sequence


@dataclass
class ModelConfig:
    dim: int = 32
    diffusion_depth: int = 2
    neighbor_cap: int = 50
    use_diffusion: bool = True     # off: inherent embeddings feed the encoder
    use_sequence: bool = True      # off: preference = mean of window embeddings
    t_min: int = 2
    t_max: int = 10

    def validate(self):
        if self.dim < 1 or self.diffusion_depth < 1 or self.neighbor_cap < 1:
            raise ValueError("model dimensions must be positive")
        if self.t_min < 2 or self.t_max < self.t_min:
            raise ValueError("need 2 <= t_min <= t_max")


@dataclass
class ModelParams:
    theta1: dict[str, np.ndarray]
    theta2: dict[str, np.ndarray]
    config: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self):
        overlap = set(self.theta1) & set(self.theta2)
        if overlap:
            raise ValueError(f"parameters in both partitions: {sorted(overlap)}")

    def clone(self) -> "ModelParams":
        return ModelParams(
            theta1={k: v.copy() for k, v in self.theta1.items()},
            theta2={k: v.copy() for k, v in self.theta2.items()},
            config=self.config,
        )

    @property
    def dim(self) -> int:
        return self.theta1[graph.INHERENT].shape[1]

    @property
    def n_entities(self) -> int:
        return self.theta1[graph.INHERENT].shape[0]


def init_model(n_entities, config, rng) -> ModelParams:
    """Fresh parameters for a fixed entity space.

    Note the full tensor set exists regardless of the ablation switches, so
    ablated and full models share checkpoint shapes.
    """
    config.validate()
    theta1 = graph.init_diffusion_params(
        n_entities, config.dim, config.diffusion_depth, rng)
    theta2 = sequence.init_seq_params(config.dim, rng)
    return ModelParams(theta1=theta1, theta2=theta2, config=config)
