"""Minimal dense-network kernel: linear layers, tanh, exact backprop, Adam.

Just enough machinery for a small autoencoder. All arithmetic is float64.
Layers operate on single vectors (d,) or batches (n, d); gradients returned
by the backward pass are exact analytic derivatives of whatever scalar the
upstream gradient differentiates, summed over the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("tanh", "identity")
# Adam's moment decay rates and denominator guard (Kingma & Ba 2015 defaults)
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass
class DenseLayer:
    """Fully connected layer: y = act(W x + b), W is (out, in)."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.ndim != 1:
            raise ValueError("weights must be 2-D and bias 1-D")
        if self.weights.shape[0] != self.bias.shape[0]:
            raise ValueError(
                f"bias length {self.bias.shape[0]} does not match"
                f" output dim {self.weights.shape[0]}"
            )
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise ValueError("layer parameters must be finite")

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    @classmethod
    def glorot(cls, out_dim: int, in_dim: int, rng: np.random.Generator) -> "DenseLayer":
        """Uniform init in +-sqrt(6/(fan_in+fan_out)); bias starts at zero."""
        limit = np.sqrt(6.0 / (in_dim + out_dim))
        w = rng.uniform(-limit, limit, size=(out_dim, in_dim))
        return cls(weights=w, bias=np.zeros(out_dim))


def forward(layer: DenseLayer, x: np.ndarray, activation: str = "identity") -> np.ndarray:
    """Apply act(W x + b); x may be a vector (in,) or a batch (n, in)."""
    if activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != layer.in_dim:
        raise ValueError(
            f"input dim {x.shape[-1]} does not match layer in-dim {layer.in_dim}"
        )
    pre = x @ layer.weights.T + layer.bias
    return np.tanh(pre) if activation == "tanh" else pre


class Mlp:
    """A stack of dense layers with per-layer activations."""

    def __init__(self, layers: list[DenseLayer], activations: list[str]):
        if len(layers) != len(activations):
            raise ValueError("need one activation per layer")
        for act in activations:
            if act not in ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")
        for prev, nxt in zip(layers, layers[1:]):
            if prev.out_dim != nxt.in_dim:
                raise ValueError(
                    f"layer dims do not chain: {prev.out_dim} -> {nxt.in_dim}"
                )
        self.layers = layers
        self.activations = activations

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer, act in zip(self.layers, self.activations):
            x = forward(layer, x, act)
        return x

    def forward_cached(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Forward pass that also returns the activations backward needs:
        the input followed by each layer's output."""
        acts = [np.atleast_2d(np.asarray(x, dtype=np.float64))]
        for layer, act in zip(self.layers, self.activations):
            acts.append(forward(layer, acts[-1], act))
        return acts[-1], acts

    def backward(
        self, acts: list[np.ndarray] | None, upstream: np.ndarray
    ) -> tuple[list[np.ndarray], np.ndarray]:
        """Backpropagate upstream = dL/d(output), shape (n, out).

        Returns the parameter gradients (summed over the batch), ordered like
        parameters(), and dL/d(input). Requires the activations of a
        preceding forward_cached call.
        """
        if acts is None or len(acts) != len(self.layers) + 1:
            raise ValueError("backward requires the activations of a forward pass")
        g = np.atleast_2d(np.asarray(upstream, dtype=np.float64))
        grads: list[np.ndarray] = []
        for i in range(len(self.layers) - 1, -1, -1):
            out = acts[i + 1]
            g_pre = g * (1.0 - out**2) if self.activations[i] == "tanh" else g
            grads += (g_pre.sum(axis=0), g_pre.T @ acts[i])
            g = g_pre @ self.layers[i].weights
        return grads[::-1], g

    def parameters(self) -> list[np.ndarray]:
        return parameters(self.layers)


def parameters(layers: list[DenseLayer]) -> list[np.ndarray]:
    """Each layer's weights then bias, in layer order."""
    return [p for layer in layers for p in (layer.weights, layer.bias)]


@dataclass
class AdamState:
    """Adam optimizer state for one flat parameter vector."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    lr: float = 1e-3
    step_count: int = 0

    @classmethod
    def for_params(cls, params: np.ndarray, lr: float = 1e-3) -> "AdamState":
        return cls(np.zeros_like(params), np.zeros_like(params), lr=lr)


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray) -> None:
    """One bias-corrected Adam update (Kingma & Ba 2015), in place on the
    flat params vector and the state."""
    if params.shape != grads.shape or params.shape != state.first_moment.shape:
        raise ValueError(
            f"shape mismatch: params {params.shape}, grads {grads.shape},"
            f" moments {state.first_moment.shape}"
        )
    state.step_count += 1
    bc1 = 1.0 - BETA1**state.step_count
    bc2 = 1.0 - BETA2**state.step_count
    m, v = state.first_moment, state.second_moment
    m *= BETA1
    m += (1.0 - BETA1) * grads
    v *= BETA2
    v += (1.0 - BETA2) * grads**2
    params -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + EPSILON)
