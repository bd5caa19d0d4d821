"""Dense-network kernel of the VAE: tanh layers, exact backprop, Adam.

The encoder trunk and the decoder are each an :class:`Mlp`, a fixed chain of
dense layers y = tanh(x W^T + b) whose last layer is the identity when
``linear_output`` is set. Every (W, b) pair is a view of the model's one flat
parameter vector, so an in-place Adam step on that vector updates the
layers. All arithmetic is float64 on (n, d) batches; the backward pass
returns exact analytic derivatives of whatever scalar the upstream gradient
differentiates, summed over the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Adam's moment decay rates and denominator guard (Kingma & Ba 2015 defaults)
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


def _dense(x: np.ndarray, w: np.ndarray, b: np.ndarray, tanh: bool) -> np.ndarray:
    pre = x @ w.T
    pre += b
    if tanh:
        np.tanh(pre, out=pre)
    return pre


class Mlp:
    """Dense layers over (W, b) pairs, W (out, in): tanh after every layer,
    except an identity last layer when ``linear_output`` is set."""

    def __init__(self, layers: list[tuple[np.ndarray, np.ndarray]], linear_output: bool):
        self.layers = layers
        self.linear_output = linear_output
        self._tanh = [True] * (len(layers) - 1) + [not linear_output]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Output for an (n, in) float64 batch."""
        for (w, b), tanh in zip(self.layers, self._tanh):
            x = _dense(x, w, b, tanh)
        return x

    def forward_into(self, x: np.ndarray, outputs: list[np.ndarray],
                     biases: list[np.ndarray]) -> np.ndarray:
        """:meth:`forward` of an (n, in) batch, bit for bit, with no
        allocation: layer i writes its output into the first n rows of
        ``outputs[i]`` and adds its bias from the first n rows of
        ``biases[i]``, the bias repeated down its rows, so each add is one
        contiguous add. Returns the last layer's rows."""
        for (w, _), bias, out, tanh in zip(self.layers, biases, outputs, self._tanh):
            out = out[:len(x)]
            np.matmul(x, w.T, out=out)
            np.add(out, bias[:len(x)], out=out)
            if tanh:
                np.tanh(out, out=out)
            x = out
        return x

    def forward_cached(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Forward pass that also returns the activations backward needs:
        the input followed by each layer's output."""
        acts = [x]
        for (w, b), tanh in zip(self.layers, self._tanh):
            acts.append(_dense(acts[-1], w, b, tanh))
        return acts[-1], acts

    def backward(
        self, acts: list[np.ndarray], upstream: np.ndarray
    ) -> tuple[list[np.ndarray], np.ndarray]:
        """Backpropagate upstream = dL/d(output), shape (n, out), through the
        activations of a preceding forward_cached call.

        Returns each layer's weight then bias gradient (summed over the
        batch), in layer order, and dL/d(input).
        """
        g = upstream
        grads: list[np.ndarray] = []
        for i in range(len(self.layers) - 1, -1, -1):
            g_pre = g * (1.0 - acts[i + 1] ** 2) if self._tanh[i] else g
            grads += (g_pre.sum(axis=0), g_pre.T @ acts[i])
            g = g_pre @ self.layers[i][0]
        return grads[::-1], g


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
