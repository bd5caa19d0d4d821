"""Variational autoencoder for IP decays: model, loss, training, sampling.

Architecture: a 20-value decay feeds two tanh hidden layers (widths 16, 8);
two identity heads then emit the latent mean and log-variance. A sample
z = mu + eps*sigma (reparametrization) feeds the near-symmetric decoder
(8, 16, tanh) whose identity output layer reconstructs the decay.

The training objective per example is

    loss = ||x - x'||^2  +  beta * ( -1/2 sum_k (1 + log s_k^2 - mu_k^2 - s_k^2) )

i.e. a summed-squared-error reconstruction term plus the closed-form KL
divergence of the diagonal-Gaussian posterior against a standard normal
prior, with beta an optional KL weight (1 recovers the plain objective,
0 degrades to a deterministic autoencoder).

Inputs are standardized by default with a single affine transform fitted on
the training corpus (one global mean/std over all window values) and stored
with the model: encode/decode/sample always speak raw mV/V, while the loss
is computed in the standardized space the optimizer sees.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import _split_rows, atomic_open
from .nn import AdamState, Mlp, adam_step

MODEL_MAGIC = b"IPVAE"
MODEL_FORMAT_VERSION = 1


class ModelFileError(Exception):
    """Base class for model persistence failures."""


class ModelVersionError(ModelFileError):
    """Model file declares an unsupported format version."""


class ModelTruncatedError(ModelFileError):
    """Model file ends before the declared payload is complete."""


class ModelIntegrityError(ModelFileError):
    """Model file checksum does not match its payload."""


class ModelDimensionError(ModelFileError):
    """Model file dimensions do not match what the caller expects."""


class NonFiniteError(ArithmeticError):
    """A forward stage produced NaN/Inf; the message names the stage."""


class TrainingDivergedError(RuntimeError):
    """Training loss became non-finite at the reported step."""

    def __init__(self, step: int, detail: str = ""):
        self.step = step
        msg = f"training diverged at step {step}"
        super().__init__(f"{msg}: {detail}" if detail else msg)


@dataclass
class TrainConfig:
    """Hyperparameters of one training run. ``seed`` is always explicit."""

    seed: int
    lr: float = 1e-3
    batch_size: int = 32
    epochs: int = 1
    kl_weight: float = 1.0
    latent_dim: int = 2
    standardize: bool = True

    def __post_init__(self):
        if not 0.0 < self.lr < math.inf:
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 <= self.kl_weight < math.inf:
            raise ValueError(f"kl_weight must be finite and >= 0, got {self.kl_weight}")
        if self.latent_dim < 1:
            raise ValueError(f"latent_dim must be >= 1, got {self.latent_dim}")


class LossReport(NamedTuple):
    """Batch-mean loss terms of one evaluation: one row of a loss curve."""

    total: float
    nll: float
    kl: float


@dataclass(eq=False)
class VaeModel:
    """Encoder trunk, two latent heads, decoder, plus the input transform.

    Every weight and bias lives in ``params``, one C-contiguous float64
    vector; each layer's (W, b) pair is a reshaped view of it, so an in-place
    update of ``params`` (an optimizer step) updates the layers.
    """

    params: np.ndarray
    input_dim: int
    latent_dim: int
    hidden: tuple[int, int]
    input_offset: float = 0.0
    input_scale: float = 1.0

    def __post_init__(self):
        self.params = np.ascontiguousarray(self.params, dtype=np.float64)
        shapes = _layer_shapes(self.input_dim, self.latent_dim, self.hidden)
        size = _vector_size(shapes)
        if self.params.shape != (size,):
            raise ValueError(f"expected {size} parameters, got shape {self.params.shape}")
        if not np.isfinite(self.params).all():
            raise ValueError("model parameters must be finite")
        layers = []
        offset = 0
        for out_dim, in_dim in shapes:
            end = offset + out_dim * in_dim
            weights = self.params[offset:end].reshape(out_dim, in_dim)
            offset = end + out_dim
            layers.append((weights, self.params[end:offset]))
        self._layers = layers
        enc1, enc2, self.mu_head, self.logvar_head, *dec = layers
        self.encoder = Mlp([enc1, enc2], linear_output=False)
        self.decoder = Mlp(dec, linear_output=True)

    @classmethod
    def initialize(
        cls,
        input_dim: int = 20,
        latent_dim: int = 2,
        hidden: tuple[int, int] = (16, 8),
        rng: np.random.Generator | int = 0,
    ) -> "VaeModel":
        """Glorot-uniform weights in +-sqrt(6/(fan_in+fan_out)), drawn layer
        by layer in parameters() order; biases start at zero."""
        rng = np.random.default_rng(rng)
        size = _vector_size(_layer_shapes(input_dim, latent_dim, hidden))
        model = cls(np.zeros(size), input_dim, latent_dim, tuple(hidden))
        for weights, _ in model._layers:
            limit = np.sqrt(6.0 / sum(weights.shape))
            weights[:] = rng.uniform(-limit, limit, size=weights.shape)
        return model

    def parameters(self) -> list[np.ndarray]:
        """Each layer's weights then bias: consecutive views of params."""
        return [p for pair in self._layers for p in pair]


def _layer_shapes(
    input_dim: int, latent_dim: int, hidden: tuple[int, int]
) -> list[tuple[int, int]]:
    """(out, in) of every dense layer, in VaeModel.parameters() order:
    encoder hidden layers, latent mean head, latent log-variance head, then
    the mirrored decoder. This is the layout of VaeModel.params."""
    h1, h2 = hidden
    for what, width in (("input", input_dim), ("latent", latent_dim),
                        ("first hidden", h1), ("second hidden", h2)):
        if width < 1:
            raise ValueError(f"{what} width must be >= 1, got {width}")
    return [
        (h1, input_dim), (h2, h1),
        (latent_dim, h2), (latent_dim, h2),
        (h2, latent_dim), (h1, h2), (input_dim, h1),
    ]


_LAYER_NAMES = ("encoder layer 1", "encoder layer 2", "latent mean head",
                "latent log-variance head", "decoder layer 1", "decoder layer 2",
                "decoder layer 3")


def _parameter_name(shapes: list[tuple[int, int]], index: int) -> str:
    """Which layer's weights or bias hold entry ``index`` of the vector."""
    for name, (out_dim, in_dim) in zip(_LAYER_NAMES, shapes):
        if index < out_dim * (in_dim + 1):
            return f"{name} {'weights' if index < out_dim * in_dim else 'bias'}"
        index -= out_dim * (in_dim + 1)


def _vector_size(shapes: list[tuple[int, int]]) -> int:
    """Length of the flat vector: each layer's weights then its bias."""
    return sum(out_dim * (in_dim + 1) for out_dim, in_dim in shapes)


def _standardize(model: VaeModel, x: np.ndarray) -> np.ndarray:
    return (x - model.input_offset) / model.input_scale


def _unstandardize(model: VaeModel, x: np.ndarray) -> np.ndarray:
    return x * model.input_scale + model.input_offset


# Multiply-adds of the widest product of one forward block. OpenBLAS runs a
# gemm with m*n*k <= 65 536 * 4 on the calling thread; a larger one starts
# its threads, whose packing buffers stay resident and which a pool worker
# cannot use. Every encoder and decoder pass runs in blocks of this size.
_BLOCK_MULTIPLY_ADDS = 2**18


def _block_rows(layers: list[tuple[np.ndarray, np.ndarray]], samples: int = 1) -> int:
    """Rows per forward block: the ``samples`` per row of a block's rows pass
    the widest of the (W, b) ``layers`` in at most _BLOCK_MULTIPLY_ADDS
    multiply-adds (at least one row)."""
    widest = max(w.size for w, _ in layers)
    return max(1, _BLOCK_MULTIPLY_ADDS // (samples * widest))


def _row_blocks(n: int, layers: list[tuple[np.ndarray, np.ndarray]]) -> list[slice]:
    """The fewest near-equal blocks of rows 0 to n, one sample per row, of at
    most ``_block_rows(layers)`` rows: 819 for the default model. The bound
    is at least 3, so no block is one row unless n is 1 (near-equal blocks
    of at most 2 rows cut 3 rows as 1 + 2): a one-row product goes through
    gemv, whose sums round differently from gemm's."""
    return _split_rows(n, max(3, _block_rows(layers)))


def _as_batch(x: np.ndarray, dim: int, what: str) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    if x.shape[1] != dim:
        raise ValueError(f"{what} dim {x.shape[1]} does not match model dim {dim}")
    return x, single


def encode(model: VaeModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior parameters (mu, sigma) for raw decay values x.

    Deterministic; sigma = exp(logvar/2) is strictly positive. Accepts a
    single decay (d,) or a batch (n, d), which is encoded in the blocks of
    :func:`_row_blocks`, with the bits of one pass over the whole batch.
    """
    x, single = _as_batch(x, model.input_dim, "input")
    mu = np.empty((len(x), model.latent_dim))
    sigma = np.empty_like(mu)
    _encode_into(model, x, mu, sigma)
    if single:
        return mu[0], sigma[0]
    return mu, sigma


def _encode_into(model: VaeModel, x: np.ndarray, mu: np.ndarray, sigma: np.ndarray) -> None:
    """Write :func:`encode`'s (mu, sigma) of the (n, d) raw values ``x``
    into the (n, K) arrays ``mu`` and ``sigma``, block by block."""
    x, _ = _as_batch(x, model.input_dim, "input")
    (w_mu, b_mu), (w_lv, b_lv) = model.mu_head, model.logvar_head
    layers = [*model.encoder.layers, model.mu_head, model.logvar_head]
    for rows in _row_blocks(len(x), layers):
        h = model.encoder.forward(_standardize(model, x[rows]))
        mu[rows] = h @ w_mu.T + b_mu
        sigma[rows] = np.exp(0.5 * (h @ w_lv.T + b_lv))


def reparametrize(
    mu: np.ndarray, sigma: np.ndarray, rng: np.random.Generator | int
) -> np.ndarray:
    """Draw z = mu + eps*sigma with eps ~ N(0, I)."""
    rng = np.random.default_rng(rng)
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if np.any(sigma < 0):
        raise ValueError("sigma must be non-negative")
    return mu + rng.standard_normal(mu.shape) * sigma


def decode(model: VaeModel, z: np.ndarray) -> np.ndarray:
    """Decoder mean for latent z, in raw mV/V. Accepts (K,) or (n, K)."""
    z, single = _as_batch(z, model.latent_dim, "latent")
    out = _unstandardize(model, model.decoder.forward(z))
    return out[0] if single else out


def kl_term(mu: np.ndarray, logvar: np.ndarray) -> np.ndarray:
    """Closed-form KL(N(mu, exp(logvar)) || N(0, I)), per batch row."""
    mu = np.atleast_2d(np.asarray(mu, dtype=np.float64))
    logvar = np.atleast_2d(np.asarray(logvar, dtype=np.float64))
    return -0.5 * np.sum(1.0 + logvar - mu**2 - np.exp(logvar), axis=1)


@dataclass
class VaeCache:
    """Everything the loss backward pass needs from the forward pass."""

    x_std: np.ndarray
    enc_acts: list[np.ndarray]
    mu: np.ndarray
    logvar: np.ndarray
    sigma: np.ndarray
    eps: np.ndarray
    dec_acts: list[np.ndarray]
    x_rec_std: np.ndarray
    kl_weight: float


def loss_given_eps(
    model: VaeModel, x: np.ndarray, eps: np.ndarray, kl_weight: float = 1.0
) -> tuple[LossReport, VaeCache]:
    """Loss with an externally fixed reparametrization noise.

    Deterministic in (model, x, eps); this is the function the gradient
    check differentiates. Reported values are batch means.
    """
    x, _ = _as_batch(x, model.input_dim, "input")
    eps = np.atleast_2d(np.asarray(eps, dtype=np.float64))
    if eps.shape != (x.shape[0], model.latent_dim):
        raise ValueError(
            f"eps shape {eps.shape} does not match (batch, K) = "
            f"({x.shape[0]}, {model.latent_dim})"
        )
    # Every overflow or invalid operation ends in a non-finite total, so one
    # check on it replaces a check per stage; the stages are scanned only to
    # name the first that failed.
    with np.errstate(all="ignore"):
        x_std = _standardize(model, x)
        h, enc_acts = model.encoder.forward_cached(x_std)
        (w_mu, b_mu), (w_lv, b_lv) = model.mu_head, model.logvar_head
        mu = h @ w_mu.T + b_mu
        logvar = h @ w_lv.T + b_lv
        sigma = np.exp(0.5 * logvar)
        z = mu + eps * sigma
        x_rec, dec_acts = model.decoder.forward_cached(z)
        nll_mean = float(np.mean(np.sum((x_std - x_rec) ** 2, axis=1)))
        kl_mean = float(np.mean(kl_term(mu, logvar)))
        report = LossReport(
            total=nll_mean + kl_weight * kl_mean, nll=nll_mean, kl=kl_mean
        )
    if not math.isfinite(report.total):
        stages = [
            *((f"encoder hidden layer {i}", a) for i, a in enumerate(enc_acts[1:], 1)),
            ("latent mean head", mu),
            ("latent log-variance head", logvar),
            ("latent standard deviation", sigma),
            *((f"decoder layer {i}", a) for i, a in enumerate(dec_acts[1:], 1)),
        ]
        name = next(
            (name for name, a in stages if not np.all(np.isfinite(a))), "loss terms"
        )
        raise NonFiniteError(f"{name} produced non-finite values")
    return report, VaeCache(
        x_std=x_std, enc_acts=enc_acts, mu=mu, logvar=logvar, sigma=sigma, eps=eps,
        dec_acts=dec_acts, x_rec_std=x_rec, kl_weight=kl_weight,
    )


def loss(
    model: VaeModel,
    x: np.ndarray,
    rng: np.random.Generator | int,
    kl_weight: float = 1.0,
) -> tuple[LossReport, VaeCache]:
    """Single-sample ELBO estimate of the loss for raw decay values x."""
    rng = np.random.default_rng(rng)
    xb, _ = _as_batch(x, model.input_dim, "input")
    eps = rng.standard_normal((xb.shape[0], model.latent_dim))
    return loss_given_eps(model, xb, eps, kl_weight)


def loss_backward(model: VaeModel, cache: VaeCache) -> list[np.ndarray]:
    """Exact gradients of the batch-mean loss, ordered like parameters()."""
    if cache is None:
        raise ValueError("loss_backward requires the cache of a loss evaluation")
    n = cache.x_std.shape[0]
    beta = cache.kl_weight

    d_xrec = 2.0 * (cache.x_rec_std - cache.x_std) / n
    dec_grads, d_z = model.decoder.backward(cache.dec_acts, d_xrec)

    d_mu = d_z + beta * cache.mu / n
    d_logvar = d_z * (0.5 * cache.eps * cache.sigma) + beta * 0.5 * (
        cache.sigma**2 - 1.0
    ) / n

    # identity-activation heads share the encoder output as input
    h_enc = cache.enc_acts[-1]
    mu_w_grad = d_mu.T @ h_enc
    mu_b_grad = d_mu.sum(axis=0)
    lv_w_grad = d_logvar.T @ h_enc
    lv_b_grad = d_logvar.sum(axis=0)
    d_h = d_mu @ model.mu_head[0] + d_logvar @ model.logvar_head[0]

    enc_grads, _ = model.encoder.backward(cache.enc_acts, d_h)
    return enc_grads + [mu_w_grad, mu_b_grad, lv_w_grad, lv_b_grad] + dec_grads


# Values per leaf of _std's sum: a leaf's squared deviations are one
# temporary of at most 512 KB.
_STD_LEAF = 2**16


def _std(values: np.ndarray, mean: np.float64) -> float:
    """``values.std()`` of a C-contiguous array whose ``values.mean()`` is
    ``mean``, bit for bit, without numpy's temporary of all the deviations.

    numpy sums a contiguous array pairwise: a run of more than 128 values
    is the sum of its two halves, the first half rounded down to a multiple
    of 8. The squared deviations are summed over the nodes of that same
    tree; a node of at most _STD_LEAF values is summed by numpy itself, from
    a temporary of its squared deviations.
    """
    flat = values.reshape(-1)

    def total(start: int, size: int):
        if size > _STD_LEAF:
            half = size // 2 - size // 2 % 8
            return total(start, half) + total(start + half, size - half)
        dev = flat[start:start + size] - mean
        dev *= dev
        return np.add.reduce(dev)

    return float(np.sqrt(total(0, flat.size) / flat.size))


def train(
    model: VaeModel,
    corpus: np.ndarray,
    config: TrainConfig,
    rng: np.random.Generator | None = None,
) -> tuple[VaeModel, np.ndarray]:
    """Mini-batch Adam training on an (n, d) corpus matrix; returns the
    model and the loss curve, a (steps, 3) array whose row i holds the
    (total, nll, kl) of step i + 1.

    Batches are reshuffled each epoch with a seeded permutation; a trailing
    partial batch is dropped. Deterministic given (corpus, config). Trains
    the model in place: Adam updates model.params.
    """
    values = np.ascontiguousarray(corpus, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] == 0:
        raise ValueError("corpus must be a non-empty (n, d) matrix")
    if values.shape[1] != model.input_dim:
        raise ValueError(
            f"corpus window count {values.shape[1]} does not match"
            f" model input dim {model.input_dim}"
        )
    n = values.shape[0]
    if config.batch_size > n:
        raise ValueError("batch_size exceeds corpus size")
    if rng is None:
        rng = np.random.default_rng(config.seed)

    if config.standardize:
        mean = values.mean()
        model.input_offset = float(mean)
        scale = _std(values, mean)
        model.input_scale = scale if 0.0 < scale < math.inf else 1.0
    else:
        model.input_offset = 0.0
        model.input_scale = 1.0

    opt = AdamState.for_params(model.params, lr=config.lr)
    steps_per_epoch = n // config.batch_size
    curve = np.empty((config.epochs * steps_per_epoch, len(LossReport._fields)))
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for b in range(steps_per_epoch):
            batch = values[order[b * config.batch_size : (b + 1) * config.batch_size]]
            eps = rng.standard_normal((config.batch_size, model.latent_dim))
            step = opt.step_count + 1
            try:
                report, cache = loss_given_eps(model, batch, eps, config.kl_weight)
            except NonFiniteError as exc:
                raise TrainingDivergedError(step, str(exc)) from exc
            grads = loss_backward(model, cache)
            adam_step(opt, model.params, np.concatenate([g.ravel() for g in grads]))
            curve[step - 1] = report
    return model, curve


def train_new(corpus: np.ndarray, config: TrainConfig) -> tuple[VaeModel, np.ndarray]:
    """Initialize a model from the config and train it on the (n, d)
    corpus matrix."""
    values = np.asarray(corpus, dtype=np.float64)
    rng = np.random.default_rng(config.seed)
    model = VaeModel.initialize(
        input_dim=values.shape[1],
        latent_dim=config.latent_dim,
        rng=rng,
    )
    return train(model, values, config, rng=rng)


def sample_matrix(
    model: VaeModel,
    n: int,
    sigma_scale: float = 1.0,
    rng: np.random.Generator | int = 0,
) -> np.ndarray:
    """Decode n prior draws z ~ N(0, sigma_scale^2 I) into an (n, d) matrix
    of synthetic decays (1.5 flares the population, 0.2 collapses it toward
    the decoded latent origin)."""
    if sigma_scale < 0:
        raise ValueError(f"sigma_scale must be >= 0, got {sigma_scale}")
    rng = np.random.default_rng(rng)
    z = sigma_scale * rng.standard_normal((n, model.latent_dim))
    out = np.empty((n, model.input_dim))
    for rows in _row_blocks(n, model.decoder.layers):
        out[rows] = decode(model, z[rows])
    return out


# --- persistence -------------------------------------------------------------

# version, latent dim, input dim, encoder hidden count and widths, decoder
# hidden count and widths, input offset and scale; the parameter vector follows
MODEL_HEADER = struct.Struct("<9I2d")


def save(model: VaeModel, path) -> None:
    """Write the model with magic, payload and an 8-byte SHA-256 checksum."""
    h1, h2 = model.hidden
    payload = MODEL_HEADER.pack(
        MODEL_FORMAT_VERSION, model.latent_dim, model.input_dim,
        2, h1, h2, 2, h2, h1, model.input_offset, model.input_scale,
    ) + model.params.astype("<f8").tobytes()
    digest = hashlib.sha256(payload).digest()[:8]
    with atomic_open(path, "wb") as fh:
        fh.write(MODEL_MAGIC + payload + digest)


def load(
    path,
    expected_latent_dim: int | None = None,
    expected_input_dim: int | None = None,
) -> VaeModel:
    """Read a model written by :func:`save`, verifying integrity and dims."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MODEL_MAGIC) or blob[: len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise ModelFileError(f"{path}: not an IPVAE model file (bad magic)")
    if len(blob) < len(MODEL_MAGIC) + 8:
        raise ModelTruncatedError(f"{path}: file too short to hold a checksum")
    payload, digest = blob[len(MODEL_MAGIC) : -8], blob[-8:]
    if hashlib.sha256(payload).digest()[:8] != digest:
        raise ModelIntegrityError(f"{path}: checksum mismatch, refusing to load")
    if len(payload) < MODEL_HEADER.size:
        raise ModelTruncatedError(f"{path}: file ends inside the header")

    (version, latent_dim, input_dim, n_enc, h1, h2, n_dec, d1, d2,
     offset, scale) = MODEL_HEADER.unpack_from(payload)
    if version != MODEL_FORMAT_VERSION:
        raise ModelVersionError(
            f"{path}: format version {version}, expected {MODEL_FORMAT_VERSION}"
        )
    if (n_enc, n_dec, d1, d2) != (2, 2, h2, h1):
        raise ModelFileError(
            f"{path}: unsupported architecture, expected two mirrored hidden layers"
        )
    for what, dim, expected in (("latent", latent_dim, expected_latent_dim),
                                ("input", input_dim, expected_input_dim)):
        if expected is not None and dim != expected:
            raise ModelDimensionError(f"{path}: {what} dim is {dim}, expected {expected}")

    try:
        shapes = _layer_shapes(input_dim, latent_dim, (h1, h2))
    except ValueError as exc:
        raise ModelFileError(f"{path}: {exc}") from None
    size = 8 * _vector_size(shapes)
    body = payload[MODEL_HEADER.size :]
    if len(body) < size:
        raise ModelTruncatedError(
            f"{path}: file ends inside the parameters ({len(body)} of {size} bytes)"
        )
    if len(body) > size:
        raise ModelFileError(f"{path}: {len(body) - size} trailing bytes")
    # an infinite or NaN offset makes every reconstruction inf or NaN, and
    # denoising sorts standardized reconstructions before it unstandardizes
    # them, which keeps their order only for a finite scale > 0
    if not math.isfinite(offset):
        raise ModelFileError(f"{path}: input_offset must be finite, got {offset}")
    if not 0.0 < scale < math.inf:
        raise ModelFileError(f"{path}: input_scale must be finite and > 0, got {scale}")
    params = np.frombuffer(body, dtype="<f8").astype(np.float64)
    bad = np.flatnonzero(~np.isfinite(params))
    if bad.size:
        raise ModelFileError(
            f"{path}: parameter {bad[0]} ({_parameter_name(shapes, bad[0])}) is not finite"
        )
    return VaeModel(params, input_dim, latent_dim, (h1, h2), offset, scale)


def smooth_curve(values: np.ndarray, window: int = 1000) -> np.ndarray:
    """Moving mean over a loss curve, window capped at the sequence length."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("empty loss curve")
    w = min(window, values.size)
    kernel = np.ones(w) / w
    return np.convolve(values, kernel, mode="valid")
