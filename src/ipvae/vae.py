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

import numpy as np

from .data import atomic_open
from .nn import AdamState, DenseLayer, Mlp, adam_step, pack, parameters

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


@dataclass
class LossReport:
    total: float
    nll: float
    kl: float
    step: int = 0


@dataclass
class VaeModel:
    """Encoder trunk, two latent heads, decoder, plus the input transform."""

    encoder: Mlp
    mu_head: DenseLayer
    logvar_head: DenseLayer
    decoder: Mlp
    latent_dim: int
    input_dim: int
    input_offset: float = 0.0
    input_scale: float = 1.0

    @classmethod
    def initialize(
        cls,
        input_dim: int = 20,
        latent_dim: int = 2,
        hidden: tuple[int, int] = (16, 8),
        rng: np.random.Generator | int = 0,
    ) -> "VaeModel":
        rng = np.random.default_rng(rng)
        h1, h2 = hidden
        encoder = Mlp(
            [DenseLayer.glorot(h1, input_dim, rng), DenseLayer.glorot(h2, h1, rng)],
            ["tanh", "tanh"],
        )
        mu_head = DenseLayer.glorot(latent_dim, h2, rng)
        logvar_head = DenseLayer.glorot(latent_dim, h2, rng)
        decoder = Mlp(
            [
                DenseLayer.glorot(h2, latent_dim, rng),
                DenseLayer.glorot(h1, h2, rng),
                DenseLayer.glorot(input_dim, h1, rng),
            ],
            ["tanh", "tanh", "identity"],
        )
        return cls(
            encoder=encoder,
            mu_head=mu_head,
            logvar_head=logvar_head,
            decoder=decoder,
            latent_dim=latent_dim,
            input_dim=input_dim,
        )

    def layers(self) -> list[DenseLayer]:
        """Every dense layer, in parameters() order."""
        return (
            self.encoder.layers + [self.mu_head, self.logvar_head] + self.decoder.layers
        )

    def parameters(self) -> list[np.ndarray]:
        return parameters(self.layers())

    def hidden_widths(self) -> tuple[int, ...]:
        return tuple(layer.out_dim for layer in self.encoder.layers)


def _standardize(model: VaeModel, x: np.ndarray) -> np.ndarray:
    return (x - model.input_offset) / model.input_scale


def _unstandardize(model: VaeModel, x: np.ndarray) -> np.ndarray:
    return x * model.input_scale + model.input_offset


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
    single decay (d,) or a batch (n, d).
    """
    x, single = _as_batch(x, model.input_dim, "input")
    h = model.encoder.forward(_standardize(model, x))
    mu = h @ model.mu_head.weights.T + model.mu_head.bias
    logvar = h @ model.logvar_head.weights.T + model.logvar_head.bias
    sigma = np.exp(0.5 * logvar)
    if single:
        return mu[0], sigma[0]
    return mu, sigma


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
    h_enc: np.ndarray
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
        mu = h @ model.mu_head.weights.T + model.mu_head.bias
        logvar = h @ model.logvar_head.weights.T + model.logvar_head.bias
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
    cache = VaeCache(
        x_std=x_std,
        enc_acts=enc_acts,
        h_enc=h,
        mu=mu,
        logvar=logvar,
        sigma=sigma,
        eps=eps,
        dec_acts=dec_acts,
        x_rec_std=x_rec,
        kl_weight=kl_weight,
    )
    return report, cache


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
    mu_w_grad = d_mu.T @ cache.h_enc
    mu_b_grad = d_mu.sum(axis=0)
    lv_w_grad = d_logvar.T @ cache.h_enc
    lv_b_grad = d_logvar.sum(axis=0)
    d_h = d_mu @ model.mu_head.weights + d_logvar @ model.logvar_head.weights

    enc_grads, _ = model.encoder.backward(cache.enc_acts, d_h)
    return enc_grads + [mu_w_grad, mu_b_grad, lv_w_grad, lv_b_grad] + dec_grads


def train(
    model: VaeModel,
    corpus: np.ndarray,
    config: TrainConfig,
    rng: np.random.Generator | None = None,
) -> tuple[VaeModel, list[LossReport]]:
    """Mini-batch Adam training on an (n, d) corpus matrix; returns the
    model and one report per step.

    Batches are reshuffled each epoch with a seeded permutation; a trailing
    partial batch is dropped. Deterministic given (corpus, config). Trains
    the model in place: its weights and biases become views of the one flat
    vector that Adam updates.
    """
    values = np.asarray(corpus, dtype=np.float64)
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
        model.input_offset = float(values.mean())
        scale = float(values.std())
        model.input_scale = scale if scale > 0 else 1.0
    else:
        model.input_offset = 0.0
        model.input_scale = 1.0

    params = pack(model.layers())
    opt = AdamState.for_params(params, lr=config.lr)
    reports: list[LossReport] = []
    steps_per_epoch = n // config.batch_size
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
            adam_step(opt, params, np.concatenate([g.ravel() for g in grads]))
            report.step = step
            reports.append(report)
    return model, reports


def train_new(
    corpus: np.ndarray, config: TrainConfig
) -> tuple[VaeModel, list[LossReport]]:
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
    return decode(model, z)


# --- persistence -------------------------------------------------------------

def _pack_payload(model: VaeModel) -> bytes:
    hidden = model.hidden_widths()
    dec_hidden = tuple(layer.out_dim for layer in model.decoder.layers[:-1])
    parts = [
        struct.pack("<I", MODEL_FORMAT_VERSION),
        struct.pack("<II", model.latent_dim, model.input_dim),
        struct.pack("<I", len(hidden)),
        struct.pack(f"<{len(hidden)}I", *hidden),
        struct.pack("<I", len(dec_hidden)),
        struct.pack(f"<{len(dec_hidden)}I", *dec_hidden),
        struct.pack("<dd", model.input_offset, model.input_scale),
    ]
    for p in model.parameters():
        parts.append(p.astype("<f8").tobytes())
    return b"".join(parts)


def save(model: VaeModel, path) -> None:
    """Write the model with magic, payload and an 8-byte SHA-256 checksum."""
    payload = _pack_payload(model)
    digest = hashlib.sha256(payload).digest()[:8]
    with atomic_open(path, "wb") as fh:
        fh.write(MODEL_MAGIC + payload + digest)


class _Reader:
    def __init__(self, buf: bytes, path):
        self.buf = buf
        self.pos = 0
        self.path = path

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.buf):
            raise ModelTruncatedError(
                f"{self.path}: file ends inside the payload"
                f" (needed {count} bytes at offset {self.pos})"
            )
        out = self.buf[self.pos : self.pos + count]
        self.pos += count
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def tensor(self, shape: tuple[int, ...]) -> np.ndarray:
        count = int(np.prod(shape))
        raw = self.take(count * 8)
        return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


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

    r = _Reader(payload, path)
    version = r.u32()
    if version != MODEL_FORMAT_VERSION:
        raise ModelVersionError(
            f"{path}: format version {version}, expected {MODEL_FORMAT_VERSION}"
        )
    latent_dim = r.u32()
    input_dim = r.u32()
    enc_hidden = [r.u32() for _ in range(r.u32())]
    dec_hidden = [r.u32() for _ in range(r.u32())]
    offset, scale = r.f64(), r.f64()
    if expected_latent_dim is not None and latent_dim != expected_latent_dim:
        raise ModelDimensionError(
            f"{path}: latent dim is {latent_dim}, expected {expected_latent_dim}"
        )
    if expected_input_dim is not None and input_dim != expected_input_dim:
        raise ModelDimensionError(
            f"{path}: input dim is {input_dim}, expected {expected_input_dim}"
        )

    def read_layer(out_dim: int, in_dim: int) -> DenseLayer:
        return DenseLayer(
            weights=r.tensor((out_dim, in_dim)), bias=r.tensor((out_dim,))
        )

    enc_dims = [input_dim] + enc_hidden
    encoder = Mlp(
        [read_layer(o, i) for i, o in zip(enc_dims, enc_dims[1:])],
        ["tanh"] * len(enc_hidden),
    )
    mu_head = read_layer(latent_dim, enc_hidden[-1])
    logvar_head = read_layer(latent_dim, enc_hidden[-1])
    dec_dims = [latent_dim] + dec_hidden + [input_dim]
    decoder = Mlp(
        [read_layer(o, i) for i, o in zip(dec_dims, dec_dims[1:])],
        ["tanh"] * len(dec_hidden) + ["identity"],
    )
    if r.pos != len(payload):
        raise ModelFileError(f"{path}: {len(payload) - r.pos} trailing bytes")
    return VaeModel(
        encoder=encoder,
        mu_head=mu_head,
        logvar_head=logvar_head,
        decoder=decoder,
        latent_dim=latent_dim,
        input_dim=input_dim,
        input_offset=offset,
        input_scale=scale,
    )


def smooth_curve(values: list[float] | np.ndarray, window: int = 1000) -> np.ndarray:
    """Moving mean over a loss curve, window capped at the sequence length."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("empty loss curve")
    w = min(window, values.size)
    kernel = np.ones(w) / w
    return np.convolve(values, kernel, mode="valid")
