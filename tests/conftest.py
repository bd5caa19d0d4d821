"""Shared fixtures: a small fast-training corpus/model for unit tests and
the full-size canonical corpus/model reused by the acceptance suite; and
``quantiles``, the denoised quantiles of one survey."""

import numpy as np
import pytest

from ipvae.analysis import denoise_matrix
from ipvae.data import SyntheticSpec, synthesize_corpus
from ipvae.vae import TrainConfig, train_new

# Canonical pipeline: default synthetic spec at 2e5 decays, default training.
CANONICAL_SPEC = dict(noise_sigma=1.1, spike_prob=0.01, seed=42)
CANONICAL_N = 200_000
CANONICAL_TRAIN_SEED = 7


@pytest.fixture(scope="session")
def small_corpus():
    return synthesize_corpus(SyntheticSpec(n=20_000, **CANONICAL_SPEC))


@pytest.fixture(scope="session")
def small_model(small_corpus):
    _, noisy_matrix = small_corpus
    model, curve = train_new(noisy_matrix, TrainConfig(seed=CANONICAL_TRAIN_SEED))
    return model, curve


@pytest.fixture(scope="session")
def canonical_corpus():
    return synthesize_corpus(SyntheticSpec(n=CANONICAL_N, **CANONICAL_SPEC))


@pytest.fixture(scope="session")
def canonical_model(canonical_corpus):
    _, noisy_matrix = canonical_corpus
    model, curve = train_new(noisy_matrix, TrainConfig(seed=CANONICAL_TRAIN_SEED))
    return model, curve


def quantiles(model, values, n_realizations, rng):
    """(median, ci_low, ci_high), (n, d) each, of the (n, d) ``values``
    denoised as one level of :func:`denoise_matrix`."""
    return denoise_matrix(model, np.asarray(values)[None], n_realizations, rng,
                          lambda rows, *bands: bands)
