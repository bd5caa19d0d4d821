import warnings

import numpy as np
import pytest

from ipvae.vae import (
    ModelDimensionError,
    ModelIntegrityError,
    ModelTruncatedError,
    ModelVersionError,
    NonFiniteError,
    TrainConfig,
    TrainingDivergedError,
    VaeModel,
    decode,
    encode,
    kl_term,
    load,
    loss,
    loss_backward,
    loss_given_eps,
    reparametrize,
    sample_matrix,
    save,
    smooth_curve,
    train,
    train_new,
)


@pytest.fixture(scope="module")
def toy_model():
    return VaeModel.initialize(input_dim=20, latent_dim=2, rng=11)


class TestEncode:
    def test_sigma_strictly_positive(self, toy_model):
        rng = np.random.default_rng(0)
        for _ in range(10):
            _, sigma = encode(toy_model, rng.normal(0, 20, 20))
            assert np.all(sigma > 0)

    def test_deterministic(self, toy_model):
        x = np.linspace(30, 1, 20)
        a = encode(toy_model, x)
        b = encode(toy_model, x)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_trained_mu_hugs_prior(self, small_corpus):
        # With one informative factor, a K=1 posterior-mean cloud sits close
        # to the standard-normal prior in both center and spread.
        _, noisy = small_corpus
        model, _ = train_new(noisy, TrainConfig(seed=7, latent_dim=1))
        mu, _ = encode(model, noisy)
        assert abs(mu.mean()) < 0.5
        assert 0.5 < mu.std() < 1.5

    def test_trained_mu_structure_k2(self, canonical_model, canonical_corpus):
        # At K=2 the decay family supports a single informative coordinate:
        # it hugs the prior while the spare coordinate collapses onto it
        # (zero-centered, near-zero spread). See the decisions ledger.
        model, _ = canonical_model
        _, noisy = canonical_corpus
        mu, _ = encode(model, noisy[:20000])
        means, stds = mu.mean(axis=0), mu.std(axis=0)
        assert np.all(np.abs(means) < 0.5)
        informative = int(np.argmax(stds))
        assert 0.5 < stds[informative] < 1.5
        assert stds[1 - informative] < 0.5

    def test_dimension_mismatch(self, toy_model):
        with pytest.raises(ValueError, match="dim"):
            encode(toy_model, np.ones(19))


class TestReparametrize:
    def test_zero_sigma_returns_mu(self):
        mu = np.array([1.5, -2.0])
        z = reparametrize(mu, np.zeros(2), rng=1)
        assert np.array_equal(z, mu)

    def test_statistics(self):
        rng = np.random.default_rng(2)
        z = reparametrize(np.zeros((100_000, 2)), np.ones((100_000, 2)), rng)
        assert np.all(np.abs(z.mean(axis=0)) < 0.02)
        assert np.all((z.std(axis=0) > 0.98) & (z.std(axis=0) < 1.02))

    def test_deterministic_given_seed(self):
        mu, sigma = np.array([0.5, 0.5]), np.array([2.0, 0.1])
        assert np.array_equal(
            reparametrize(mu, sigma, rng=33), reparametrize(mu, sigma, rng=33)
        )

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            reparametrize(np.zeros(2), np.array([1.0, -0.1]), rng=1)


class TestDecode:
    def test_deterministic(self, toy_model):
        z = np.array([0.3, -1.2])
        assert np.array_equal(decode(toy_model, z), decode(toy_model, z))

    def test_finite_for_moderate_latents(self, toy_model):
        rng = np.random.default_rng(3)
        z = rng.uniform(-5, 5, (200, 2))
        assert np.all(np.isfinite(decode(toy_model, z)))

    def test_decode_origin_near_corpus_median(self, canonical_model, canonical_corpus):
        model, _ = canonical_model
        _, noisy = canonical_corpus
        origin_curve = decode(model, np.zeros(2))
        median_curve = np.median(noisy, axis=0)
        err = np.sqrt(np.mean((origin_curve - median_curve) ** 2))
        assert err < 0.75  # mV/V; measured ~0.1 on the canonical run


class TestLoss:
    def test_kl_zero_at_prior(self):
        assert kl_term(np.zeros(2), np.zeros(2))[0] == pytest.approx(0.0, abs=1e-12)

    def test_kl_closed_form_ones(self):
        kl = kl_term(np.array([1.0, 1.0]), np.array([0.0, 0.0]))[0]
        assert kl == pytest.approx(1.0, abs=1e-12)

    def test_kl_non_negative_randomized(self):
        rng = np.random.default_rng(4)
        mu = rng.uniform(-5, 5, (10_000, 3))
        logvar = rng.uniform(-6, 4, (10_000, 3))
        assert np.all(kl_term(mu, logvar) >= 0.0)

    def test_nll_is_summed_squared_error_and_zero_when_forced(self, toy_model):
        rng = np.random.default_rng(8)
        x = rng.normal(3, 2, (3, 20))
        report, cache = loss_given_eps(toy_model, x, rng.standard_normal((3, 2)))
        manual = float(np.mean(np.sum((cache.x_std - cache.x_rec_std) ** 2, axis=1)))
        assert report.nll == pytest.approx(manual, rel=1e-12)
        # forcing x' == x zeroes the reconstruction term
        assert float(np.sum((cache.x_std - cache.x_std) ** 2)) == 0.0

    def test_total_combines_terms(self, toy_model):
        rng = np.random.default_rng(5)
        x = rng.normal(5, 3, (4, 20))
        for beta in (0.0, 0.5, 1.0, 2.0):
            report, _ = loss(toy_model, x, rng=6, kl_weight=beta)
            assert report.total == pytest.approx(
                report.nll + beta * report.kl, rel=1e-12
            )

    def test_gradient_check_small(self, toy_model):
        rng = np.random.default_rng(7)
        model = VaeModel.initialize(input_dim=6, latent_dim=2, hidden=(5, 3), rng=rng)
        x = rng.normal(0, 2, (2, 6))
        eps = rng.standard_normal((2, 2))
        _, cache = loss_given_eps(model, x, eps, kl_weight=0.8)
        grads = loss_backward(model, cache)
        h = 1e-5
        for p, g in zip(model.parameters(), grads):
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + h
                lp, _ = loss_given_eps(model, x, eps, 0.8)
                p[idx] = orig - h
                lm, _ = loss_given_eps(model, x, eps, 0.8)
                p[idx] = orig
                fd = (lp.total - lm.total) / (2 * h)
                if abs(g[idx] - fd) > 1e-9:
                    assert abs(g[idx] - fd) / max(1e-8, abs(g[idx]) + abs(fd)) < 1e-4

    def test_backward_requires_cache(self, toy_model):
        with pytest.raises(ValueError, match="cache"):
            loss_backward(toy_model, None)

    # tanh layers map inf to +-1, so they are broken with NaN
    @pytest.mark.parametrize("layer, value, stage", [
        (lambda m: m.encoder.layers[0], np.nan, "encoder hidden layer 1"),
        (lambda m: m.encoder.layers[1], np.nan, "encoder hidden layer 2"),
        (lambda m: m.mu_head, np.inf, "latent mean head"),
        (lambda m: m.logvar_head, np.nan, "latent log-variance head"),
        (lambda m: m.logvar_head, 1e4, "latent standard deviation"),  # exp(5000)
        (lambda m: m.decoder.layers[0], np.nan, "decoder layer 1"),
        (lambda m: m.decoder.layers[2], np.inf, "decoder layer 3"),
        (lambda m: m.mu_head, 1e200, "loss terms"),  # mu**2 overflows in the KL
    ], ids=["encoder-1", "encoder-2", "mu-head", "logvar-head", "sigma-overflow",
            "decoder-1", "decoder-3", "loss-terms"])
    def test_non_finite_error_names_the_stage(self, layer, value, stage):
        model = VaeModel.initialize(input_dim=6, latent_dim=2, hidden=(5, 3), rng=1)
        layer(model).bias[:] = value
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NonFiniteError) as exc_info:
                loss_given_eps(model, np.ones((1, 6)), np.zeros((1, 2)))
        assert str(exc_info.value) == f"{stage} produced non-finite values"
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def _train_reference(corpus, config):
    """train_new with Adam written as a loop over the separate arrays of
    model.parameters() instead of one update of the packed vector."""
    rng = np.random.default_rng(config.seed)
    model = VaeModel.initialize(
        input_dim=corpus.shape[1], latent_dim=config.latent_dim, rng=rng
    )
    model.input_offset = float(corpus.mean())
    model.input_scale = float(corpus.std())
    params = model.parameters()
    first = [np.zeros_like(p) for p in params]
    second = [np.zeros_like(p) for p in params]
    beta1, beta2, epsilon = 0.9, 0.999, 1e-8
    reports = []
    t = 0
    for _ in range(config.epochs):
        order = rng.permutation(len(corpus))
        for b in range(len(corpus) // config.batch_size):
            batch = corpus[order[b * config.batch_size : (b + 1) * config.batch_size]]
            eps = rng.standard_normal((config.batch_size, model.latent_dim))
            report, cache = loss_given_eps(model, batch, eps, config.kl_weight)
            t += 1
            report.step = t
            reports.append(report)
            bc1 = 1.0 - beta1**t
            bc2 = 1.0 - beta2**t
            for p, g, m, v in zip(params, loss_backward(model, cache), first, second):
                m *= beta1
                m += (1.0 - beta1) * g
                v *= beta2
                v += (1.0 - beta2) * g**2
                p -= config.lr * (m / bc1) / (np.sqrt(v / bc2) + epsilon)
    return model, reports


class TestTrain:
    @pytest.mark.parametrize("config", [
        TrainConfig(seed=3),
        TrainConfig(seed=3, epochs=2, kl_weight=0.5, lr=3e-3),
    ])
    def test_bit_equal_to_per_array_adam(self, small_corpus, config):
        _, noisy = small_corpus
        sub = noisy[:2000]
        model, reports = train_new(sub, config)
        ref_model, ref_reports = _train_reference(sub, config)
        for a, b in zip(model.parameters(), ref_model.parameters(), strict=True):
            assert np.array_equal(a, b)
        assert reports == ref_reports

    def test_deterministic_end_to_end(self, small_corpus):
        _, noisy = small_corpus
        sub = noisy[:2000]
        m1, r1 = train_new(sub, TrainConfig(seed=3))
        m2, r2 = train_new(sub, TrainConfig(seed=3))
        for a, b in zip(m1.parameters(), m2.parameters()):
            assert np.array_equal(a, b)
        assert [r.total for r in r1] == [r.total for r in r2]

    def test_drop_last_batching(self, small_corpus):
        _, noisy = small_corpus
        _, reports = train_new(noisy[:1000], TrainConfig(seed=3, batch_size=64))
        assert len(reports) == 1000 // 64
        assert [r.step for r in reports] == list(range(1, 1000 // 64 + 1))

    def test_divergence_guard(self, small_corpus):
        _, noisy = small_corpus
        with pytest.raises(TrainingDivergedError) as exc_info:
            train_new(noisy[:2000], TrainConfig(seed=3, lr=1e6))
        assert exc_info.value.step > 0

    def test_loss_terms_positive_and_same_order(self, canonical_model):
        _, reports = canonical_model
        tail = reports[-1000:]
        nll = float(np.mean([r.nll for r in tail]))
        kl = float(np.mean([r.kl for r in tail]))
        assert nll > 0 and kl > 0
        assert max(nll, kl) / min(nll, kl) < 10.0

    def test_ae_mode_reconstructs_at_least_as_well(self, small_corpus):
        _, noisy = small_corpus
        sub = noisy[:20_000]
        plain, _ = train_new(sub, TrainConfig(seed=5, kl_weight=0.0))
        vae, _ = train_new(sub, TrainConfig(seed=5, kl_weight=1.0))
        mu_p, _ = encode(plain, sub)
        mu_v, _ = encode(vae, sub)
        err_p = np.mean((decode(plain, mu_p) - sub) ** 2)
        err_v = np.mean((decode(vae, mu_v) - sub) ** 2)
        assert err_p <= err_v

    def test_smooth_curve_window(self):
        values = np.arange(10.0)
        sm = smooth_curve(values, window=3)
        assert sm[0] == pytest.approx(1.0)
        assert len(sm) == 8


class TestSample:
    def test_sigma_zero_collapses_to_origin_decode(self, small_model):
        model, _ = small_model
        origin = decode(model, np.zeros(2))
        values = sample_matrix(model, 50, sigma_scale=0.0, rng=9)
        assert np.allclose(values, origin, atol=1e-12)

    def test_small_sigma_within_tolerance(self, small_model):
        model, _ = small_model
        origin = decode(model, np.zeros(2))
        values = sample_matrix(model, 200, sigma_scale=1e-5, rng=10)
        assert np.max(np.abs(values - origin)) < 1e-3

    def test_deterministic(self, small_model):
        model, _ = small_model
        a = sample_matrix(model, 20, 1.0, rng=12)
        b = sample_matrix(model, 20, 1.0, rng=12)
        assert np.array_equal(a, b)

    def test_returns_decays_with_matching_scheme(self, small_model):
        model, _ = small_model
        assert sample_matrix(model, 5, rng=13).shape == (5, model.input_dim)


class TestPersistence:
    def test_round_trip_bit_exact(self, small_model, tmp_path):
        model, _ = small_model
        path = tmp_path / "model.ipvae"
        save(model, path)
        back = load(path)
        assert back.latent_dim == model.latent_dim
        assert back.input_dim == model.input_dim
        assert back.input_offset == model.input_offset
        assert back.input_scale == model.input_scale
        for a, b in zip(model.parameters(), back.parameters()):
            assert np.array_equal(a, b)

    def test_dimension_check(self, small_model, tmp_path):
        model, _ = small_model
        path = tmp_path / "model.ipvae"
        save(model, path)
        with pytest.raises(ModelDimensionError, match="latent"):
            load(path, expected_latent_dim=1)

    def test_checksum_corruption(self, small_model, tmp_path):
        model, _ = small_model
        path = tmp_path / "model.ipvae"
        save(model, path)
        blob = bytearray(path.read_bytes())
        blob[60] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelIntegrityError):
            load(path)

    def test_version_mismatch(self, small_model, tmp_path):
        import hashlib
        import struct

        model, _ = small_model
        path = tmp_path / "model.ipvae"
        save(model, path)
        blob = path.read_bytes()
        payload = bytearray(blob[5:-8])
        payload[0:4] = struct.pack("<I", 99)
        digest = hashlib.sha256(bytes(payload)).digest()[:8]
        path.write_bytes(blob[:5] + bytes(payload) + digest)
        with pytest.raises(ModelVersionError, match="99"):
            load(path)

    def test_truncated_file(self, small_model, tmp_path):
        import hashlib

        model, _ = small_model
        path = tmp_path / "model.ipvae"
        save(model, path)
        blob = path.read_bytes()
        cut = blob[5:200]
        digest = hashlib.sha256(cut).digest()[:8]
        path.write_bytes(blob[:5] + cut + digest)
        with pytest.raises(ModelTruncatedError):
            load(path)

    def test_bad_magic(self, tmp_path):
        from ipvae.vae import ModelFileError

        path = tmp_path / "junk.ipvae"
        path.write_bytes(b"NOTIP" + b"\x00" * 64)
        with pytest.raises(ModelFileError, match="magic"):
            load(path)
