import hashlib
import struct
import warnings

import numpy as np
import pytest

from ipvae import vae as vae_mod
from ipvae.data import _split_rows
from ipvae.nn import Mlp
from ipvae.vae import (
    MODEL_HEADER,
    ModelDimensionError,
    ModelFileError,
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

    @pytest.mark.parametrize("n", [0, 1, 2, 819, 820, 1639, 20_000])
    def test_blocks_equal_one_pass(self, small_model, small_corpus, n):
        """Encoded in the fewest near-equal blocks of at most 819 rows (2^18
        multiply-adds through the 20 -> 16 first layer), never one row alone
        above n = 1: the bits of one pass over the whole batch."""
        model, _ = small_model
        x = small_corpus[1][:n]
        assert len(x) == n
        h = model.encoder.forward((x - model.input_offset) / model.input_scale)
        (w_mu, b_mu), (w_lv, b_lv) = model.mu_head, model.logvar_head
        mu, sigma = encode(model, x)
        assert mu.shape == sigma.shape == (n, model.latent_dim)
        assert mu.tobytes() == (h @ w_mu.T + b_mu).tobytes()
        assert sigma.tobytes() == np.exp(0.5 * (h @ w_lv.T + b_lv)).tobytes()

    @pytest.mark.parametrize("widest", [320, 2**17, 2**18, 2**20])
    def test_row_blocks_never_one_row(self, widest):
        """The fewest near-equal blocks of at most 2^18 // widest rows, or of
        3 rows where that is less: no block is one row unless n is 1."""
        layers = [(np.empty((1, widest)), np.empty(1))]
        bound = max(3, 2**18 // widest)
        for n in [*range(0, 50), 819, 820, 1639, 20_000]:
            blocks = vae_mod._row_blocks(n, layers)
            sizes = [b.stop - b.start for b in blocks]
            assert [b.start for b in blocks] == list(np.cumsum([0, *sizes])[:-1])
            assert sum(sizes) == n and len(blocks) == -(-n // bound)
            assert all(size >= 2 for size in sizes) or n == 1


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
    @pytest.mark.parametrize("pair, value, stage", [
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
    def test_non_finite_error_names_the_stage(self, pair, value, stage):
        model = VaeModel.initialize(input_dim=6, latent_dim=2, hidden=(5, 3), rng=1)
        pair(model)[1][:] = value
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
    curve = []
    t = 0
    for _ in range(config.epochs):
        order = rng.permutation(len(corpus))
        for b in range(len(corpus) // config.batch_size):
            batch = corpus[order[b * config.batch_size : (b + 1) * config.batch_size]]
            eps = rng.standard_normal((config.batch_size, model.latent_dim))
            report, cache = loss_given_eps(model, batch, eps, config.kl_weight)
            t += 1
            curve.append(report)
            bc1 = 1.0 - beta1**t
            bc2 = 1.0 - beta2**t
            for p, g, m, v in zip(params, loss_backward(model, cache), first, second):
                m *= beta1
                m += (1.0 - beta1) * g
                v *= beta2
                v += (1.0 - beta2) * g**2
                p -= config.lr * (m / bc1) / (np.sqrt(v / bc2) + epsilon)
    return model, np.array(curve)


class TestTrain:
    @pytest.mark.parametrize("config", [
        TrainConfig(seed=3),
        TrainConfig(seed=3, epochs=2, kl_weight=0.5, lr=3e-3),
    ])
    def test_bit_equal_to_per_array_adam(self, small_corpus, config):
        _, noisy = small_corpus
        sub = noisy[:2000]
        model, curve = train_new(sub, config)
        ref_model, ref_curve = _train_reference(sub, config)
        for a, b in zip(model.parameters(), ref_model.parameters(), strict=True):
            assert np.array_equal(a, b)
        assert np.array_equal(curve, ref_curve)

    def test_trained_layers_stay_views_of_params(self, small_corpus):
        _, noisy = small_corpus
        model, _ = train_new(noisy[:500], TrainConfig(seed=3))
        assert model.params.flags.c_contiguous
        for p in model.parameters():
            assert np.shares_memory(p, model.params)

    def test_deterministic_end_to_end(self, small_corpus):
        _, noisy = small_corpus
        sub = noisy[:2000]
        m1, c1 = train_new(sub, TrainConfig(seed=3))
        m2, c2 = train_new(sub, TrainConfig(seed=3))
        for a, b in zip(m1.parameters(), m2.parameters()):
            assert np.array_equal(a, b)
        assert np.array_equal(c1, c2)

    def test_drop_last_batching(self, small_corpus):
        _, noisy = small_corpus
        _, curve = train_new(noisy[:1000], TrainConfig(seed=3, batch_size=64))
        assert curve.shape == (1000 // 64, 3)
        assert curve.dtype == np.float64 and curve.flags.c_contiguous

    def test_divergence_guard(self, small_corpus):
        _, noisy = small_corpus
        with pytest.raises(TrainingDivergedError) as exc_info:
            train_new(noisy[:2000], TrainConfig(seed=3, lr=1e6))
        assert exc_info.value.step > 0

    def test_loss_terms_positive_and_same_order(self, canonical_model):
        _, curve = canonical_model
        nll = float(curve[-1000:, 1].mean())
        kl = float(curve[-1000:, 2].mean())
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


class TestStandardization:
    """train's input offset and scale are values.mean() and values.std()
    bit for bit, with the deviation sum taken over numpy's pairwise tree."""

    @pytest.mark.parametrize("size", [1, 7, 8, 9, 127, 128, 129, 2**16 - 1, 2**16,
                                      2**16 + 1, 2**17 + 3, 20 * 12_345])
    def test_blocked_std_is_numpy_std(self, size):
        rng = np.random.default_rng(size)
        values = rng.normal(5.0, 7.0, size) + rng.uniform(0.0, 40.0, size)
        shapes = [(1, size), (size, 1)] + ([(size // 20, 20)] if size % 20 == 0 else [])
        for shape in shapes:
            matrix = values.reshape(shape)
            assert vae_mod._std(matrix, matrix.mean()) == float(matrix.std())

    def test_train_sets_mean_and_std(self):
        rng = np.random.default_rng(4)
        corpus = rng.normal(3.0, 2.0, (2**16 // 20 * 3 + 5, 20))
        model, _ = train_new(corpus, TrainConfig(seed=2, batch_size=4096))
        assert model.input_offset == float(corpus.mean())
        assert model.input_scale == float(corpus.std())


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

    @pytest.mark.parametrize("n", [0, 1, 2, 819, 820, 1639, 4096, 4097, 8193, 20_000])
    def test_blocks_equal_one_decode(self, monkeypatch, small_model, n):
        """``decode``, and ``sample_matrix`` through it, run the decoder in
        the fewest near-equal blocks of at most 819 rows (2^18 multiply-adds
        through the 16 -> 20 last layer), never one row alone above n = 1:
        the bits of one unblocked pass over the whole draw."""
        model, _ = small_model
        z = np.random.default_rng(14).standard_normal((n, model.latent_dim))
        whole = model.decoder.forward(z) * model.input_scale + model.input_offset
        blocks, forward = [], Mlp.forward
        monkeypatch.setattr(Mlp, "forward",
                            lambda self, x: blocks.append(len(x)) or forward(self, x))
        assert decode(model, z).tobytes() == whole.tobytes()
        assert sample_matrix(model, n, 1.0, rng=14).tobytes() == whole.tobytes()
        assert blocks == 2 * [r.stop - r.start for r in _split_rows(n, 819)]
        assert all(1 < rows <= 819 for rows in blocks) or n == 1


def old_pack_payload(model):
    """The per-tensor payload writer that defined the model file format."""
    hidden = tuple(w.shape[0] for w, _ in model.encoder.layers)
    dec_hidden = tuple(w.shape[0] for w, _ in model.decoder.layers[:-1])
    parts = [
        struct.pack("<I", 1),
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


def old_glorot_params(input_dim, latent_dim, hidden, rng):
    """The draw initialize made with one DenseLayer per layer: Glorot-uniform
    (out, in) weights then zero biases, layer by layer."""
    h1, h2 = hidden
    parts = []
    for out_dim, in_dim in [(h1, input_dim), (h2, h1), (latent_dim, h2),
                            (latent_dim, h2), (h2, latent_dim), (h1, h2),
                            (input_dim, h1)]:
        limit = np.sqrt(6.0 / (in_dim + out_dim))
        parts += [rng.uniform(-limit, limit, (out_dim, in_dim)).ravel(), np.zeros(out_dim)]
    return np.concatenate(parts)


class TestInitialize:
    @pytest.mark.parametrize("kwargs", [
        dict(), dict(input_dim=6, latent_dim=1, hidden=(5, 3)),
    ], ids=["default", "hidden-5-3"])
    def test_matches_per_layer_glorot_draw(self, kwargs):
        rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
        model = VaeModel.initialize(**kwargs, rng=rng)
        expected = old_glorot_params(kwargs.get("input_dim", 20),
                                     kwargs.get("latent_dim", 2),
                                     kwargs.get("hidden", (16, 8)), ref_rng)
        assert np.array_equal(model.params, expected)
        # training continues on the same stream, so it must end in one place
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("dims, message", [
        ((20, 0, (16, 8)), "latent width must be >= 1, got 0"),
        ((0, 2, (16, 8)), "input width must be >= 1, got 0"),
        ((20, 2, (0, 8)), "first hidden width must be >= 1, got 0"),
        ((20, 2, (16, 0)), "second hidden width must be >= 1, got 0"),
    ], ids=["latent", "input", "hidden-1", "hidden-2"])
    def test_zero_width_rejected(self, dims, message):
        with pytest.raises(ValueError, match=message):
            VaeModel.initialize(*dims)


def write_payload(path, payload):
    """Write a model file around ``payload`` with a valid checksum."""
    path.write_bytes(b"IPVAE" + payload + hashlib.sha256(payload).digest()[:8])


class TestPersistence:
    @pytest.mark.parametrize("kwargs", [
        dict(rng=3), dict(input_dim=6, latent_dim=1, hidden=(5, 3), rng=4),
    ], ids=["default", "hidden-5-3"])
    def test_bytes_match_per_tensor_writer(self, tmp_path, kwargs):
        model = VaeModel.initialize(**kwargs)
        model.input_offset, model.input_scale = 4.25, 7.5
        save(model, tmp_path / "model.ipvae")
        expected = old_pack_payload(model)
        assert (tmp_path / "model.ipvae").read_bytes() == (
            b"IPVAE" + expected + hashlib.sha256(expected).digest()[:8]
        )
        save(load(tmp_path / "model.ipvae"), tmp_path / "again.ipvae")
        assert (tmp_path / "again.ipvae").read_bytes() == (
            tmp_path / "model.ipvae").read_bytes()

    def test_wrong_parameter_count_rejected(self, toy_model):
        with pytest.raises(ValueError, match="parameters"):
            VaeModel(toy_model.params[:-1], 20, 2, (16, 8))

    def test_payload_shorter_than_header(self, tmp_path):
        write_payload(tmp_path / "m.ipvae", struct.pack("<3I", 1, 2, 20))
        with pytest.raises(ModelTruncatedError, match="header"):
            load(tmp_path / "m.ipvae")

    @pytest.mark.parametrize("widths", [
        (2, 16, 8, 2, 16, 8), (2, 16, 8, 1, 8, 0), (3, 16, 8, 2, 8, 16),
    ], ids=["not-mirrored", "one-decoder-layer", "three-encoder-layers"])
    def test_unsupported_architecture(self, tmp_path, widths):
        header = MODEL_HEADER.pack(1, 2, 20, *widths, 0.0, 1.0)
        write_payload(tmp_path / "m.ipvae", header + bytes(8 * 1000))
        with pytest.raises(ModelFileError, match="architecture"):
            load(tmp_path / "m.ipvae")

    @pytest.mark.parametrize("widths, message", [
        ((0, 20, 16, 8), "latent width must be >= 1, got 0"),
        ((2, 0, 16, 8), "input width must be >= 1, got 0"),
        ((2, 20, 0, 8), "first hidden width must be >= 1, got 0"),
        ((2, 20, 16, 0), "second hidden width must be >= 1, got 0"),
    ], ids=["latent", "input", "hidden-1", "hidden-2"])
    def test_zero_width_rejected(self, tmp_path, widths, message):
        # the payload is complete for the widths it declares
        k, d, h1, h2 = widths
        shapes = [(h1, d), (h2, h1), (k, h2), (k, h2), (h2, k), (h1, h2), (d, h1)]
        size = sum(out_dim * (in_dim + 1) for out_dim, in_dim in shapes)
        header = MODEL_HEADER.pack(1, k, d, 2, h1, h2, 2, h2, h1, 0.0, 1.0)
        write_payload(tmp_path / "m.ipvae", header + bytes(8 * size))
        with pytest.raises(ModelFileError, match=message):
            load(tmp_path / "m.ipvae")

    def test_trailing_bytes(self, toy_model, tmp_path):
        write_payload(tmp_path / "m.ipvae", old_pack_payload(toy_model) + bytes(8))
        with pytest.raises(ModelFileError, match="8 trailing bytes"):
            load(tmp_path / "m.ipvae")

    def test_non_finite_parameter(self, tmp_path):
        model = VaeModel.initialize(rng=5)
        model.params[7] = np.nan
        model.params[-1] = np.inf
        path = tmp_path / "m.ipvae"
        save(model, path)
        with pytest.raises(ModelFileError) as raised:
            load(path)
        assert str(raised.value) == f"{path}: parameter 7 (encoder layer 1 weights) is not finite"

    @pytest.mark.parametrize("index, name", [
        (0, "encoder layer 1 weights"), (320, "encoder layer 1 bias"),
        (336, "encoder layer 2 weights"), (472, "latent mean head weights"),
        (490, "latent log-variance head weights"), (507, "latent log-variance head bias"),
        (524, "decoder layer 1 bias"), (532, "decoder layer 2 weights"),
        (1015, "decoder layer 3 bias"),
    ])
    def test_non_finite_parameter_names_its_layer(self, tmp_path, index, name):
        model = VaeModel.initialize(rng=5)
        model.params[index] = -np.inf
        save(model, tmp_path / "m.ipvae")
        with pytest.raises(ModelFileError, match=rf"parameter {index} \({name}\) is not finite"):
            load(tmp_path / "m.ipvae")

    @pytest.mark.parametrize("field, value, message", [
        ("input_scale", 0.0, "input_scale must be finite and > 0, got 0.0"),
        ("input_scale", -1.0, "input_scale must be finite and > 0, got -1.0"),
        ("input_scale", np.nan, "input_scale must be finite and > 0, got nan"),
        ("input_offset", np.inf, "input_offset must be finite, got inf"),
    ], ids=["zero-scale", "negative-scale", "nan-scale", "inf-offset"])
    def test_unusable_standardization_rejected(self, tmp_path, field, value, message):
        """Denoising sorts standardized reconstructions before it
        unstandardizes them, which needs a finite scale > 0."""
        model = VaeModel.initialize(rng=5)
        setattr(model, field, value)
        path = tmp_path / "m.ipvae"
        save(model, path)
        with pytest.raises(ModelFileError) as raised:
            load(path)
        assert str(raised.value) == f"{path}: {message}"

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
        path = tmp_path / "junk.ipvae"
        path.write_bytes(b"NOTIP" + b"\x00" * 64)
        with pytest.raises(ModelFileError, match="magic"):
            load(path)
