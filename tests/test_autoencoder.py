"""Unit tests for the autoencoder build/train/evaluate surface."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adam_reference import reference_adam_step
from fedanom import autoencoder
from fedanom.autoencoder import (
    _SCORE_ROWS,
    AutoencoderConfig,
    TrainConfig,
    build,
    reconstruction_errors,
    train_epochs,
)
from fedanom.errors import ConfigError, DataError, ShapeError
from fedanom.numerics import (
    Activation,
    AdamState,
    LrSchedule,
    ParameterSet,
    _forward_cached,
    adam_update,
    derive_rng,
    feed_forward,
    loss_and_gradients,
    lr_at,
    pack,
)


def toy_config(**overrides):
    base = dict(input_dim=6, hidden_dims=(5, 4), bottleneck_dim=3,
                dropout_p=0.0, seed=13)
    base.update(overrides)
    return AutoencoderConfig(**base)


def toy_blob(n=80, dim=6, seed=0):
    rng = np.random.default_rng(seed)
    latent = rng.normal(size=(n, 2))
    mix = rng.normal(size=(2, dim))
    return np.tanh(latent @ mix + 0.05 * rng.normal(size=(n, dim)))


class TestBuild:
    def test_default_architecture_shapes(self):
        params = build(AutoencoderConfig())
        shapes = [w.shape for w in params.weights]
        assert shapes == [(128, 66), (64, 128), (32, 64), (16, 32),
                          (32, 16), (64, 32), (128, 64), (66, 128)]
        assert len(shapes) == 8

    def test_default_packed_length(self):
        params = build(AutoencoderConfig())
        sizes = [w.size + b.size for w, b in zip(params.weights,
                                                   params.biases)]
        encoder = sum(sizes[:4])
        decoder = sum(sizes[4:])
        assert encoder == 19440
        assert decoder == 19490
        assert pack(params).size == 38930

    def test_activation_plan(self):
        params = build(AutoencoderConfig())
        acts = [s.activation for s in params.specs]
        assert acts[:-1] == [Activation.RELU] * 7
        assert acts[-1] is Activation.TANH

    def test_dropout_positions_mirrored(self):
        params = build(AutoencoderConfig())
        assert [s.dropout for s in params.specs] == [
            0.2, 0.2, 0.2, 0.0, 0.2, 0.2, 0.2, 0.0]

    def test_dropout_positions_encoder_only(self):
        params = build(AutoencoderConfig(mirror_dropout=False))
        assert [s.dropout for s in params.specs] == [
            0.2, 0.2, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0]

    def test_tiny_architecture_packed_length(self):
        cfg = AutoencoderConfig(input_dim=3, hidden_dims=(2,),
                                bottleneck_dim=1, dropout_p=0.0, seed=1)
        assert pack(build(cfg)).size == 24

    def test_same_seed_identical(self):
        a = build(toy_config())
        b = build(toy_config())
        np.testing.assert_array_equal(pack(a), pack(b))

    def test_zero_dimension_rejected(self):
        with pytest.raises(ConfigError):
            AutoencoderConfig(input_dim=0)


def halves(params):
    """The encoder (input to bottleneck) and the decoder layers of a
    mirror architecture, as two models."""
    n = len(params.specs) // 2
    cut = sum(w.size + b.size
              for w, b in zip(params.weights[:n], params.biases[:n]))
    return (ParameterSet(params.flat[:cut], params.specs[:n]),
            ParameterSet(params.flat[cut:], params.specs[n:]))


class TestEncodeDecode:
    def test_zero_params_zero_input(self):
        cfg = toy_config()
        enc, dec = halves(ParameterSet.zeros(cfg.layer_specs()))
        np.testing.assert_array_equal(feed_forward(enc, np.zeros((1, 6))),
                                      np.zeros((1, 3)))
        np.testing.assert_array_equal(feed_forward(dec, np.zeros((1, 3))),
                                      np.zeros((1, 6)))

    def test_default_bottleneck_width(self):
        enc, _ = halves(build(AutoencoderConfig()))
        x = np.random.default_rng(0).uniform(-1, 1, (1, 66))
        assert feed_forward(enc, x).shape == (1, 16)

    def test_default_output_width(self):
        _, dec = halves(build(AutoencoderConfig()))
        y = np.random.default_rng(0).uniform(-1, 1, (1, 16))
        assert feed_forward(dec, y).shape == (1, 66)

    def test_decode_inside_tanh_range(self):
        _, dec = halves(build(toy_config(seed=5)))
        rng = np.random.default_rng(2)
        for _ in range(5):
            out = feed_forward(dec, rng.normal(size=(1, 3)) * 3)
            assert np.all(out > -1.0) and np.all(out < 1.0)

    def test_encode_deterministic(self):
        enc, _ = halves(build(toy_config()))
        x = np.random.default_rng(1).uniform(-1, 1, (1, 6))
        np.testing.assert_array_equal(feed_forward(enc, x),
                                      feed_forward(enc, x))

    def test_shape_errors(self):
        enc, dec = halves(build(toy_config()))
        with pytest.raises(ShapeError):
            feed_forward(enc, np.zeros((1, 7)))
        with pytest.raises(ShapeError):
            feed_forward(dec, np.zeros((1, 4)))

    def test_reconstruct_matches_encode_decode(self):
        params = build(toy_config())
        enc, dec = halves(params)
        x = np.random.default_rng(4).uniform(-1, 1, (1, 6))
        np.testing.assert_array_equal(feed_forward(params, x),
                                      feed_forward(dec, feed_forward(enc, x)))


class TestReconstructionErrors:
    def test_row_permutation_permutes_errors(self):
        params = build(toy_config())
        data = toy_blob(20)
        perm = np.random.default_rng(7).permutation(20)
        errors = reconstruction_errors(params, data)
        np.testing.assert_array_equal(reconstruction_errors(params, data[perm]),
                                      errors[perm])

    def test_matches_per_row_mse_oracle(self):
        params = build(toy_config(seed=21))
        data = toy_blob(10, seed=3)
        errors = reconstruction_errors(params, data)
        for i, row in enumerate(data):
            out = row.copy()
            for w, b, s in zip(params.weights, params.biases, params.specs):
                out = out @ w.T + b
                out = (np.tanh(out) if s.activation is Activation.TANH
                       else np.maximum(out, 0.0))
            assert errors[i] == pytest.approx(np.mean((row - out) ** 2),
                                              abs=1e-15)

    def test_identity_behaving_model_zero_error(self):
        # an effectively-identity single pair of layers on zero input
        cfg = AutoencoderConfig(input_dim=2, hidden_dims=(), bottleneck_dim=2,
                                dropout_p=0.0, seed=0)
        params = ParameterSet.zeros(cfg.layer_specs())
        errors = reconstruction_errors(params, np.zeros((1, 2)))
        np.testing.assert_array_equal(errors, [0.0])

    def test_reconstruction_keeps_width(self):
        params = build(toy_config())
        data = toy_blob(5)
        assert feed_forward(params, data).shape == data.shape


B = _SCORE_ROWS
# around one, two and three blocks: the tail merges into the block before
SCORE_ROW_COUNTS = st.one_of(
    st.sampled_from([0, 1, B - 1, B + 1, 2 * B - 1, 2 * B, 2 * B + 1]),
    st.integers(0, B - 1).map(lambda k: 3 * B + k))
WIDTHS = st.one_of(st.just(1), st.integers(2, 130))


class TestBlockedScoring:
    """reconstruction_errors scores _SCORE_ROWS-row blocks. Blocks are
    kept at full size on purpose: passes over fewer than about 1200 rows
    can take other BLAS kernels, which round differently. A model with a
    one-unit layer scores in one pass (threaded gemv rounds by row count)."""

    @given(SCORE_ROW_COUNTS, WIDTHS, st.lists(WIDTHS, max_size=2),
           st.integers(1, 16), st.integers(0, 2**31 - 1))
    # the one-unit output layer here rounded row 7506 differently in the
    # last block than in the whole input, with two BLAS threads
    @example(n=7508, input_dim=1, hidden=[130], bottleneck=12,
             seed=32050264)
    @settings(max_examples=25, deadline=None)
    def test_matches_one_pass_reference(self, n, input_dim, hidden,
                                        bottleneck, seed):
        params = build(AutoencoderConfig(
            input_dim=input_dim, hidden_dims=tuple(hidden),
            bottleneck_dim=bottleneck, dropout_p=0.0, seed=seed))
        data = np.random.default_rng(seed).uniform(-1, 1, (n, input_dim))
        d = data - feed_forward(params, data)
        expected = np.mean(d * d, axis=1)
        got = reconstruction_errors(params, data)
        assert got.shape == (n,)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [0, 1, B - 1, B, 2 * B - 1, 2 * B,
                                   2 * B + 1, 5 * B - 1])
    def test_each_pass_gets_a_full_block(self, monkeypatch, n):
        rows = []

        def spy(params, x):
            rows.append(x.shape[0])
            return feed_forward(params, x)

        monkeypatch.setattr(autoencoder, "feed_forward", spy)
        reconstruction_errors(build(toy_config()), toy_blob(n))
        assert sum(rows) == n
        assert rows == [n] or min(rows) >= B
        assert len(rows) == max(n // B, 1)

    @pytest.mark.parametrize("overrides", [
        dict(input_dim=1),
        dict(bottleneck_dim=1),
        dict(hidden_dims=(5, 1)),
    ])
    def test_one_unit_layer_scores_in_one_pass(self, monkeypatch, overrides):
        rows = []

        def spy(params, x):
            rows.append(x.shape[0])
            return feed_forward(params, x)

        cfg = toy_config(**overrides)
        monkeypatch.setattr(autoencoder, "feed_forward", spy)
        reconstruction_errors(build(cfg), toy_blob(3 * B + 5, cfg.input_dim))
        assert rows == [3 * B + 5]


class TestTrainEpochs:
    def test_empty_dataset_rejected(self):
        params = build(toy_config())
        with pytest.raises(DataError):
            train_epochs(params, np.zeros((0, 6)), TrainConfig(epochs=1))

    def test_loss_descends_on_blob(self):
        params = build(toy_config())
        data = toy_blob(120)
        tc = TrainConfig(epochs=50, batch_size=16,
                         schedule=LrSchedule(0.001, 1, 0.9), shuffle_seed=3)
        _, trace = train_epochs(params, data, tc)
        assert len(trace) == 50
        assert trace[-1] < trace[0]

    def test_identical_seeds_bit_identical(self):
        data = toy_blob(60)
        tc = TrainConfig(epochs=4, batch_size=8, shuffle_seed=9)
        out = []
        for _ in range(2):
            params = build(toy_config(dropout_p=0.2))
            trained, trace = train_epochs(params, data, tc)
            out.append((pack(trained), trace))
        np.testing.assert_array_equal(out[0][0], out[1][0])
        assert out[0][1] == out[1][1]

    def test_different_shuffle_seed_differs(self):
        data = toy_blob(60)
        params = build(toy_config(dropout_p=0.2))
        runs = []
        for seed in (1, 2):
            tc = TrainConfig(epochs=2, batch_size=8, shuffle_seed=seed)
            trained, _ = train_epochs(params, data, tc)
            runs.append(pack(trained))
        assert not np.array_equal(runs[0], runs[1])

    def test_partial_final_batch_kept(self, monkeypatch):
        data = toy_blob(10)
        params = build(toy_config())
        tc = TrainConfig(epochs=1, batch_size=8, shuffle_seed=0)
        steps = []

        def counting_update(flat, grads, state, rate, scratch):
            adam_update(flat, grads, state, rate, scratch)
            steps.append(state.step_count)

        monkeypatch.setattr(autoencoder, "adam_update", counting_update)
        train_epochs(params, data, tc)
        # 10 rows with batch 8 -> 2 optimizer steps, so both batches count;
        # the state starts from zero moments
        assert steps == [1, 2]

    def test_dropout_zero_eval_equals_train_forward(self):
        cfg = toy_config(dropout_p=0.0)
        params = build(cfg)
        data = toy_blob(4)
        masks = [None] * len(params.specs)
        np.testing.assert_array_equal(_forward_cached(params, data, masks)[0],
                                      feed_forward(params, data))


class TestInvariants:
    def test_output_always_in_tanh_range(self):
        params = build(toy_config(seed=17))
        rng = np.random.default_rng(11)
        out = feed_forward(params, rng.uniform(-1, 1, size=(50, 6)))
        assert np.all(out > -1.0) and np.all(out < 1.0)

    def test_shape_contract(self):
        params = build(toy_config())
        x = np.random.default_rng(1).uniform(-1, 1, (3, 6))
        assert feed_forward(params, x).shape == x.shape


def reference_train_epochs(params, data, tc, state):
    """The per-step loop train_epochs replaced: dropout masks drawn layer
    by layer, an allocating gradient, a pure Adam step, then a rebuild of
    every layer."""
    rng = derive_rng(tc.shuffle_seed)
    specs = params.specs
    flat = pack(params)
    trace = []
    for epoch in range(tc.epochs):
        order = rng.permutation(data.shape[0])
        rate = lr_at(tc.schedule, epoch)
        losses = []
        for start in range(0, data.shape[0], tc.batch_size):
            idx = order[start:start + tc.batch_size]
            masks = [(rng.random((len(idx), s.out_dim)) >= s.dropout)
                     .astype(np.float64) / (1.0 - s.dropout)
                     if s.dropout > 0.0 else None for s in specs]
            loss, grad = loss_and_gradients(params, data[idx], masks,
                                            ParameterSet.zeros(specs))
            flat, state = reference_adam_step(flat, grad, state, rate)
            params = ParameterSet(flat, specs)
            losses.append(loss)
        trace.append(float(np.mean(losses)))
    return params, state, trace


def assert_same_training(cfg, data, tc):
    params = build(cfg)
    got, got_trace = train_epochs(params, data, tc)
    state = AdamState.zeros(params.n_params, tc.adam_beta1, tc.adam_beta2,
                            tc.adam_epsilon)
    ref, _, ref_trace = reference_train_epochs(params, data, tc, state)
    np.testing.assert_array_equal(pack(got), pack(ref))
    assert got_trace == ref_trace


class TestFlatTrainingCore:
    @pytest.mark.parametrize("overrides", [
        dict(dropout_p=0.2),
        dict(dropout_p=0.0),
        dict(dropout_p=0.3, mirror_dropout=False),
    ])
    def test_matches_reference_loop_with_partial_batch(self, overrides):
        # 45 rows in batches of 8: the last batch of each epoch has 5 rows
        tc = TrainConfig(epochs=3, batch_size=8, shuffle_seed=4)
        assert_same_training(toy_config(**overrides), toy_blob(45), tc)

    @given(st.integers(1, 6), st.lists(st.integers(1, 5), max_size=2),
           st.integers(1, 4), st.sampled_from([0.0, 0.2, 0.5]),
           st.booleans(), st.integers(1, 40), st.integers(1, 16),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_reference_loop_property(self, input_dim, hidden,
                                             bottleneck, p, mirror, rows,
                                             batch_size, seed):
        cfg = AutoencoderConfig(input_dim=input_dim, hidden_dims=tuple(hidden),
                                bottleneck_dim=bottleneck, dropout_p=p,
                                seed=seed, mirror_dropout=mirror)
        tc = TrainConfig(epochs=2, batch_size=batch_size,
                         shuffle_seed=seed + 1)
        assert_same_training(cfg, toy_blob(rows, input_dim, seed), tc)

    def test_inputs_left_unmodified(self):
        params = build(toy_config(dropout_p=0.2))
        data = toy_blob(30)
        tc = TrainConfig(epochs=2, batch_size=8, shuffle_seed=1)
        flat_before = pack(params)
        data_before = data.copy()
        trained, _ = train_epochs(params, data, tc)
        np.testing.assert_array_equal(pack(params), flat_before)
        np.testing.assert_array_equal(data, data_before)
        assert not np.shares_memory(trained.flat, params.flat)
