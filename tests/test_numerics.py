"""Unit tests for the dense-network math core."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adam_reference import reference_adam_step
from fedanom.errors import ConfigError, NumericError, ShapeError
from fedanom.numerics import (
    Activation,
    AdamState,
    LayerSpec,
    LrSchedule,
    ParameterSet,
    _forward_cached,
    adam_update,
    derive_rng,
    derive_seed,
    feed_forward,
    glorot_init,
    loss_and_gradients,
    lr_at,
    pack,
)


def dense(weights, bias, activation=Activation.IDENTITY):
    """A one-layer model with the given weights and bias."""
    weights = np.asarray(weights, dtype=float)
    flat = np.concatenate([weights.ravel(), np.asarray(bias, dtype=float)])
    return ParameterSet(flat, [LayerSpec(*weights.shape, activation)])


def activated(kind, x):
    """The activation alone, over the one-row matrix `x`: one
    identity-weight, zero-bias layer."""
    width = x.shape[1]
    return feed_forward(dense(np.eye(width), np.zeros(width), kind), x)


def reference_activate(kind, z):
    if kind is Activation.RELU:
        return np.maximum(z, 0.0)
    if kind is Activation.TANH:
        return np.tanh(z)
    return z


def batch_loss(recon, batch):
    """The loss of one layer with zero weights whose bias is `recon`: the
    model outputs `recon` for every row, so this is the batch MSE."""
    recon = np.asarray(recon, dtype=float)
    layer = dense(np.zeros((recon.size, batch.shape[1])), recon)
    return loss_and_gradients(layer, batch, [None],
                              ParameterSet.zeros(layer.specs))[0]


def random_params(specs, seed, scale=0.5):
    """Random parameters including biases, keeping ReLU preactivations
    away from the kink at zero where finite differences are invalid."""
    rng = np.random.default_rng(seed)
    n = sum(s.out_dim * s.in_dim + s.out_dim for s in specs)
    return ParameterSet(rng.uniform(-scale, scale, size=n), specs)


def finite_difference_grad(params, batch, h=1e-5):
    """Independent oracle: central differences of the forward loss."""
    specs = params.specs
    masks, out = [None] * len(specs), ParameterSet.zeros(specs)
    flat = pack(params)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        up = flat.copy()
        up[i] += h
        down = flat.copy()
        down[i] -= h
        lu, _ = loss_and_gradients(ParameterSet(up, specs), batch, masks, out)
        ld, _ = loss_and_gradients(ParameterSet(down, specs), batch, masks,
                                   out)
        grad[i] = (lu - ld) / (2.0 * h)
    return grad


class TestDenseForward:
    def test_hand_matrix_arithmetic(self):
        layer = dense([[1.0, 2.0], [3.0, 4.0]], [0.5, -0.5])
        out = feed_forward(layer, np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(out, [[3.5, 6.5]])

    def test_zero_weights_zero_bias(self):
        for act in Activation:
            layer = dense(np.zeros((3, 2)), np.zeros(3), act)
            out = feed_forward(layer, np.array([[4.0, -7.0]]))
            np.testing.assert_array_equal(out, np.zeros((1, 3)))

    def test_identity_weights_relu(self):
        layer = dense(np.eye(2), np.zeros(2), Activation.RELU)
        out = feed_forward(layer, np.array([[-1.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 2.0]])

    def test_dimension_mismatch_names_sizes(self):
        layer = dense(np.eye(2), np.zeros(2), Activation.RELU)
        with pytest.raises(ShapeError, match="3"):
            feed_forward(layer, np.zeros((1, 3)))

    def test_batch_input(self):
        layer = dense([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
        out = feed_forward(layer, np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_allclose(out, [[2.0, 3.0], [4.0, 5.0]])

    def test_linear_before_activation(self):
        rng = np.random.default_rng(3)
        layer = dense(rng.normal(size=(4, 3)), np.zeros(4))
        x = rng.normal(size=(1, 3))
        np.testing.assert_allclose(feed_forward(layer, 2.5 * x),
                                   2.5 * feed_forward(layer, x))


class TestActivate:
    def test_relu(self):
        np.testing.assert_array_equal(
            activated(Activation.RELU, np.array([[-1.0, 0.0, 2.0]])),
            [[0.0, 0.0, 2.0]])

    def test_tanh_zero(self):
        assert activated(Activation.TANH, np.array([[0.0]]))[0, 0] == 0.0

    def test_tanh_saturation(self):
        out = activated(Activation.TANH, np.array([[1e9]]))
        assert abs(out[0, 0] - 1.0) < 1e-12

    def test_identity(self):
        x = np.array([[1.5, -2.5]])
        np.testing.assert_array_equal(activated(Activation.IDENTITY, x), x)


class TestMse:
    def test_equal_inputs(self):
        assert batch_loss([1.0, 2.0], np.array([[1.0, 2.0]])) == 0.0

    def test_hand_values(self):
        assert batch_loss([1.0, 1.0], np.array([[0.0, 0.0]])) == 1.0
        assert batch_loss([1.0], np.array([[3.0]])) == 4.0
        # the mean runs over rows as well as features
        assert batch_loss([1.0], np.array([[3.0], [1.0]])) == 2.0

    def test_length_mismatch(self):
        layer = dense(np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(ShapeError):
            loss_and_gradients(layer, np.zeros((1, 3)), [None],
                               ParameterSet.zeros(layer.specs))


class TestGradients:
    def test_zero_params_zero_batch(self):
        specs = (LayerSpec(2, 2, Activation.RELU),
                 LayerSpec(2, 2, Activation.TANH))
        params = ParameterSet(np.zeros(12), specs)
        _, grad = loss_and_gradients(params, np.zeros((4, 2)), [None, None],
                                     ParameterSet.zeros(specs))
        np.testing.assert_array_equal(grad, np.zeros(12))

    @pytest.mark.parametrize("seed,dims", [(7, (3, 2)), (11, (5, 4, 3)),
                                           (23, (10, 4, 2))])
    def test_matches_finite_differences(self, seed, dims):
        specs = []
        chain = (*dims, *reversed(dims[:-1]))
        for i in range(len(chain) - 1):
            act = Activation.TANH if i == len(chain) - 2 else Activation.RELU
            specs.append(LayerSpec(chain[i + 1], chain[i], act))
        params = random_params(specs, seed)
        assert pack(params).size <= 200
        batch = np.random.default_rng(seed + 1).normal(size=(6, dims[0])) * 0.8
        _, grad = loss_and_gradients(params, batch, [None] * len(specs),
                                     ParameterSet.zeros(specs))
        oracle = finite_difference_grad(params, batch)
        rel = np.abs(grad - oracle) / np.maximum(np.abs(oracle), 1e-8)
        assert rel.max() <= 1e-4

    def test_duplicated_batch_same_gradient(self):
        specs = (LayerSpec(2, 3, Activation.RELU),
                 LayerSpec(3, 2, Activation.TANH))
        params = random_params(specs, 5)
        batch = np.random.default_rng(6).normal(size=(4, 3))
        doubled = np.vstack([batch, batch])
        grads = [loss_and_gradients(params, rows, [None, None],
                                    ParameterSet.zeros(specs))[1]
                 for rows in (batch, doubled)]
        np.testing.assert_allclose(*grads, rtol=0, atol=1e-15)

    def test_shape_mismatch(self):
        specs = (LayerSpec(2, 3, Activation.RELU),)
        params = random_params(specs, 1)
        with pytest.raises(ShapeError):
            loss_and_gradients(params, np.zeros((4, 5)), [None],
                               ParameterSet.zeros(specs))

    def test_dropout_masks_enter_gradient(self):
        specs = (LayerSpec(4, 3, Activation.RELU, dropout=0.5),
                 LayerSpec(3, 4, Activation.TANH))
        params = random_params(specs, 8)
        batch = np.random.default_rng(9).normal(size=(5, 3))
        masks = [np.zeros((5, 4)), None]
        # layer 0 output fully dropped: its weights get zero gradient
        _, grad = loss_and_gradients(params, batch, masks,
                                     ParameterSet.zeros(specs))
        n_w0 = 4 * 3 + 4
        np.testing.assert_array_equal(grad[:n_w0], np.zeros(n_w0))


class TestAdam:
    def test_closed_form_first_step(self):
        params, state = np.zeros(1), AdamState.zeros(1)
        adam_update(params, np.ones(1), state, 0.001, np.empty((2, 1)))
        assert abs(params[0] - (-0.001)) < 1e-6
        assert state.step_count == 1

    def test_zero_gradient_fixed_point(self):
        start = np.array([1.0, -2.0, 3.0])
        params, state = start.copy(), AdamState.zeros(3)
        adam_update(params, np.zeros(3), state, 0.01, np.empty((2, 3)))
        np.testing.assert_array_equal(params, start)
        assert state.step_count == 1

    def test_statefulness(self):
        g, scratch = np.array([1.0, -1.0]), np.empty((2, 2))
        p2, s2 = np.zeros(2), AdamState.zeros(2)
        adam_update(p2, g, s2, 0.01, scratch)
        p1_again = p2.copy()
        adam_update(p2, g, s2, 0.01, scratch)
        adam_update(p1_again, g, AdamState.zeros(2), 0.01, scratch)
        assert s2.step_count == 2
        assert not np.array_equal(p2, p1_again)

    def test_non_finite_gradient_names_coordinate(self):
        with pytest.raises(NumericError, match="coordinate 1"):
            adam_update(np.zeros(3), np.array([0.0, np.nan, 0.0]),
                        AdamState.zeros(3), 0.01, np.empty((2, 3)))


class TestLrSchedule:
    def test_epoch_zero_base_rate(self):
        assert lr_at(LrSchedule(0.001, 1, 0.9), 0) == 0.001

    def test_decayed_value(self):
        assert lr_at(LrSchedule(0.001, 1, 0.9), 3) == pytest.approx(
            0.000729, abs=1e-12)

    def test_gamma_one_constant(self):
        sched = LrSchedule(0.01, 1, 1.0)
        assert all(lr_at(sched, e) == 0.01 for e in range(10))

    def test_monotone_non_increasing(self):
        sched = LrSchedule(0.5, 3, 0.7)
        rates = [lr_at(sched, e) for e in range(30)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))


class TestPack:
    def test_round_trip_exact(self):
        specs = (LayerSpec(3, 2, Activation.RELU, 0.2),
                 LayerSpec(2, 3, Activation.TANH))
        params = random_params(specs, 42)
        rebuilt = ParameterSet(pack(params), specs)
        for a, b in zip(params.weights, rebuilt.weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(params.biases, rebuilt.biases):
            np.testing.assert_array_equal(a, b)
        assert rebuilt.specs == params.specs == specs

    def test_empty_layer_list(self):
        with pytest.raises(ShapeError, match="at least one layer"):
            ParameterSet(np.zeros(0), ())

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            ParameterSet(np.zeros(5), (LayerSpec(2, 2, Activation.RELU),))

    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, a, b, seed):
        specs = (LayerSpec(b, a, Activation.RELU),
                 LayerSpec(a, b, Activation.TANH))
        n = a * b + b + b * a + a
        flat = np.random.default_rng(seed).normal(size=n)
        np.testing.assert_array_equal(pack(ParameterSet(flat, specs)), flat)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)

    def test_distinct_components_distinct_streams(self):
        assert derive_seed(1, 2) != derive_seed(2, 1)
        assert derive_seed(0) != derive_seed(0, 0)

    def test_rng_reproducible(self):
        a = derive_rng(5, 6).random(4)
        b = derive_rng(5, 6).random(4)
        np.testing.assert_array_equal(a, b)


class TestGlorotInit:
    def test_deterministic(self):
        specs = (LayerSpec(4, 3, Activation.RELU),)
        a = glorot_init(specs, 11)
        b = glorot_init(specs, 11)
        np.testing.assert_array_equal(a.flat, b.flat)

    def test_bounds_and_zero_bias(self):
        specs = (LayerSpec(8, 6, Activation.RELU),)
        p = glorot_init(specs, 2)
        limit = math.sqrt(6.0 / 14.0)
        assert np.all(np.abs(p.weights[0]) <= limit)
        np.testing.assert_array_equal(p.biases[0], np.zeros(8))

    @given(st.lists(st.integers(1, 6), min_size=2, max_size=5),
           st.floats(0.0, 0.9), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_views_of_one_vector_property(self, dims, dropout, seed):
        specs = chain_specs(dims, dropout)
        params = glorot_init(specs, seed)
        np.testing.assert_array_equal(params.flat,
                                      reference_glorot(specs, seed))
        pos = 0
        for w, b, s in zip(params.weights, params.biases, params.specs):
            assert w.shape == (s.out_dim, s.in_dim)
            assert np.shares_memory(w, params.flat)
            assert np.shares_memory(b, params.flat)
            np.testing.assert_array_equal(
                np.concatenate([w.ravel(), b]),
                params.flat[pos:pos + w.size + b.size])
            pos += w.size + b.size
        assert pos == params.n_params
        flat = np.random.default_rng(seed).normal(size=pos)
        assert pack(ParameterSet(flat, specs)).tobytes() == flat.tobytes()


def reference_glorot(specs, seed):
    """The initializer drawing each layer's weights into its own array, in
    layer order, then packed: the draw the fingerprints were taken with."""
    rng = derive_rng(seed)
    parts = []
    for s in specs:
        limit = math.sqrt(6.0 / (s.in_dim + s.out_dim))
        w = rng.uniform(-limit, limit, size=(s.out_dim, s.in_dim))
        parts += [w.ravel(), np.zeros(s.out_dim)]
    return np.concatenate(parts)


class TestParameterSetInvariants:
    def test_chain_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="layer 1: in_dim 5"):
            ParameterSet(np.zeros(8 + 12),
                         [LayerSpec(2, 3, Activation.RELU),
                          LayerSpec(2, 5, Activation.RELU)])

    @pytest.mark.parametrize("field, spec, error", [
        ("out_dim", LayerSpec(0, 2, Activation.RELU), ShapeError),
        ("in_dim", LayerSpec(2, 2.0, Activation.RELU), ShapeError),
        ("out_dim", LayerSpec(None, 2, Activation.RELU), ShapeError),
        ("activation", LayerSpec(2, 2, "gelu"), ConfigError),
        ("dropout", LayerSpec(2, 2, Activation.RELU, 1.0), ConfigError),
        ("dropout", LayerSpec(2, 2, Activation.RELU, None), ConfigError),
    ])
    def test_bad_spec_names_layer_and_field(self, field, spec, error):
        specs = [LayerSpec(2, 2, Activation.RELU), spec]
        with pytest.raises(error, match=f"^layer 1: {field} "):
            ParameterSet.zeros(specs)


def reference_loss_and_gradients(params, batch, masks):
    """Backward pass from pre-activations, one concatenated gradient."""
    inputs, preacts, a = [], [], batch
    layers = list(zip(params.weights, params.biases, params.specs))
    for i, (w, b, s) in enumerate(layers):
        inputs.append(a)
        z = a @ w.T + b
        preacts.append(z)
        a = reference_activate(s.activation, z)
        if masks[i] is not None:
            a = a * masks[i]
    diff = a - batch
    d_h = (2.0 / diff.size) * diff
    parts = []
    for i in range(len(layers) - 1, -1, -1):
        w, _, s = layers[i]
        d_a = d_h if masks[i] is None else d_h * masks[i]
        z = preacts[i]
        if s.activation is Activation.RELU:
            d_z = d_a * (z > 0.0).astype(np.float64)
        elif s.activation is Activation.TANH:
            d_z = d_a * (1.0 - np.tanh(z) * np.tanh(z))
        else:
            d_z = d_a * np.ones_like(z)
        parts[:0] = [(d_z.T @ inputs[i]).ravel(), d_z.sum(axis=0)]
        d_h = d_z @ w
    return float(np.mean(diff * diff)), np.concatenate(parts)


def chain_specs(dims, dropout=0.0):
    chain = (*dims, *reversed(dims[:-1]))
    return tuple(
        LayerSpec(chain[i + 1], chain[i],
                  Activation.TANH if i == len(chain) - 2 else Activation.RELU,
                  dropout)
        for i in range(len(chain) - 1))


class TestFlatBuffers:
    @given(st.lists(st.integers(1, 5), min_size=2, max_size=4),
           st.integers(1, 9), st.booleans(), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_gradients_match_reference_bitwise(self, dims, rows, dropped,
                                               seed):
        specs = chain_specs(dims)
        params = random_params(specs, seed)
        rng = np.random.default_rng(seed + 1)
        batch = rng.normal(size=(rows, dims[0]))
        masks = [None] * len(specs)
        if dropped:
            masks = [(rng.random((rows, s.out_dim)) >= 0.3) / 0.7
                     for s in specs[:-1]] + [None]
        loss, grad = loss_and_gradients(params, batch, masks,
                                        ParameterSet.zeros(specs))
        ref_loss, ref_grad = reference_loss_and_gradients(params, batch,
                                                          masks)
        assert loss == ref_loss
        np.testing.assert_array_equal(grad, ref_grad)

    @given(st.lists(st.integers(1, 5), min_size=2, max_size=4),
           st.integers(1, 9), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_eval_forward_matches_cached_pass_bitwise(self, dims, rows, seed):
        specs = chain_specs(dims)
        params = random_params(specs, seed)
        batch = np.random.default_rng(seed + 1).normal(size=(rows, dims[0]))
        before = batch.copy()
        got = feed_forward(params, batch)
        # the training pass, which caches every layer, without dropout
        cached = _forward_cached(params, batch, [None] * len(specs))[0]
        a = batch
        for w, b, s in zip(params.weights, params.biases, params.specs):
            a = reference_activate(s.activation, a @ w.T + b)
        np.testing.assert_array_equal(got, cached)
        np.testing.assert_array_equal(got, a)
        np.testing.assert_array_equal(batch, before)

    def test_eval_forward_checks_width(self):
        params = random_params(chain_specs((3, 2)), 1)
        with pytest.raises(ShapeError, match="4"):
            feed_forward(params, np.zeros((2, 4)))

    def test_out_buffer_returned_and_equal(self):
        specs = chain_specs((5, 4, 3))
        params = random_params(specs, 3)
        batch = np.random.default_rng(4).normal(size=(7, 5))
        masks = [None] * len(specs)
        buf = ParameterSet(np.full(params.n_params, np.nan), specs)
        loss, grad = loss_and_gradients(params, batch, masks, buf)
        assert grad is buf.flat
        ref_loss, ref_grad = loss_and_gradients(params, batch, masks,
                                                ParameterSet.zeros(specs))
        assert loss == ref_loss
        np.testing.assert_array_equal(buf.flat, ref_grad)

    @given(st.integers(1, 30), st.integers(0, 5), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_adam_matches_formula_bitwise(self, n, warm_steps, seed):
        rng = np.random.default_rng(seed)
        params = rng.normal(size=n)
        state, scratch = AdamState.zeros(n), np.empty((2, n))
        for _ in range(warm_steps):
            adam_update(params, rng.normal(size=n), state, 0.01, scratch)
        grads = rng.normal(size=n)
        expect, after = reference_adam_step(params, grads, state, 0.003)
        adam_update(params, grads, state, 0.003, scratch)
        np.testing.assert_array_equal(params, expect)
        np.testing.assert_array_equal(state.first_moment, after.first_moment)
        np.testing.assert_array_equal(state.second_moment, after.second_moment)
        assert state.step_count == warm_steps + 1

    def test_adam_update_leaves_gradients(self):
        params, grads = np.ones(3), np.array([0.5, -1.0, 2.0])
        state = AdamState(np.full(3, 0.1), np.full(3, 0.2), 4)
        adam_update(params, grads, state, 0.01, np.empty((2, 3)))
        np.testing.assert_array_equal(grads, [0.5, -1.0, 2.0])
        assert state.step_count == 5

    def test_adam_update_in_place(self):
        params, grads = np.zeros(2), np.array([1.0, -1.0])
        state = AdamState.zeros(2)
        expect, after = reference_adam_step(params, grads, state, 0.01)
        adam_update(params, grads, state, 0.01, np.empty((2, 2)))
        np.testing.assert_array_equal(params, expect)
        np.testing.assert_array_equal(state.first_moment, after.first_moment)
        np.testing.assert_array_equal(state.second_moment, after.second_moment)
        assert state.step_count == 1

    def test_adam_overflowing_finite_gradient_accepted(self):
        # the squared sum overflows although every entry is finite
        params, state = np.zeros(2), AdamState.zeros(2)
        adam_update(params, np.array([1e154, -1e154]), state, 0.01,
                    np.empty((2, 2)))
        np.testing.assert_allclose(params, [-0.01, 0.01])
        assert np.all(np.isfinite(state.second_moment))

    def test_layer_views_share_memory(self):
        specs = chain_specs((3, 2))  # 2x3 + 2, then 3x2 + 3: 17 values
        flat = np.arange(17, dtype=float)
        params = ParameterSet(flat, specs)
        assert params.flat is flat
        flat += 1.0
        np.testing.assert_array_equal(params.weights[1][2], [13.0, 14.0])
        params.biases[0][0] = -5.0
        assert flat[6] == -5.0

    def test_layer_views_reject_copies(self):
        specs = chain_specs((3, 2))
        with pytest.raises(ShapeError):
            ParameterSet(np.zeros(34)[::2], specs)
        with pytest.raises(ShapeError):
            ParameterSet(np.zeros(17, dtype=np.float32), specs)
        with pytest.raises(ShapeError):
            ParameterSet([0.0] * 17, specs)
