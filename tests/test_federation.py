"""Unit tests for aggregation strategies and the round loop."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedanom.autoencoder import AutoencoderConfig, TrainConfig, build
from fedanom.detector import SOURCE_ROUND_MIN, ThresholdDetector
from fedanom.errors import (
    ConfigError,
    DataError,
    DegenerateAggregationError,
    DegenerateLossError,
    DivergenceError,
    NumericError,
    ShapeError,
)
from fedanom.federation import (
    ClientState,
    ClientUpdate,
    LatencyModel,
    ServerState,
    StrategyConfig,
    StrategyKind,
    aggregate,
    assign_latencies,
    fedavg_aggregate,
    local_round,
    qffl_aggregate,
    qffl_deltas,
    relevance_score,
    rms_summary,
    run_federated,
    sample_clients,
)
from fedanom.numerics import LrSchedule, derive_rng, derive_seed, pack


def update(cid, params, loss=1.0, n=10, thr=0.5):
    return ClientUpdate(cid, np.asarray(params, dtype=float), (loss,), n, thr)


def toy_model_cfg(dim=4, seed=3):
    return AutoencoderConfig(input_dim=dim, hidden_dims=(3,),
                             bottleneck_dim=2, dropout_p=0.0, seed=seed)


def toy_clients(n_clients, dim=4, rows=24, seed=0):
    rng = np.random.default_rng(seed)
    clients = []
    for k in range(n_clients):
        latent = rng.normal(size=(rows, 2))
        mix = rng.normal(size=(2, dim))
        train = np.tanh(latent @ mix)
        val = np.tanh(rng.normal(size=(8, 2)) @ mix)
        attack = np.clip(val[:4] + 1.5, -1, 1)
        clients.append(ClientState(k, train, val, attack, rng_seed=100 + k))
    return clients


class TestSampleClients:
    def test_full_fraction_all_sorted(self):
        out = sample_clients([3, 1, 2], 1.0, derive_rng(0))
        assert out == [1, 2, 3]

    def test_two_client_full_participation(self):
        for seed in range(5):
            assert sample_clients([0, 1], 1.0, derive_rng(seed)) == [0, 1]

    def test_deterministic(self):
        a = sample_clients(list(range(10)), 0.5, derive_rng(7))
        b = sample_clients(list(range(10)), 0.5, derive_rng(7))
        assert a == b and len(a) == 5

    def test_ceil_of_fraction(self):
        out = sample_clients(list(range(5)), 0.5, derive_rng(1))
        assert len(out) == 3  # ceil(2.5)


class TestFedavgAggregate:
    def test_single_update_unchanged(self):
        u = update(0, [1.0, -2.0, 3.0])
        np.testing.assert_array_equal(
            fedavg_aggregate([u], StrategyConfig()), u.params)

    def test_plain_mean(self):
        out = fedavg_aggregate([update(0, [2.0, 4.0]), update(1, [4.0, 6.0])],
                               StrategyConfig())
        np.testing.assert_allclose(out, [3.0, 5.0])

    def test_weighted_mean(self):
        cfg = StrategyConfig(weighted_mean=True)
        out = fedavg_aggregate([update(0, [0.0], n=1), update(1, [4.0], n=3)],
                               cfg)
        np.testing.assert_allclose(out, [3.0])


class TestQfflDeltas:
    def test_q_zero_algebra(self):
        delta, h = qffl_deltas(np.array([1.0]), update(0, [0.5], loss=7.3),
                               q=0.0, lipschitz=10.0)
        np.testing.assert_allclose(delta, [5.0])
        assert h == 10.0

    def test_q_one_hand_algebra(self):
        delta, h = qffl_deltas(np.array([1.0]), update(0, [0.0], loss=2.0),
                               q=1.0, lipschitz=1.0)
        np.testing.assert_allclose(delta, [2.0])
        assert h == pytest.approx(3.0, abs=1e-12)

    def test_zero_step(self):
        w = np.array([0.3, -0.4])
        delta, h = qffl_deltas(w, update(0, w.copy(), loss=2.5), q=0.5,
                               lipschitz=4.0)
        np.testing.assert_array_equal(delta, np.zeros(2))
        assert h == pytest.approx(4.0 * 2.5 ** 0.5, abs=1e-12)

    def test_zero_loss_with_positive_q(self):
        with pytest.raises(DegenerateLossError):
            qffl_deltas(np.array([1.0]), update(0, [0.0], loss=0.0), q=0.5,
                        lipschitz=1.0)


class TestQfflAggregate:
    def test_single_client_q_zero_recovers_client(self):
        w = np.array([1.0])
        delta, h = qffl_deltas(w, update(0, [0.5]), q=0.0, lipschitz=10.0)
        out = qffl_aggregate(w, [(delta, h)])
        np.testing.assert_allclose(out, [0.5])

    def test_q_zero_reduces_to_fedavg(self):
        # Li et al. state the reduction exactly, but w - sum(L (w - w_k)) /
        # (K L) rounds differently from the plain mean: most random cases
        # differ in the last bits, so this is allclose and not bitwise.
        rng = np.random.default_rng(5)
        for trial in range(20):
            dim = rng.integers(1, 12)
            k = rng.integers(1, 6)
            server = ServerState(rng.normal(size=dim))
            ups = [update(i, rng.normal(size=dim),
                          loss=float(rng.uniform(0.1, 3)), n=int(rng.integers(1, 9)))
                   for i in range(k)]
            lipschitz = float(rng.uniform(0.5, 100))
            got = aggregate(server, ups, StrategyConfig(
                kind=StrategyKind.QFFL, q=0.0, lipschitz=lipschitz), 1)
            want = aggregate(server, ups, StrategyConfig(), 1)
            np.testing.assert_allclose(got.global_params, want.global_params,
                                       rtol=1e-9, atol=1e-12)

    def test_zero_deltas_keep_global(self):
        w = np.array([0.7, -0.2])
        out = qffl_aggregate(w, [(np.zeros(2), 3.0), (np.zeros(2), 1.0)])
        np.testing.assert_array_equal(out, w)

    def test_degenerate_denominator(self):
        with pytest.raises(DegenerateAggregationError):
            qffl_aggregate(np.zeros(2), [(np.zeros(2), 0.0)])


class TestRelevance:
    def test_singleton_window(self):
        assert relevance_score([], 0.42) == 1.0

    def test_two_equal_summaries(self):
        assert relevance_score([1.3], 1.3) == pytest.approx(0.5, abs=1e-12)

    def test_softmax_arithmetic(self):
        assert relevance_score([0.0], math.log(3.0)) == pytest.approx(
            0.75, abs=1e-12)

    def test_overflow_guarded(self):
        alpha = relevance_score([1e6, 1e6 + 1.0], 1e6)
        assert 0.0 < alpha < 1.0

    def test_rms_summary(self):
        assert rms_summary(np.array([3.0, 4.0])) == pytest.approx(
            5.0 / math.sqrt(2.0), abs=1e-12)


class TestFairRound:
    """FairFedAvg rounds through `aggregate`."""

    def cfg(self, **kw):
        base = dict(kind=StrategyKind.FAIR_FEDAVG, q=0.0, lipschitz=10.0,
                    relevance_window=64)
        base.update(kw)
        return StrategyConfig(**base)

    def test_stable_participation_no_relevance(self):
        server = ServerState(np.array([1.0, 1.0]), round_index=1,
                             prev_participants=3)
        ups = [update(i, [0.5, 0.5]) for i in range(3)]
        out = aggregate(server, ups, self.cfg(), 2)
        assert out.last_alpha == 1.0
        assert not out.last_carried
        np.testing.assert_allclose(out.global_params, [0.5, 0.5])
        assert out.prev_participants == 3
        assert out.round_index == 2

    def test_shrunken_participation_applies_relevance(self):
        server = ServerState(np.array([1.0, 1.0]), round_index=1,
                             prev_summaries=(0.2, 0.3, 0.1, 0.4),
                             prev_participants=4)
        ups = [update(i, [0.5, 0.5]) for i in range(3)]
        out = aggregate(server, ups, self.cfg(), 2)
        assert 0.0 < out.last_alpha < 1.0
        np.testing.assert_allclose(out.global_params,
                                   out.last_alpha * np.array([0.5, 0.5]))

    def test_two_after_three_applies_relevance(self):
        server = ServerState(np.array([1.0]), round_index=1,
                             prev_summaries=(0.5,),
                             prev_participants=3)
        ups = [update(i, [0.5]) for i in range(2)]
        out = aggregate(server, ups, self.cfg(), 2)
        assert 0.0 < out.last_alpha < 1.0

    def test_shrunken_round_without_summaries_keeps_aggregate(self):
        # nothing arrived last round, so the share is 1 and the q-FFL
        # aggregate stands bit for bit
        server = ServerState(np.array([1.0, -1.0]), round_index=1,
                             prev_participants=3)
        ups = [update(i, [0.5, 0.25]) for i in range(2)]
        out = aggregate(server, ups, self.cfg(), 2)
        qffl = aggregate(server, ups, self.cfg(kind=StrategyKind.QFFL), 2)
        assert out.last_alpha == 1.0
        assert out.global_params.tobytes() == qffl.global_params.tobytes()

    @pytest.mark.parametrize("summary, got", [(1e6, "0.0"), (math.nan, "nan")])
    def test_share_outside_unit_interval_names_round(self, summary, got):
        # a previous summary far above this round's underflows the share
        # to 0; a NaN summary makes it NaN
        server = ServerState(np.array([1.0]), round_index=4,
                             prev_summaries=(summary,), prev_participants=3)
        ups = [update(i, [0.5]) for i in range(2)]
        with pytest.raises(DegenerateAggregationError, match=(
                rf"^round 5: relevance score must be in \(0, 1\], got {got}$")):
            aggregate(server, ups, self.cfg(), 2)

    def test_single_update_carries_forward(self):
        w = np.array([0.9, -0.9])
        server = ServerState(w.copy(), round_index=0, prev_participants=0)
        out = aggregate(server, [update(0, [0.1, 0.1])], self.cfg(), 2)
        assert out.last_carried
        np.testing.assert_array_equal(out.global_params, w)
        # the received update's summary is still kept for the next round
        assert out.prev_summaries == (rms_summary(10.0 * (w - 0.1)),)

    def test_single_update_aggregated_when_bar_is_one(self):
        server = ServerState(np.array([0.9, -0.9]), round_index=0)
        out = aggregate(server, [update(0, [0.1, 0.1])], self.cfg(),
                        1)
        assert not out.last_carried
        np.testing.assert_allclose(out.global_params, [0.1, 0.1])

    def test_growth_treated_as_stable(self):
        server = ServerState(np.array([1.0]), round_index=2,
                             prev_participants=2)
        ups = [update(i, [0.5]) for i in range(4)]
        out = aggregate(server, ups, self.cfg(), 2)
        assert out.last_alpha == 1.0

    def test_summaries_window_bound(self):
        server = ServerState(np.array([1.0]), round_index=0)
        cfg = self.cfg(relevance_window=3)
        for n in (2, 3, 5, 4):
            ups = [update(i, [0.5]) for i in range(n)]
            server = aggregate(server, ups, cfg, 2)
            assert len(server.prev_summaries) == min(n, 3)

    def test_window_of_this_rounds_count_still_damps(self):
        # a shrunken round compares against the previous round's summaries
        # before its own replace them: a window of two keeps two of round 1's
        cfg = self.cfg(relevance_window=2)
        server = aggregate(ServerState(np.array([1.0])),
                           [update(i, [0.5]) for i in range(3)], cfg, 2)
        previous = server.prev_summaries
        assert previous == (5.0, 5.0)
        out = aggregate(server, [update(i, [0.25]) for i in range(2)], cfg, 2)
        assert out.last_alpha == pytest.approx(
            relevance_score(previous, rms_summary(np.array([0.25]))),
            rel=1e-12)
        assert 0.0 < out.last_alpha < 1.0
        np.testing.assert_allclose(out.global_params, [out.last_alpha * 0.25])
        assert out.prev_summaries == (2.5, 2.5)  # round 2's, 10 * (0.5 - 0.25)

    def test_requires_lipschitz(self):
        server = ServerState(np.array([1.0]))
        with pytest.raises(ConfigError):
            aggregate(server, [update(0, [0.5])],
                      StrategyConfig(kind=StrategyKind.FAIR_FEDAVG), 2)


@st.composite
def server_rounds(draw):
    """A server state, a round of updates and a strategy, with seeded
    generic values (drawn ids are distinct, in arbitrary order)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 6))
    ids = draw(st.lists(st.integers(0, 20), max_size=6, unique=True))
    summaries = tuple(float(rng.uniform(0.0, 2.0))
                      for _ in range(draw(st.integers(0, 4))))
    server = ServerState(rng.normal(size=dim),
                         round_index=draw(st.integers(0, 3)),
                         prev_summaries=summaries,
                         prev_participants=draw(st.integers(0, 7)))
    ups = [update(cid, rng.normal(size=dim) * 10 ** rng.uniform(-2, 2),
                  loss=float(rng.uniform(0.1, 3.0)),
                  n=int(rng.integers(1, 50)))
           for cid in ids]
    cfg = StrategyConfig(kind=draw(st.sampled_from(list(StrategyKind))),
                         q=draw(st.sampled_from([0.0, 0.5, 1.0])),
                         lipschitz=float(rng.uniform(0.5, 50.0)),
                         weighted_mean=draw(st.booleans()),
                         relevance_window=draw(st.integers(1, 8)))
    return server, ups, cfg


def assert_same_state(a, b):
    assert a.global_params.tobytes() == b.global_params.tobytes()
    assert (a.round_index, a.prev_summaries, a.prev_participants,
            a.last_alpha, a.last_carried) == (
        b.round_index, b.prev_summaries, b.prev_participants,
        b.last_alpha, b.last_carried)


def history_fair_round(state, updates, cfg, min_part):
    """FairFedAvg by the cross-round history rule, as a reference for
    `aggregate`: `state` is (global, round, history of (round, summary)
    pairs, previous participants). The history takes every round's
    summaries, carried rounds' too, and keeps its last `relevance_window`;
    a shrunken round compares against the entries of the previous round.
    Returns the next state and the round's share."""
    w, round_index, history, prev_count = state
    ordered = sorted(updates, key=lambda u: u.client_id)
    deltas = [qffl_deltas(w, u, cfg.q, cfg.lipschitz) for u in ordered]
    carried = len(ordered) < min_part
    new = w.copy() if carried else qffl_aggregate(w, deltas)
    alpha = 1.0
    if not carried and len(ordered) < prev_count:
        previous = [s for r, s in history if r == round_index]
        alpha = relevance_score(previous, rms_summary(new))
        new = alpha * new
    history += tuple((round_index + 1, rms_summary(d)) for d, _ in deltas)
    history = history[-cfg.relevance_window:]
    return (new, round_index + 1, history, len(ordered)), alpha


@st.composite
def fair_sequences(draw):
    """A FairFedAvg strategy, a participation bar and up to ten rounds of
    updates from a random subset of up to six clients (empty and carried
    rounds included), with seeded generic values."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 5))
    n_clients = draw(st.integers(1, 6))
    share = rng.uniform(0.2, 1.0)  # each client's chance to arrive
    cfg = StrategyConfig(kind=StrategyKind.FAIR_FEDAVG,
                         q=draw(st.sampled_from([0.0, 0.5, 1.0])),
                         lipschitz=float(rng.uniform(0.5, 20.0)),
                         relevance_window=draw(st.integers(1, 8)))
    scale = 10 ** rng.uniform(-3, 2)
    rounds = [[update(cid, rng.normal(size=dim) * scale,
                      loss=float(rng.uniform(0.1, 3.0)))
               for cid in range(n_clients) if rng.random() < share]
              for _ in range(draw(st.integers(1, 10)))]
    return rng.normal(size=dim), rounds, cfg, draw(st.integers(1, 3))


class TestAggregate:
    @settings(max_examples=100, deadline=None)
    @given(fair_sequences())
    def test_fair_replay_matches_history_rule(self, drawn):
        start, rounds, cfg, min_part = drawn
        server = ServerState(start.copy())
        state = (start.copy(), 0, (), 0)
        for ups in rounds:
            # each update lands near the current global, as after training
            ups = [replace(u, params=server.global_params + u.params)
                   for u in ups]
            state, alpha = history_fair_round(state, ups, cfg, min_part)
            if not 0.0 < alpha <= 1.0:
                with pytest.raises(DegenerateAggregationError):
                    aggregate(server, ups, cfg, min_part)
                return
            server = aggregate(server, ups, cfg, min_part)
            w, round_index, history, prev_count = state
            assert server.last_alpha == alpha
            assert server.global_params.tobytes() == w.tobytes()
            assert server.prev_summaries == tuple(
                s for r, s in history if r == round_index)
            assert (server.round_index, server.prev_participants) == (
                round_index, prev_count)

    @settings(max_examples=60, deadline=None)
    @given(server_rounds(), st.integers(1, 7), st.data())
    def test_order_independent(self, drawn, min_part, data):
        server, ups, cfg = drawn
        shuffled = data.draw(st.permutations(ups))
        assert_same_state(aggregate(server, ups, cfg, min_part),
                          aggregate(server, shuffled, cfg, min_part))

    def test_length_mismatch(self):
        differ = [update(0, [1.0]), update(1, [1.0, 2.0])]
        agree = [update(0, [1.0, 2.0, 3.0]), update(1, [4.0, 5.0, 6.0])]
        for kind in StrategyKind:
            for min_part in (1, 3):  # checked on carried rounds too
                cfg = StrategyConfig(kind=kind, lipschitz=1.0)
                with pytest.raises(ShapeError):
                    aggregate(ServerState(np.zeros(1)), differ, cfg, min_part)
                # updates that agree with each other but not the global
                with pytest.raises(ShapeError, match=(
                        r"^update lengths \[3\] do not match the global "
                        r"length 2$")):
                    aggregate(ServerState(np.zeros(2)), agree, cfg, min_part)

    @settings(max_examples=60, deadline=None)
    @given(server_rounds(), st.integers(1, 7))
    def test_carries_forward_exactly_below_bar(self, drawn, min_part):
        server, ups, cfg = drawn
        out = aggregate(server, ups, cfg, min_part)
        assert out.last_carried == (len(ups) < min_part)
        assert out.prev_participants == len(ups)
        assert out.round_index == server.round_index + 1
        if out.last_carried:
            assert out.last_alpha == 1.0
            assert out.global_params is not server.global_params
            assert (out.global_params.tobytes()
                    == server.global_params.tobytes())

    @settings(max_examples=60, deadline=None)
    @given(server_rounds())
    def test_fedavg_mean_in_hull(self, drawn):
        # The float mean of k equal values can leave them by an ulp
        # (three 0.1s average to 0.10000000000000002), so the hull is
        # widened by the summation rounding bound k * eps * max|x|.
        server, ups, _ = drawn
        if not ups:
            return
        out = aggregate(server, ups, StrategyConfig(), 1)
        stack = np.stack([u.params for u in ups])
        tol = len(ups) * np.finfo(float).eps * np.abs(stack).max(axis=0)
        assert np.all(out.global_params >= stack.min(axis=0) - tol)
        assert np.all(out.global_params <= stack.max(axis=0) + tol)

    @settings(max_examples=100, deadline=None)
    @given(server_rounds(), st.data())
    def test_fair_equals_qffl_without_shrink(self, drawn, data):
        server, ups, cfg = drawn
        min_part = data.draw(st.integers(1, max(len(ups), 1)))
        server.prev_participants = data.draw(st.integers(0, len(ups)))
        fair = aggregate(server, ups,
                         replace(cfg, kind=StrategyKind.FAIR_FEDAVG), min_part)
        qffl = aggregate(server, ups, replace(cfg, kind=StrategyKind.QFFL),
                         min_part)
        assert fair.global_params.tobytes() == qffl.global_params.tobytes()
        assert fair.last_alpha == qffl.last_alpha == 1.0
        assert fair.last_carried == qffl.last_carried


class TestAssignLatencies:
    def test_all_zero_delays_full_participation(self):
        order, active = assign_latencies(LatencyModel(), [0, 1, 2], 1, 0)
        assert active == [0, 1, 2]
        assert [cid for cid, _ in order] == [0, 1, 2]

    def test_late_client_dropped(self):
        model = LatencyModel(delays={1: 5.0}, drop_after=1.0)
        _, active = assign_latencies(model, [0, 1, 2], 1, 0)
        assert active == [0, 2]

    def test_per_round_override(self):
        model = LatencyModel(per_round={2: {0: 9.0}}, drop_after=1.0)
        _, active1 = assign_latencies(model, [0, 1], 1, 0)
        _, active2 = assign_latencies(model, [0, 1], 2, 0)
        assert active1 == [0, 1]
        assert active2 == [1]

    def test_jitter_deterministic(self):
        model = LatencyModel(jitter=0.5)
        a = assign_latencies(model, [0, 1, 2], 3, seed=9)
        b = assign_latencies(model, [0, 1, 2], 3, seed=9)
        assert a == b

    def test_arrival_sorted_by_time(self):
        model = LatencyModel(delays={0: 2.0, 1: 1.0, 2: 3.0})
        order, _ = assign_latencies(model, [0, 1, 2], 1, 0)
        assert [cid for cid, _ in order] == [1, 0, 2]


class TestLocalRound:
    @pytest.mark.filterwarnings("error")
    def test_non_finite_loss_names_the_client(self):
        # a client never reports a non-finite loss: training stops first,
        # and without a numpy warning on the way
        cfg = toy_model_cfg()
        client = toy_clients(2)[1]
        client.train[3, 0] = np.inf
        with pytest.raises(DivergenceError,
                           match="^client 1: non-finite training loss"):
            local_round(client, pack(build(cfg)), cfg.layer_specs(),
                        TrainConfig(epochs=1), False)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_calibration_names_the_client(self):
        # one finite-loss step at an absurd rate leaves weights whose
        # reconstructions overflow: calibration, not training, finds it
        cfg = replace(toy_model_cfg(), hidden_dims=(6, 4))
        client = toy_clients(2)[1]
        tc = TrainConfig(epochs=1, batch_size=client.n_samples,
                         schedule=LrSchedule(1e300))
        with pytest.raises(NumericError, match="^client 1: reconstruction "
                                               "errors contain non-finite "
                                               "values"):
            local_round(client, pack(build(cfg)), cfg.layer_specs(), tc,
                        False)

    def test_identical_clients_identical_updates(self):
        from fedanom.autoencoder import build
        cfg = toy_model_cfg()
        flat = pack(build(cfg))
        data = toy_clients(1, seed=4)[0].train
        a = ClientState(0, data.copy(), data[:2], data[:2], rng_seed=55)
        b = ClientState(1, data.copy(), data[:2], data[:2], rng_seed=55)
        tc = TrainConfig(epochs=2, shuffle_seed=derive_seed(55, 1))
        ua = local_round(a, flat, cfg.layer_specs(), tc, False)
        ub = local_round(b, flat, cfg.layer_specs(), tc, False)
        np.testing.assert_array_equal(ua.params, ub.params)
        assert ua.local_loss == ub.local_loss
        assert ua.local_threshold == ub.local_threshold

    def test_update_metadata(self):
        from fedanom.autoencoder import build
        cfg = toy_model_cfg()
        flat = pack(build(cfg))
        client = toy_clients(1)[0]
        tc = TrainConfig(epochs=3, shuffle_seed=derive_seed(client.rng_seed, 4))
        upd = local_round(client, flat, cfg.layer_specs(), tc, False)
        assert upd.n_samples == client.n_samples
        assert len(upd.epoch_losses) == 3
        assert upd.local_loss == upd.epoch_losses[-1]
        assert upd.local_threshold > 0.0
        assert upd.params.shape == flat.shape

    def test_sample_std_raises_the_threshold(self):
        cfg = toy_model_cfg()
        flat = pack(build(cfg))
        client = toy_clients(1)[0]
        tc = TrainConfig(epochs=1)
        population, sample = (
            local_round(client, flat, cfg.layer_specs(), tc, flag)
            for flag in (False, True))
        np.testing.assert_array_equal(population.params, sample.params)
        assert sample.local_threshold > population.local_threshold


class TestRunFederated:
    def test_deterministic_runs(self):
        kwargs = dict(clients=None, model_cfg=toy_model_cfg(),
                      strategy=StrategyConfig(), rounds=3,
                      train=TrainConfig(epochs=2), master_seed=11)
        results = []
        for _ in range(2):
            kwargs["clients"] = toy_clients(2)
            results.append(run_federated(**kwargs))
        np.testing.assert_array_equal(results[0].final_params,
                                      results[1].final_params)
        assert results[0].detector.threshold == results[1].detector.threshold
        for ta, tb in zip(results[0].rounds, results[1].rounds):
            assert ta.alpha == tb.alpha
            assert ta.global_sha256 == tb.global_sha256
        # three trained rounds, three models; the last one is the result
        digests = [tr.global_sha256 for tr in results[0].rounds]
        assert len(set(digests)) == 3
        assert digests[-1] == hashlib.sha256(
            results[0].final_params.tobytes()).hexdigest()

    def test_round_trains_with_the_given_config(self):
        # one client, one round: the run is that client's local round with
        # every field of `train`, only its shuffle seed derived per round
        client, cfg = toy_clients(1)[0], toy_model_cfg()
        train = TrainConfig(epochs=3, batch_size=5, adam_beta1=0.8,
                            shuffle_seed=99)
        result = run_federated([client], cfg, StrategyConfig(), rounds=1,
                               train=train)
        seeded = replace(train, shuffle_seed=derive_seed(client.rng_seed, 1))
        local = local_round(client, build(cfg).flat, cfg.layer_specs(),
                            seeded, False)
        np.testing.assert_array_equal(result.final_params, local.params)
        assert result.detector.threshold == local.local_threshold

    def test_param_length_invariant_across_rounds(self):
        result = run_federated(toy_clients(3), toy_model_cfg(),
                               StrategyConfig(), rounds=3,
                               train=TrainConfig(epochs=1), master_seed=2)
        assert result.final_params.size == build(toy_model_cfg()).n_params

    def test_detector_is_min_over_all_thresholds(self):
        result = run_federated(toy_clients(2), toy_model_cfg(),
                               StrategyConfig(), rounds=3,
                               train=TrainConfig(epochs=1), master_seed=5)
        assert result.detector.threshold == min(result.collected_thresholds)
        assert len(result.collected_thresholds) == 6  # 2 clients x 3 rounds
        assert (result.rounds[-1].threshold_running_min
                == result.detector.threshold)

    def test_detector_kept_when_no_update_arrives_last(self):
        latency = LatencyModel(per_round={2: {0: 9.0, 1: 9.0}},
                               drop_after=1.0)
        result = run_federated(toy_clients(2), toy_model_cfg(),
                               StrategyConfig(), rounds=2,
                               train=TrainConfig(epochs=1), latency=latency,
                               master_seed=5)
        assert len(result.collected_thresholds) == 2
        assert result.detector == ThresholdDetector(
            min(result.collected_thresholds), SOURCE_ROUND_MIN)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_clients=st.integers(2, 4),
           data=st.data())
    def test_running_min_is_least_threshold_so_far(self, seed, n_clients,
                                                   data):
        # each round drops a drawn set of clients for latency
        late = data.draw(st.lists(st.sets(st.integers(0, n_clients - 1)),
                                  min_size=3, max_size=3))
        assume(any(len(ids) < n_clients for ids in late))
        latency = LatencyModel(
            per_round={t: dict.fromkeys(ids, 9.0)
                       for t, ids in enumerate(late, start=1)},
            drop_after=1.0)
        result = run_federated(toy_clients(n_clients), toy_model_cfg(),
                               StrategyConfig(), rounds=3,
                               train=TrainConfig(epochs=1), latency=latency,
                               master_seed=seed)
        so_far = []
        for trace, ids in zip(result.rounds, late):
            arrived = [r for r in trace.records if r.participated]
            assert {r.client_id for r in arrived} == (
                set(range(n_clients)) - ids)
            so_far += [r.local_threshold for r in arrived]
            assert trace.threshold_running_min == min(so_far, default=None)
        running = [tr.threshold_running_min for tr in result.rounds
                   if tr.threshold_running_min is not None]
        assert running == sorted(running, reverse=True)
        assert result.detector == ThresholdDetector(
            min(result.collected_thresholds), SOURCE_ROUND_MIN)

    def test_no_clients_is_a_data_error(self):
        # the one empty check of the round loop: sampling and aggregation
        # are only reached with at least one client
        with pytest.raises(DataError, match="at least one client"):
            run_federated([], toy_model_cfg(), StrategyConfig(), rounds=1,
                          train=TrainConfig(epochs=1))

    def test_no_arrival_at_all_is_a_data_error(self):
        latency = LatencyModel(delays={0: 9.0}, drop_after=1.0)
        with pytest.raises(DataError, match="no client update ever arrived"):
            run_federated(toy_clients(1), toy_model_cfg(), StrategyConfig(),
                          rounds=2, train=TrainConfig(epochs=1),
                          latency=latency)

    def test_carry_forward_when_below_min_participation(self):
        latency = LatencyModel(per_round={2: {0: 9.0, 1: 9.0}},
                               drop_after=1.0)
        result = run_federated(toy_clients(3), toy_model_cfg(),
                               StrategyConfig(), rounds=2,
                               train=TrainConfig(epochs=1), latency=latency,
                               master_seed=3)
        round2 = result.rounds[1]
        assert round2.carried_forward
        assert round2.global_sha256 == result.rounds[0].global_sha256

    def test_single_client_min_participation_lowered(self):
        result = run_federated(toy_clients(1), toy_model_cfg(),
                               StrategyConfig(), rounds=2,
                               train=TrainConfig(epochs=1), master_seed=4)
        assert not any(tr.carried_forward for tr in result.rounds)

    def test_single_client_fair_strategy_trains(self):
        result = run_federated(
            toy_clients(1), toy_model_cfg(),
            StrategyConfig(kind=StrategyKind.FAIR_FEDAVG, q=0.0,
                           lipschitz=1000.0),
            rounds=3, train=TrainConfig(epochs=1), master_seed=4)
        assert not any(tr.carried_forward for tr in result.rounds)
        norms = [tr.global_norm for tr in result.rounds]
        assert len(set(norms)) == 3

    @pytest.mark.parametrize("kind", list(StrategyKind))
    def test_min_participation_honored_by_every_strategy(self, kind):
        # round 2 drops client 0, leaving two updates against a bar of three
        latency = LatencyModel(per_round={2: {0: 9.0}}, drop_after=1.0)
        result = run_federated(toy_clients(3), toy_model_cfg(),
                               StrategyConfig(kind=kind, q=0.0,
                                              lipschitz=1000.0), rounds=2,
                               train=TrainConfig(epochs=1), latency=latency,
                               master_seed=7, min_participation=3)
        assert [tr.carried_forward for tr in result.rounds] == [False, True]
        assert (result.rounds[1].global_sha256
                == result.rounds[0].global_sha256)

    def test_duplicate_ids_rejected(self):
        clients = toy_clients(2)
        clients[1].client_id = 0
        with pytest.raises(DataError):
            run_federated(clients, toy_model_cfg(), StrategyConfig(),
                          rounds=1, train=TrainConfig(epochs=1))

    @pytest.mark.parametrize("kind", [StrategyKind.QFFL,
                                      StrategyKind.FAIR_FEDAVG])
    def test_strategy_used_as_given(self, kind):
        # the round loop fills in no Lipschitz estimate of its own
        with pytest.raises(ConfigError, match="Lipschitz"):
            run_federated(toy_clients(2), toy_model_cfg(),
                          StrategyConfig(kind=kind), rounds=1,
                          train=TrainConfig(epochs=1))

    def test_qffl_strategy_runs(self):
        result = run_federated(toy_clients(2), toy_model_cfg(),
                               StrategyConfig(kind=StrategyKind.QFFL, q=0.5,
                                              lipschitz=1000.0),
                               rounds=2, train=TrainConfig(epochs=1),
                               master_seed=6)
        assert result.final_params.size > 0

    def test_fair_strategy_alpha_behaviour(self):
        latency = LatencyModel(per_round={2: {0: 9.0}}, drop_after=1.0)
        result = run_federated(
            toy_clients(3), toy_model_cfg(),
            StrategyConfig(kind=StrategyKind.FAIR_FEDAVG, q=0.0,
                           lipschitz=1000.0),
            rounds=3, train=TrainConfig(epochs=1), latency=latency,
            master_seed=7)
        alphas = [tr.alpha for tr in result.rounds]
        assert alphas[0] == 1.0
        assert 0.0 < alphas[1] < 1.0
        assert alphas[2] == 1.0  # regrowth counts as stable

    def test_trace_records_cover_all_clients(self):
        result = run_federated(toy_clients(3), toy_model_cfg(),
                               StrategyConfig(), rounds=2,
                               train=TrainConfig(epochs=1), master_seed=8)
        for tr in result.rounds:
            assert [r.client_id for r in tr.records] == [0, 1, 2]
            assert all(r.participated for r in tr.records)
