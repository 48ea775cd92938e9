"""Tests for the future-work extensions: pruning, online updates,
policy persistence, and the auto-configured pool."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import (
    EADRL,
    EADRLConfig,
    CorrelationPruner,
    GreedyForwardPruner,
    TopFractionPruner,
    apply_pruning,
)
from repro.exceptions import ConfigurationError, DataValidationError, NotFittedError
from repro.models import ForecasterPool, build_pool, build_pool_for_series
from repro.models.base import Forecaster, MeanForecaster, NaiveForecaster
from repro.models.ets import SimpleExpSmoothing
from repro.preprocessing.embedding import validate_series
from repro.nn import Linear, load_module, save_module
from repro.rl.ddpg import DDPGConfig


def quick_config(**overrides) -> EADRLConfig:
    defaults = dict(
        episodes=3,
        max_iterations=20,
        ddpg=DDPGConfig(seed=0, batch_size=8, warmup_steps=30),
    )
    defaults.update(overrides)
    return EADRLConfig(**defaults)


class TestTopFractionPruner:
    def test_keeps_best_half(self, toy_matrix):
        P, y = toy_matrix
        indices = TopFractionPruner(0.5).select(P, y)
        assert indices.size == 2
        assert 1 in indices  # the low-noise column must survive

    def test_min_members_floor(self, toy_matrix):
        P, y = toy_matrix
        indices = TopFractionPruner(0.01, min_members=3).select(P, y)
        assert indices.size == 3

    def test_full_fraction_keeps_all(self, toy_matrix):
        P, y = toy_matrix
        assert TopFractionPruner(1.0).select(P, y).size == P.shape[1]

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            TopFractionPruner(0.0)
        with pytest.raises(ConfigurationError):
            TopFractionPruner(0.5, min_members=0)

    def test_input_validation(self, toy_matrix):
        P, y = toy_matrix
        with pytest.raises(DataValidationError):
            TopFractionPruner().select(P, y[:-1])


class TestCorrelationPruner:
    def test_drops_redundant_twin(self, rng):
        truth = rng.standard_normal(60).cumsum()
        noise = rng.standard_normal(60)
        P = np.column_stack(
            [truth + noise, truth + 1.01 * noise, truth + rng.standard_normal(60)]
        )
        indices = CorrelationPruner(0.9).select(P, truth)
        assert indices.size == 2
        assert not ({0, 1} <= set(indices.tolist()))

    def test_independent_models_all_kept(self, rng):
        truth = np.zeros(50)
        P = rng.standard_normal((50, 4))
        indices = CorrelationPruner(0.95).select(P, truth)
        assert indices.size == 4

    def test_invalid_threshold(self):
        with pytest.raises(ConfigurationError):
            CorrelationPruner(1.0)


class TestGreedyForwardPruner:
    def test_selects_best_model_first(self, toy_matrix):
        P, y = toy_matrix
        indices = GreedyForwardPruner(max_members=1, min_members=1).select(P, y)
        assert indices.tolist() == [1]

    def test_stops_when_no_improvement(self, rng):
        truth = rng.standard_normal(80).cumsum()
        good = truth + 0.01 * rng.standard_normal(80)
        bad = truth + 10.0 * rng.standard_normal(80)
        P = np.column_stack([good, bad, bad, bad])
        indices = GreedyForwardPruner(max_members=4, min_members=1).select(P, truth)
        assert indices.size <= 2

    def test_max_members_cap(self, toy_matrix):
        P, y = toy_matrix
        assert GreedyForwardPruner(max_members=2).select(P, y).size <= 2

    def test_invalid_bounds(self):
        with pytest.raises(ConfigurationError):
            GreedyForwardPruner(max_members=2, min_members=5)

    def test_apply_pruning_names(self, toy_matrix):
        P, y = toy_matrix
        names = ["a", "b", "c", "d"]
        indices, kept = apply_pruning(TopFractionPruner(0.5), P, y, names)
        assert kept == [names[i] for i in indices]


class TestPoolSubset:
    def test_subset_preserves_fitted_state(self, short_series):
        pool = ForecasterPool(build_pool("small")).fit(short_series[:150])
        sub = pool.subset([0, 3])
        assert len(sub) == 2
        P = sub.prediction_matrix(short_series, 150)
        assert P.shape == (50, 2)

    def test_subset_bad_indices(self, short_series):
        pool = ForecasterPool(build_pool("small")).fit(short_series)
        with pytest.raises(ConfigurationError):
            pool.subset([99])
        with pytest.raises(ConfigurationError):
            pool.subset([])


class TestPrunedEADRL:
    def test_fit_with_pruner(self, short_series):
        model = EADRL(
            pool_size="small",
            config=quick_config(),
            pruner=TopFractionPruner(0.5),
        )
        model.fit(short_series)
        assert model.pruned_indices_ is not None
        assert model.n_models == model.pruned_indices_.size
        assert model.n_models <= 4

    def test_pruned_model_forecasts(self, short_series):
        model = EADRL(
            pool_size="small",
            config=quick_config(),
            pruner=GreedyForwardPruner(max_members=3),
        )
        model.fit(short_series[:160])
        preds = model.rolling_forecast(short_series, 160)
        assert preds.shape == (short_series.size - 160,)
        assert np.all(np.isfinite(preds))


class TestOnlineUpdates:
    @pytest.fixture
    def trained(self, toy_matrix):
        P, y = toy_matrix
        model = EADRL(pool_size="small", config=quick_config())
        model.fit_policy_from_matrix(P[:50], y[:50])
        return model, P[50:], y[50:]

    def test_modes_run(self, trained):
        model, P, y = trained
        for mode in ("none", "periodic", "drift"):
            out = model.rolling_forecast_online(P, y, mode=mode, interval=5)
            assert out.shape == y.shape
            assert np.all(np.isfinite(out))

    def test_periodic_updates_change_policy(self, trained):
        model, P, y = trained
        before = model.agent.actor.state_dict()
        model.rolling_forecast_online(
            P, y, mode="periodic", interval=3, updates_per_trigger=5
        )
        after = model.agent.actor.state_dict()
        moved = any(
            not np.allclose(before[name], after[name]) for name in before
        )
        assert moved

    def test_none_mode_leaves_policy_untouched(self, trained):
        model, P, y = trained
        before = model.agent.actor.state_dict()
        model.rolling_forecast_online(P, y, mode="none")
        after = model.agent.actor.state_dict()
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])

    def test_invalid_mode(self, trained):
        model, P, y = trained
        with pytest.raises(ConfigurationError):
            model.rolling_forecast_online(P, y, mode="always")
        with pytest.raises(ConfigurationError):
            model.rolling_forecast_online(P, y, interval=0)

    def test_requires_fitted_policy(self, toy_matrix):
        P, y = toy_matrix
        model = EADRL(pool_size="small", config=quick_config())
        with pytest.raises(NotFittedError):
            model.rolling_forecast_online(P, y)

    def test_transitions_stored(self, trained):
        model, P, y = trained
        before = len(model.agent.buffer)
        model.rolling_forecast_online(P, y, mode="none")
        # one transition per step once the ω-window has filled
        expected = P.shape[0] - model.config.window
        assert len(model.agent.buffer) == before + expected

    def test_none_mode_matches_static_loop_bit_for_bit(self):
        """Both loops drive the same session step, so without updates
        they agree exactly. On this matrix the two bootstrap formulas
        (scale-then-average vs average-then-scale) once disagreed in
        the last ulp and moved one output."""
        case = np.random.default_rng(8)
        truth = np.sin(np.arange(80) * 0.25) * 2.0 + 5.0
        noise_scale = np.array([1.0, 0.1, 0.7, 1.5])
        P = truth[:, None] + noise_scale[None, :] * case.standard_normal(
            (80, 4)
        )
        model = EADRL(pool_size="small", config=quick_config())
        model.fit_policy_from_matrix(P[:50], truth[:50])
        static, static_w = model.rolling_forecast_from_matrix(
            P[50:], return_weights=True
        )
        online, online_w = model.rolling_forecast_online(
            P[50:], truth[50:], mode="none", return_weights=True
        )
        np.testing.assert_array_equal(online, static)
        np.testing.assert_array_equal(online_w, static_w)

    def test_static_loops_leave_agent_read_only(self, short_series):
        members = [MeanForecaster(), NaiveForecaster(), SimpleExpSmoothing()]
        model = EADRL(models=members, config=quick_config())
        model.fit(short_series[:150])
        actor = {k: v.copy() for k, v in model.agent.actor.state_dict().items()}
        buffered = len(model.agent.buffer)
        P = model.pool.prediction_matrix(short_series, 150)
        boot = model.pool.prediction_matrix(short_series[:150], 140)

        model.rolling_forecast_from_matrix(P, bootstrap_predictions=boot)
        model.rolling_forecast(short_series, start=150)
        model.forecast(short_series[:150], 12)

        assert len(model.agent.buffer) == buffered
        after = model.agent.actor.state_dict()
        for name, value in actor.items():
            np.testing.assert_array_equal(after[name], value)


class _NaNAtLength(Forecaster):
    """Unguarded member whose forecast is NaN at one history length."""

    name = "nan-at-length"

    def __init__(self, length: int):
        super().__init__()
        self.length = length

    def fit(self, series):
        validate_series(series)
        self._fitted = True
        return self

    def predict_next(self, history) -> float:
        history = np.asarray(history, dtype=np.float64)
        if history.size == self.length:
            return float("nan")
        return float(0.5 * history[-1] + 0.5 * history[-3:].mean())


class TestNaNPoisoning:
    """A single NaN member prediction must not poison the state window.

    Every loop masks non-finite predictions the way the matrix loop
    always did, so the series-level loops stay finite and agree with
    :meth:`EADRL.rolling_forecast_from_matrix` on the same rows.
    """

    START = 130

    @pytest.fixture
    def model(self, short_series):
        members = [_NaNAtLength(self.START + 20), NaiveForecaster(),
                   MeanForecaster(), SimpleExpSmoothing()]
        model = EADRL(models=members, config=quick_config())
        model.fit(short_series[: self.START])
        return model

    def test_rolling_forecast_masks_nan(self, model, short_series):
        out = model.rolling_forecast(short_series, start=self.START)
        assert out.size == 70
        assert np.isfinite(out).all()

        P = model.pool.prediction_matrix(short_series, self.START)
        assert np.isnan(P).sum() == 1
        boot = model.pool.prediction_matrix(
            short_series[: self.START], self.START - model.config.window
        )
        expected = model.rolling_forecast_from_matrix(
            P, bootstrap_predictions=boot
        )
        np.testing.assert_array_equal(out, expected)

    def test_forecast_masks_nan(self, model, short_series):
        history = short_series[: self.START + 10]
        out = model.forecast(history, 20)
        assert np.isfinite(out).all()

        rows = np.stack([
            model.pool.predict_next(np.append(history, out[:j]))
            for j in range(out.size)
        ])
        assert np.isnan(rows).sum() == 1
        boot = model.pool.prediction_matrix(
            history, history.size - model.config.window
        )
        expected = model.rolling_forecast_from_matrix(
            rows, bootstrap_predictions=boot
        )
        np.testing.assert_array_equal(out, expected)


class TestPolicyPersistence:
    def test_roundtrip(self, toy_matrix, tmp_path):
        P, y = toy_matrix
        model = EADRL(pool_size="small", config=quick_config())
        model.fit_policy_from_matrix(P[:60], y[:60])
        out1 = model.rolling_forecast_from_matrix(P[60:])
        path = os.path.join(tmp_path, "policy.npz")
        model.save_policy(path)

        restored = EADRL(pool_size="small", config=quick_config())
        restored.load_policy(path)
        out2 = restored.rolling_forecast_from_matrix(P[60:])
        np.testing.assert_allclose(out1, out2)

    def test_series_fit_roundtrip_with_explicit_bootstrap(
        self, short_series, tmp_path
    ):
        """A policy saved after series-level fit() carries no bootstrap
        matrix; after load_policy the matrix-level API must still work
        when the caller supplies bootstrap_predictions explicitly."""
        from repro.models import MeanForecaster, NaiveForecaster, SimpleExpSmoothing

        members = [MeanForecaster(), NaiveForecaster(), SimpleExpSmoothing()]
        model = EADRL(models=members, config=quick_config())
        model.fit(short_series[:150])
        path = os.path.join(tmp_path, "series_policy.npz")
        model.save_policy(path)

        restored = EADRL(pool_size="small", config=quick_config())
        restored.load_policy(path)
        P = model.pool.prediction_matrix(short_series, 150)
        boot = model.pool.prediction_matrix(short_series[:150], 130)

        # without a bootstrap the matrix API is still unusable ...
        with pytest.raises(NotFittedError):
            restored.rolling_forecast_from_matrix(P)
        # ... but an explicit bootstrap unlocks it (the bugfix).
        out = restored.rolling_forecast_from_matrix(P, bootstrap_predictions=boot)
        assert out.shape == (P.shape[0],)
        assert np.all(np.isfinite(out))
        online = restored.rolling_forecast_online(
            P, short_series[150:], mode="none", bootstrap_predictions=boot
        )
        assert np.all(np.isfinite(online))

    @pytest.mark.parametrize("agent", ["td3", "sac"])
    def test_roundtrip_restores_registered_agent(self, toy_matrix,
                                                 tmp_path, agent):
        """The archive records the agent kind; load rebuilds that kind
        (not whatever the restoring config defaults to)."""
        P, y = toy_matrix
        model = EADRL(pool_size="small", config=quick_config(agent=agent))
        model.fit_policy_from_matrix(P[:60], y[:60])
        out1 = model.rolling_forecast_from_matrix(P[60:])
        path = os.path.join(tmp_path, f"{agent}.npz")
        model.save_policy(path)

        restored = EADRL(pool_size="small", config=quick_config())
        restored.load_policy(path)
        assert type(restored.agent).name == agent
        out2 = restored.rolling_forecast_from_matrix(P[60:])
        np.testing.assert_array_equal(out1, out2)

    def test_save_unfitted_raises(self, tmp_path):
        model = EADRL(pool_size="small", config=quick_config())
        with pytest.raises(NotFittedError):
            model.save_policy(os.path.join(tmp_path, "x.npz"))

    def test_module_save_load(self, tmp_path, rng):
        layer = Linear(3, 2, rng=rng)
        path = os.path.join(tmp_path, "layer.npz")
        save_module(layer, path)
        other = Linear(3, 2, rng=np.random.default_rng(99))
        load_module(other, path)
        np.testing.assert_array_equal(layer.weight.data, other.weight.data)


class TestAutoPool:
    def test_detects_period_for_hw(self):
        from repro.datasets import load

        pool = build_pool_for_series(load(4, n=400), size="full")
        hw = [m for m in pool if m.name.startswith("ets(hw")]
        assert len(hw) == 1
        assert hw[0].period == 24

    def test_no_season_falls_back(self, rng):
        pool = build_pool_for_series(
            rng.standard_normal(300).cumsum(), size="full"
        )
        hw = [m for m in pool if m.name.startswith("ets(hw")]
        assert hw[0].period >= 2
