"""Unit tests for the deterministic fault injector (``FaultBackend``)."""

import json
import math

import numpy as np
import pytest

from repro.engine import EvalRequest, FaultBackend, VectorBackend
from repro.errors import (
    DeviceLostError,
    MeasurementTimeout,
    ReproError,
    TransientError,
    TransientMeasurementError,
)
from repro.gpu.faults import FaultConfig, is_valid_time
from repro.optimizations.combos import ALL_OCS
from repro.optimizations.params import sample_setting
from repro.stencil import star

from .make_golden import GOLDEN_PATH, campaign_case, streams


def _sample_requests(n=40, seed=0):
    """Requests covering several OCs."""
    rng = np.random.default_rng(seed)
    stencil = star(2, 1)
    out = []
    for i in range(n):
        oc = ALL_OCS[i % len(ALL_OCS)]
        out.append(EvalRequest(stencil, oc, sample_setting(oc, 2, rng)))
    return out


def _valid_request(seed=0):
    """One request that launches cleanly on V100."""
    rng = np.random.default_rng(seed)
    stencil = star(2, 1)
    oc = ALL_OCS[0]
    for _ in range(64):
        req = EvalRequest(stencil, oc, sample_setting(oc, 2, rng))
        if VectorBackend("V100").evaluate_batch([req])[0].ok:
            return req
    raise AssertionError("no launchable setting found")


def _faulted(cfg, seed, unit="u"):
    be = FaultBackend(VectorBackend("V100"), cfg, seed=seed)
    be.begin_unit(unit)
    return be


def _kinds(be, requests):
    """One outcome per request, each evaluated in its own call."""
    out = []
    for req in requests:
        try:
            (res,) = be.evaluate_batch([req])
        except DeviceLostError:
            out.append(("DeviceLostError", None))
            continue
        out.append(("ok", res.time_ms) if res.ok else (type(res.error).__name__, None))
    return out


class TestFaultConfig:
    def test_defaults_disabled(self):
        assert not FaultConfig().enabled

    def test_uniform_enabled(self):
        cfg = FaultConfig.uniform(0.1)
        assert cfg.enabled
        assert cfg.timeout_rate == cfg.transient_rate == cfg.corrupt_rate == 0.1
        assert cfg.device_lost_rate == pytest.approx(0.001)

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultConfig(timeout_rate=1.5)
        with pytest.raises(ValueError):
            FaultConfig(corrupt_rate=-0.1)

    def test_dict_round_trip(self):
        cfg = FaultConfig(0.1, 0.2, 0.05, 0.3)
        assert FaultConfig.from_dict(cfg.to_dict()) == cfg

    def test_error_hierarchy(self):
        for exc in (MeasurementTimeout, TransientMeasurementError,
                    DeviceLostError):
            assert issubclass(exc, TransientError)
            assert issubclass(exc, ReproError)


class TestZeroRatePassThrough:
    def test_identical_times(self):
        plain = VectorBackend("V100")
        be = FaultBackend(plain, FaultConfig(), seed=1)
        reqs = _sample_requests(20)
        for r, g in zip(be.evaluate_batch(reqs), plain.evaluate_batch(reqs)):
            assert r.ok == g.ok
            if g.ok:
                assert r.time_ms == g.time_ms
        assert be._attempts == {}  # never drew


class TestDeterminism:
    def test_same_seed_same_fault_sequence(self):
        cfg = FaultConfig.uniform(0.2)
        reqs = _sample_requests(30)
        assert _kinds(_faulted(cfg, 5), reqs) == _kinds(_faulted(cfg, 5), reqs)

    def test_different_seeds_differ(self):
        cfg = FaultConfig.uniform(0.2)
        reqs = _sample_requests(40)
        assert _kinds(_faulted(cfg, 1), reqs) != _kinds(_faulted(cfg, 2), reqs)

    def test_attempt_counter_advances(self):
        """Retrying the same request eventually yields the true timing."""
        req = _valid_request()
        (clean,) = VectorBackend("V100").evaluate_batch([req])
        be = _faulted(FaultConfig(timeout_rate=0.5), 3)
        for _ in range(64):
            (res,) = be.evaluate_batch([req])
            if res.ok:
                assert res.time_ms == clean.time_ms
                return
            assert isinstance(res.error, MeasurementTimeout)
        pytest.fail("fault never cleared over 64 attempts")

    def test_begin_unit_rescopes_draws(self):
        """The same request faults independently in different units."""
        cfg = FaultConfig(transient_rate=0.5)
        req = _valid_request()
        outcomes = {
            _kinds(_faulted(cfg, 9, unit=u), [req])[0][0] for u in range(16)
        }
        assert outcomes == {"ok", "TransientMeasurementError"}


class TestCorruption:
    def test_corrupted_timings_are_detectable(self):
        be = _faulted(FaultConfig(corrupt_rate=1.0), 0)
        results = be.evaluate_batch(_sample_requests(30))
        seen = [r.time_ms for r in results if r.ok]
        assert seen and not any(is_valid_time(t) for t in seen)

    def test_is_valid_time(self):
        assert is_valid_time(1.5)
        for bad in (0.0, -1.0, math.nan, math.inf):
            assert not is_valid_time(bad)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


class TestGolden:
    """The fault schedule and a faulted campaign against frozen pins."""

    def test_fault_streams(self, golden):
        actual, expected = streams(), golden["streams"]
        assert actual.keys() == expected.keys()
        for key, calls in expected.items():
            assert actual[key] == calls, key

    def test_faulted_campaign(self, golden):
        assert campaign_case(FaultConfig.uniform(0.1)) == golden["campaign"]
