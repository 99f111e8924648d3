"""Estimator construction fails closed on hyperparameters it does not take.

A misspelled or misplaced keyword (``workers=2`` meant for a campaign)
must raise :class:`ModelError` naming the method and the keyword, not a
bare ``TypeError`` from deep inside a constructor.
"""

import pytest

from repro.errors import ModelError
from repro.profiling.train import (
    make_classifier,
    make_regressor,
    train_predictor_artifact,
    train_selector_artifact,
)


class TestUnknownHyperparameters:
    def test_gbdt_selector(self):
        with pytest.raises(ModelError, match=r"'gbdt'.*workers"):
            make_classifier("gbdt", 4, seed=0, workers=2)

    def test_mlp_regressor(self):
        with pytest.raises(ModelError, match=r"'mlp'.*bogus, workers"):
            make_regressor("mlp", seed=0, workers=2, bogus=1)

    def test_train_selector_artifact(self, small_campaign):
        with pytest.raises(ModelError, match=r"'gbdt'.*workers"):
            train_selector_artifact(small_campaign, "V100", workers=2)

    def test_analytical_artifacts(self, small_campaign):
        with pytest.raises(ModelError, match=r"'analytical'.*workers"):
            train_selector_artifact(
                small_campaign, "V100", method="analytical", workers=2
            )
        with pytest.raises(ModelError, match=r"'analytical'.*workers"):
            train_predictor_artifact(
                small_campaign, method="analytical", workers=2
            )
