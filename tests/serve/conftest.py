"""Shared fixtures for the serving-stack tests.

One small (but real) 2-D campaign is profiled once per session and
turned into selector/predictor artifacts; every test that needs a
trained model shares them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import pytest

from repro.profiling import DatasetRegistry, run_campaign
from repro.profiling.storage import campaign_to_dict
from repro.profiling.train import (
    train_predictor_artifact,
    train_selector_artifact,
)
from repro.stencil.generator import generate_population

SEED = 21
GPUS = ("V100", "A100")


@pytest.fixture(scope="session")
def campaign2d():
    pop = generate_population(2, 8, seed=SEED)
    return run_campaign(pop, gpus=GPUS, n_settings=3, seed=SEED)


@pytest.fixture(scope="session")
def selector_artifact(campaign2d):
    return train_selector_artifact(campaign2d, "V100", seed=SEED)


@pytest.fixture(scope="session")
def predictor_artifact(campaign2d):
    return train_predictor_artifact(campaign2d, seed=SEED)


@dataclass
class StoreCase:
    """One registry under the shared store layout tests."""

    registry: object            # an empty registry under tmp_path
    item: object                # what ``registry.publish`` takes
    doc: Callable[[object], dict]  # JSON view for round-trip equality

    def publish(self, name: str) -> str:
        return self.registry.publish(self.item, name)


@pytest.fixture()
def store_case(request, tmp_path, selector_artifact, campaign2d):
    """An empty registry of the test class's ``registry_cls``.

    Layout test classes run once per registry: a subclass that only
    swaps ``registry_cls`` reruns every test against the other store.
    """
    cls = request.cls.registry_cls
    if cls is DatasetRegistry:
        return StoreCase(cls(tmp_path / "reg"), campaign2d, campaign_to_dict)
    return StoreCase(
        cls(tmp_path / "reg"), selector_artifact, lambda a: a.to_dict()
    )
