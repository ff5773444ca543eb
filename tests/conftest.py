"""Shared fixtures: one full pipeline run per model, reused across modules.

The oracle run is the closed-form reference (radial oscillator); the network
run is the production-scale configuration (grid 2^12, order 9).  Both are
session-scoped so the acceptance module and the unit modules share them.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from oracle_block import make_oracle_block
from slowphase import models
from slowphase.config import RunConfig
from slowphase.frames import build_real_frames
from slowphase.pipeline import Stage, run_pipeline


@pytest.fixture
def oracle_block(monkeypatch):
    """Registers the model ``oracle_block`` (:mod:`oracle_block`) for one test."""
    monkeypatch.setattr(models, "_REGISTRY", dict(models._REGISTRY))
    models.register_model("oracle_block", make_oracle_block)


@pytest.fixture(scope="session")
def oracle_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("oracle_run")
    config = RunConfig(
        model="oracle",
        guess=(1.3, 0.0),
        relax_time=20.0,
        grid_size=256,
        order=5,
        n_samples=25,
        seed=2024,
        out_dir=str(out),
    )
    t0 = time.time()
    result = run_pipeline(config)
    elapsed = time.time() - t0

    # phase alignment data for closed-form comparisons
    anchor_angle = float(np.arctan2(result.cycle.samples[0, 1], result.cycle.samples[0, 0]))
    theta = result.cycle.theta
    angle = 2.0 * np.pi * theta + anchor_angle
    radial = np.stack([np.cos(angle), np.sin(angle)], axis=1)
    tangent = np.stack([-np.sin(angle), np.cos(angle)], axis=1)
    k1 = result.manifold.order_series(1).samples().real
    sign = float(np.sign(np.einsum("ni,ni->n", k1, radial).mean()))
    return SimpleNamespace(
        result=result,
        config=config,
        elapsed=elapsed,
        angle=angle,
        radial=radial,
        tangent=tangent,
        gauge_sign=sign,
    )


@pytest.fixture(scope="session")
def ei_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("ei_run")
    config = RunConfig(
        model="ei",
        grid_size=4096,
        order=9,
        tolerances=(1e-6, 1e-8),
        n_samples=50,
        seed=2024,
        out_dir=str(out),
    )
    t0 = time.time()
    partial = run_pipeline(config, through=Stage.FLOQUET)
    floquet_elapsed = time.time() - t0
    t1 = time.time()
    result = run_pipeline(config, resume=partial)
    expansion_elapsed = time.time() - t1
    # real representations of the frames, for the real-frame identities
    theta_real, bundle_real, adjoint_real = build_real_frames(result.bundle, result.adjoint)
    return SimpleNamespace(
        result=result,
        config=config,
        theta_real=theta_real,
        bundle_real=bundle_real,
        adjoint_real=adjoint_real,
        floquet_elapsed=floquet_elapsed,
        expansion_elapsed=expansion_elapsed,
    )
