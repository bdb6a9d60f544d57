"""Shared fixtures: one deterministic toy world reused across the suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import Phase, settings

from latentcolor import (
    AttractorField,
    ToyEmbedder,
    average_patches,
    build_anchors,
    fit_pca,
    fit_stats,
    generate,
    initial_noise,
    make_probe_set,
    project,
    solid_attractor,
)
from latentcolor.colorspace import parse_hex, rgb_to_hsl
from latentcolor.toyflow import TIMESTEP_PALETTE

# scripts/mutants.py runs pytest with --hypothesis-profile=mutants: a killed mutant needs only the first
# failing example, so shrinking it (and explaining it, which follows the shrink) is left out
settings.register_profile("mutants", phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])

EMBEDDER_SEED = 7
NOISE_SEED = 11
T = 50
GRID = (8, 8)
L = GRID[0] * GRID[1]
DIM = 16


@pytest.fixture(scope="session")
def embedder():
    return ToyEmbedder.create(seed=EMBEDDER_SEED, d=DIM)


@pytest.fixture(scope="session")
def probe_set(embedder):
    return make_probe_set(embedder)


@pytest.fixture(scope="session")
def model(probe_set):
    return fit_pca(probe_set.lattice, k=3, orientation=probe_set.labeled)


@pytest.fixture(scope="session")
def anchors(probe_set, model):
    return build_anchors(probe_set.labeled, model)


@pytest.fixture(scope="session")
def shared_noise():
    # one z0 for every stats trajectory, so scale starts at exactly zero
    return initial_noise(L, DIM, seed=NOISE_SEED)


@pytest.fixture(scope="session")
def palette_runs(embedder, shared_noise):
    """Trajectory per palette color, all from the shared noise tensor."""
    runs = {}
    for name, hexcode in TIMESTEP_PALETTE.items():
        att = solid_attractor(rgb_to_hsl(parse_hex(hexcode)), embedder, GRID)
        field = AttractorField(attractors=(att,), T=T, embedder=embedder)
        runs[name] = generate(shared_noise, field)
    return runs


@pytest.fixture(scope="session")
def palette_tracks(palette_runs, model):
    """Per-image averaged coordinate tracks, (T+1, 3) each."""
    return {
        name: np.stack([average_patches(project(frame, model)) for frame in traj])
        for name, traj in palette_runs.items()
    }


@pytest.fixture(scope="session")
def toy_stats(palette_tracks):
    return fit_stats(list(palette_tracks.values()))
