"""Per-timestep statistics: the builtin table, fitting, normalization, the affine chart."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from latentcolor import SubspaceModel, StatsTable, builtin_flux_stats, fit_stats, normalize, project
from latentcolor.timestats import _chart

BUILTIN_SHA256 = "dd40bdd6045df10aea43fe4823833f445bea414675b9b200386337767568ce2e"

# Spot rows of the builtin table, quoted from its published source.
SPOT_ROWS = {
    0: ((2.3413, -2.3586, 0.4266), (0.0163, 0.0172, 0.0295)),
    10: ((2.4437, -2.4051, 0.7065), (0.5834, 0.4547, 0.6228)),
    25: ((2.6416, -2.4363, 1.2520), (1.7094, 1.3214, 1.8072)),
    40: ((2.9313, -2.5132, 2.0426), (3.3523, 2.5946, 3.5464)),
    50: ((3.2152, -2.5889, 2.8050), (4.9407, 3.8364, 5.2390)),
}


@pytest.fixture(scope="module")
def builtin():
    return builtin_flux_stats()


def test_builtin_shape(builtin):
    assert builtin.T == 50
    assert builtin.alpha.shape == (51, 3)
    assert builtin.beta.shape == (51, 3)


@pytest.mark.parametrize("t", sorted(SPOT_ROWS))
def test_builtin_spot_rows_exact(builtin, t):
    alpha, beta = builtin.row(t)
    exp_alpha, exp_beta = SPOT_ROWS[t]
    assert tuple(alpha) == exp_alpha
    assert tuple(beta) == exp_beta


def test_builtin_checksum(builtin):
    blob = json.dumps(builtin.to_json_dict(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode("ascii")).hexdigest() == BUILTIN_SHA256


def test_a_saved_builtin_table_is_the_checksummed_blob(builtin, tmp_path):
    path = tmp_path / "stats.json"
    builtin.save(path)
    raw = path.read_bytes()
    assert raw.endswith(b"}\n") and hashlib.sha256(raw[:-1]).hexdigest() == BUILTIN_SHA256


def test_builtin_scale_is_nondecreasing(builtin):
    assert np.all(np.diff(builtin.beta, axis=0) >= 0.0)


def test_row_range_errors(builtin):
    with pytest.raises(ValueError):
        builtin.row(-1)
    with pytest.raises(ValueError):
        builtin.row(51)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def test_fit_stats_symmetric_pair_is_exact():
    base = np.linspace(0.0, 1.0, 6)[:, None] * np.array([1.0, 2.0, 3.0])
    dev = np.full((6, 3), 0.25)
    stats = fit_stats([base + dev, base - dev])
    assert np.allclose(stats.alpha, base, atol=1e-15)
    assert np.allclose(stats.beta, 0.25, atol=1e-15)


def test_fit_stats_matches_brute_force(palette_tracks):
    tracks = list(palette_tracks.values())
    stats = fit_stats(tracks)
    stacked = np.stack(tracks)
    assert np.allclose(stats.alpha, stacked.mean(axis=0), atol=1e-12)
    assert np.allclose(stats.beta, np.abs(stacked - stacked.mean(axis=0)).mean(axis=0), atol=1e-12)


def test_toy_stats_scale_grows(toy_stats):
    # shared starting noise: spread is ~0 at t=0 and grows toward the end
    assert np.all(toy_stats.beta[0] < 1e-9)
    assert np.all(toy_stats.beta[-1] > 0.1)
    assert np.all(np.diff(toy_stats.beta, axis=0) >= -1e-9)


def test_fit_stats_needs_two_tracks():
    with pytest.raises(ValueError, match="at least 2"):
        fit_stats([np.zeros((4, 3))])


def test_fit_stats_rejects_identical_tracks():
    track = np.linspace(0.0, 1.0, 12).reshape(4, 3)
    with pytest.raises(ValueError) as info:
        fit_stats([track, track.copy()])
    assert str(info.value) == "zero scale: beta must be positive for t >= 1"  # the table's own refusal


def test_fit_stats_refuses_tracks_that_are_not_3_columns_wide():
    with pytest.raises(ValueError) as info:
        fit_stats([np.zeros((4, 4)), np.ones((4, 4))])
    assert str(info.value) == "expected matching (T+1, 3) tables, got (4, 4) and (4, 4)"


def test_fit_stats_rejects_mismatched_grids():
    with pytest.raises(ValueError, match="mismatched"):
        fit_stats([np.zeros((4, 3)), np.zeros((5, 3))])


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_normalize_sends_mean_to_final_mean(builtin):
    for t in range(51):
        alpha_t, _ = builtin.row(t)
        hat = normalize(alpha_t, t, builtin)
        assert np.allclose(hat, builtin.alpha[-1], atol=1e-12)


def test_normalize_at_final_step_is_identity(builtin):
    coords = np.array([1.0, -2.0, 3.0])
    assert np.allclose(normalize(coords, 50, builtin), coords, atol=1e-12)


def test_normalize_accepts_blocks_and_vectors(builtin):
    block = np.arange(12.0).reshape(4, 3)
    rows = np.stack([normalize(block[i], 10, builtin) for i in range(4)])
    assert np.allclose(normalize(block, 10, builtin), rows, atol=0)


def test_normalize_refuses_coordinates_without_3_columns(builtin):
    with pytest.raises(ValueError) as info:
        normalize(np.zeros((4, 2)), 10, builtin)
    assert str(info.value) == "expected 3 coordinate columns, got shape (4, 2)"


def test_degenerate_scale_is_rejected(toy_stats):
    # t=0 has ~zero spread in the toy stats; normalizing there is undefined
    with pytest.raises(ValueError, match="degenerate scale"):
        normalize(np.zeros(3), 0, toy_stats)


# ---------------------------------------------------------------------------
# the table type
# ---------------------------------------------------------------------------

def test_table_serialization_roundtrip(toy_stats, tmp_path):
    path = tmp_path / "stats.json"
    toy_stats.save(path)
    back = StatsTable.load(path)
    assert np.array_equal(back.alpha, toy_stats.alpha)
    assert np.array_equal(back.beta, toy_stats.beta)


def test_table_validation():
    good = np.zeros((3, 3)), np.ones((3, 3))
    StatsTable(alpha=good[0], beta=good[1])
    with pytest.raises(ValueError):
        StatsTable(alpha=np.zeros((3, 3)), beta=np.ones((4, 3)))
    with pytest.raises(ValueError):
        StatsTable(alpha=np.zeros((3, 3)), beta=-np.ones((3, 3)))
    zero_later = np.ones((3, 3))
    zero_later[2] = 0.0
    with pytest.raises(ValueError, match="zero scale"):
        StatsTable(alpha=np.zeros((3, 3)), beta=zero_later)
    with pytest.raises(ValueError):
        StatsTable(alpha=np.zeros((1, 3)), beta=np.ones((1, 3)))  # needs T >= 1


@pytest.mark.parametrize("alpha, beta, says", [
    (np.zeros((3, 3)), np.ones((4, 3)), r"^expected matching \(T\+1, 3\) tables, got \(3, 3\) and \(4, 3\)$"),
    (np.zeros((3, 2)), np.ones((3, 2)), r"^expected matching \(T\+1, 3\) tables, got \(3, 2\) and \(3, 2\)$"),
    (np.zeros(3), np.ones(3), r"^expected matching \(T\+1, 3\) tables, got \(3,\) and \(3,\)$"),
    (np.zeros((1, 3)), np.ones((1, 3)), "^a stats table needs at least timesteps 0 and 1$"),
    (np.full((3, 3), np.nan), np.ones((3, 3)), "^stats table contains non-finite values$"),
    (np.zeros((3, 3)), np.array([[-1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]), "^negative scale in stats table$"),
], ids=["mismatched", "two-columns", "one-axis", "one-row", "non-finite", "negative-at-t0"])
def test_table_refusals_say_what_is_wrong(alpha, beta, says):
    # a negative beta at t = 0 only: the zero-scale check for t >= 1 would not catch it
    with pytest.raises(ValueError, match=says):
        StatsTable(alpha=alpha, beta=beta)


# ---------------------------------------------------------------------------
# the affine chart: project and normalize as one map
# ---------------------------------------------------------------------------

@given(st.integers(0, 2**32 - 1), st.integers(3, 24), st.integers(1, 8))
def test_chart_is_project_then_normalize(seed, d, T):
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((d, 3)))
    model = SubspaceModel(mean=rng.uniform(-5.0, 5.0, d), basis=basis, explained=(0.5, 0.3, 0.2))
    stats = StatsTable(alpha=rng.uniform(-5.0, 5.0, (T + 1, 3)), beta=rng.uniform(0.05, 5.0, (T + 1, 3)))
    z = rng.uniform(-5.0, 5.0, (int(rng.integers(1, 40)), d))
    for t in range(1, T + 1):
        hat, gain = _chart(z, model, t, stats)
        assert np.array_equal(gain, stats.beta[T] / stats.beta[t])
        want = normalize(project(z, model), t, stats)
        np.testing.assert_allclose(hat, want, rtol=0.0, atol=1e-13 * gain.max())
        np.testing.assert_allclose(_chart(z[0], model, t, stats)[0], want[0], rtol=0.0, atol=1e-13 * gain.max())


def test_chart_keeps_the_checks(toy_stats, model):
    z = np.zeros((4, model.dim))
    with pytest.raises(ValueError, match="latent dim"):
        _chart(np.zeros((4, model.dim + 1)), model, 10, toy_stats)
    with pytest.raises(ValueError, match="degenerate scale"):
        _chart(z, model, 0, toy_stats)
    for t in (-1, toy_stats.T + 1, 2.0):
        with pytest.raises(ValueError, match="outside table range"):
            _chart(z, model, t, toy_stats)
