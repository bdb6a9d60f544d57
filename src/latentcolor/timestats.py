"""Per-timestep location and scale statistics of subspace coordinates.

During generation the distribution of projected latents drifts (location
alpha_t) and spreads (scale beta_t, a mean absolute deviation). A stats
table maps any intermediate step's coordinates onto the final step's
distribution so one anchor geometry serves every timestep.

The builtin table ships 51 rows (t = 0..50) measured on a production
text-to-image flow model; it is embedded as source constants and guarded
by a checksum test against its canonical serialization.

Note an asymmetry carried over from how the tables are produced: fit_stats
consumes per-image *averaged* coordinate tracks, while normalize applies
the table to *individual* patch rows. Averaging shrinks dispersion, so
beta understates per-patch spread; normalization is nevertheless
self-consistent because the same table supplies both the source and
target distributions.
"""

from __future__ import annotations

import numpy as np

from . import tensorio
from .subspace import SubspaceModel

__all__ = ["StatsTable", "builtin_flux_stats", "fit_stats", "normalize"]

_MIN_SCALE = 1e-12


class StatsTable(tensorio.JsonRecord):
    """Rows of (alpha_t, beta_t), contiguous from t = 0 to t = T.

    beta must be strictly positive for every t >= 1. t = 0 may be
    degenerate (all trajectories can share their initial state).
    """

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha, beta) -> None:
        alpha, beta = np.asarray(alpha, dtype=np.float64), np.asarray(beta, dtype=np.float64)
        if alpha.ndim != 2 or alpha.shape[1] != 3 or alpha.shape != beta.shape:
            raise ValueError(f"expected matching (T+1, 3) tables, got {alpha.shape} and {beta.shape}")
        if alpha.shape[0] < 2:
            raise ValueError("a stats table needs at least timesteps 0 and 1")
        if not (np.isfinite(alpha).all() and np.isfinite(beta).all()):
            raise ValueError("stats table contains non-finite values")
        if (beta < 0).any():
            raise ValueError("negative scale in stats table")
        if (beta[1:] <= _MIN_SCALE).any():
            raise ValueError("zero scale: beta must be positive for t >= 1")
        self.alpha, self.beta = alpha, beta

    @property
    def T(self) -> int:
        return self.alpha.shape[0] - 1

    def row(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        if not (isinstance(t, (int, np.integer)) and 0 <= t <= self.T):
            raise ValueError(f"timestep {t!r} outside table range 0..{self.T}")
        return self.alpha[t], self.beta[t]

    def to_json_dict(self) -> dict:
        return {
            "rows": [
                {"t": t, "alpha": self.alpha[t].tolist(), "beta": self.beta[t].tolist()}
                for t in range(self.T + 1)
            ]
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "StatsTable":
        if not all(type(r["t"]) is int for r in obj["rows"]):  # no floats, and no bools (an int subclass)
            raise ValueError("stats row t must be an integer")
        rows = sorted(obj["rows"], key=lambda r: r["t"])
        if [r["t"] for r in rows] != list(range(len(rows))):
            raise ValueError("stats rows are not contiguous from t = 0")
        table = tensorio.float_array([[r["alpha"], r["beta"]] for r in rows], (None, 2, 3))
        return cls(alpha=table[:, 0], beta=table[:, 1])


# ---------------------------------------------------------------------------
# Builtin table measured on a production flow model (T = 50).
# ---------------------------------------------------------------------------

_ALPHA = (
    (2.3413, -2.3586, 0.4266),
    (2.3574, -2.3833, 0.4644),
    (2.3638, -2.3904, 0.4883),
    (2.3734, -2.3951, 0.5122),
    (2.3831, -2.3993, 0.5384),
    (2.3925, -2.4026, 0.5647),
    (2.4023, -2.4047, 0.5919),
    (2.4124, -2.4060, 0.6198),
    (2.4226, -2.4064, 0.6484),
    (2.4330, -2.4060, 0.6772),
    (2.4437, -2.4051, 0.7065),
    (2.4546, -2.4035, 0.7367),
    (2.4659, -2.4011, 0.7668),
    (2.4775, -2.3981, 0.7974),
    (2.4897, -2.4009, 0.8312),
    (2.5021, -2.4036, 0.8656),
    (2.5148, -2.4065, 0.9008),
    (2.5277, -2.4093, 0.9364),
    (2.5408, -2.4123, 0.9727),
    (2.5542, -2.4154, 1.0099),
    (2.5680, -2.4186, 1.0481),
    (2.5820, -2.4218, 1.0868),
    (2.5963, -2.4252, 1.1263),
    (2.6110, -2.4288, 1.1672),
    (2.6261, -2.4324, 1.2090),
    (2.6416, -2.4363, 1.2520),
    (2.6575, -2.4403, 1.2957),
    (2.6738, -2.4444, 1.3406),
    (2.6904, -2.4485, 1.3865),
    (2.7074, -2.4529, 1.4336),
    (2.7250, -2.4574, 1.4818),
    (2.7432, -2.4621, 1.5314),
    (2.7618, -2.4669, 1.5823),
    (2.7810, -2.4720, 1.6344),
    (2.8006, -2.4771, 1.6878),
    (2.8209, -2.4826, 1.7430),
    (2.8418, -2.4883, 1.7995),
    (2.8631, -2.4944, 1.8578),
    (2.8853, -2.5005, 1.9179),
    (2.9080, -2.5066, 1.9793),
    (2.9313, -2.5132, 2.0426),
    (2.9555, -2.5199, 2.1082),
    (2.9804, -2.5268, 2.1756),
    (3.0060, -2.5338, 2.2450),
    (3.0328, -2.5411, 2.3172),
    (3.0603, -2.5486, 2.3914),
    (3.0889, -2.5561, 2.4682),
    (3.1189, -2.5640, 2.5482),
    (3.1497, -2.5725, 2.6302),
    (3.1824, -2.5796, 2.7175),
    (3.2152, -2.5889, 2.8050),
)

_BETA = (
    (0.0163, 0.0172, 0.0295),
    (0.0905, 0.0716, 0.0999),
    (0.1345, 0.1123, 0.1544),
    (0.1826, 0.1491, 0.2065),
    (0.2360, 0.1899, 0.2630),
    (0.2904, 0.2316, 0.3202),
    (0.3471, 0.2749, 0.3793),
    (0.4050, 0.3191, 0.4394),
    (0.4640, 0.3641, 0.5003),
    (0.5231, 0.4091, 0.5611),
    (0.5834, 0.4547, 0.6228),
    (0.6456, 0.5016, 0.6861),
    (0.7077, 0.5481, 0.7488),
    (0.7713, 0.5958, 0.8127),
    (0.8410, 0.6496, 0.8866),
    (0.9119, 0.7044, 0.9616),
    (0.9845, 0.7605, 1.0386),
    (1.0578, 0.8172, 1.1163),
    (1.1325, 0.8750, 1.1957),
    (1.2094, 0.9344, 1.2771),
    (1.2880, 0.9953, 1.3606),
    (1.3680, 1.0571, 1.4453),
    (1.4498, 1.1205, 1.5321),
    (1.5341, 1.1858, 1.6216),
    (1.6206, 1.2526, 1.7131),
    (1.7094, 1.3214, 1.8072),
    (1.7998, 1.3913, 1.9030),
    (1.8927, 1.4633, 2.0014),
    (1.9879, 1.5370, 2.1022),
    (2.0854, 1.6126, 2.2056),
    (2.1853, 1.6900, 2.3114),
    (2.2881, 1.7696, 2.4202),
    (2.3939, 1.8515, 2.5321),
    (2.5021, 1.9354, 2.6467),
    (2.6133, 2.0215, 2.7642),
    (2.7280, 2.1106, 2.8857),
    (2.8455, 2.2017, 3.0101),
    (2.9668, 2.2957, 3.1386),
    (3.0921, 2.3929, 3.2712),
    (3.2204, 2.4922, 3.4067),
    (3.3523, 2.5946, 3.5464),
    (3.4888, 2.7006, 3.6911),
    (3.6292, 2.8097, 3.8398),
    (3.7741, 2.9222, 3.9931),
    (3.9247, 3.0394, 4.1527),
    (4.0793, 3.1597, 4.3168),
    (4.2393, 3.2843, 4.4866),
    (4.4053, 3.4142, 4.6636),
    (4.5760, 3.5480, 4.8461),
    (4.7541, 3.6886, 5.0383),
    (4.9407, 3.8364, 5.2390),
)


def builtin_flux_stats() -> StatsTable:
    """The builtin 51-row table of per-timestep statistics."""
    return StatsTable(alpha=np.array(_ALPHA), beta=np.array(_BETA))


def fit_stats(trajectories) -> StatsTable:
    """Fit alpha (mean) and beta (mean absolute deviation) per timestep.

    trajectories: sequence of (T+1, 3) per-image averaged coordinate
    tracks, all on the same timestep grid. At least two are required,
    since a single track has zero deviation everywhere.
    """
    tracks = [np.asarray(t, dtype=np.float64) for t in trajectories]
    if len(tracks) < 2:
        raise ValueError("need at least 2 trajectories to estimate scale")
    shapes = {t.shape for t in tracks}
    if len(shapes) != 1:
        raise ValueError(f"mismatched trajectory grids: {sorted(shapes)}")
    stacked = np.stack(tracks)  # (N, T+1, 3); StatsTable refuses any other track shape, and a zero scale
    alpha = stacked.mean(axis=0)
    beta = np.abs(stacked - alpha).mean(axis=0)
    return StatsTable(alpha=alpha, beta=beta)


def _check_t(stats: StatsTable, t: int) -> tuple[np.ndarray, np.ndarray]:
    alpha_t, beta_t = stats.row(t)
    if (beta_t <= _MIN_SCALE).any():
        raise ValueError(f"degenerate scale at t = {t}")
    return alpha_t, beta_t


def _chart(z: np.ndarray, model: SubspaceModel, t: int, stats: StatsTable) -> tuple[np.ndarray, np.ndarray]:
    """normalize(project(z, model), t, stats) as one affine map z @ W_t + b_t, and its gain beta_T / beta_t.

    W_t = basis * gain is (d, 3), so no (L, d) temporary z - mean is built as in project; the
    coordinates differ from the two steps' by rounding only.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.shape[-1] != model.dim:
        raise ValueError(f"latent dim {z.shape[-1]} does not match model dim {model.dim}")
    alpha_t, beta_t = _check_t(stats, t)
    alpha_T, beta_T = stats.row(stats.T)
    gain = beta_T / beta_t
    hat = z @ (model.basis * gain)
    # b_t added one column at a time: an (L, 3) + (3,) add runs L inner loops of length 3
    for i, b in enumerate(alpha_T - (model.mean @ model.basis + alpha_t) * gain):
        hat[..., i] += b
    return hat, gain


def normalize(coords: np.ndarray, t: int, stats: StatsTable) -> np.ndarray:
    """Map coordinates at timestep t onto the final step's distribution.

    Elementwise (c - alpha_t) / beta_t * beta_T + alpha_T. Accepts a (3,)
    vector or an (L, 3) block.
    """
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape[-1] != 3:
        raise ValueError(f"expected 3 coordinate columns, got shape {coords.shape}")
    alpha_t, beta_t = _check_t(stats, t)
    alpha_T, beta_T = stats.row(stats.T)
    return (coords - alpha_t) / beta_t * beta_T + alpha_T
