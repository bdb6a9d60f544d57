"""Discovery of the 3-D color subspace of a patch-latent space.

A set of per-image averaged latent vectors is centered; the top three
eigenvectors of their population covariance span the subspace in which
color lives. Projection maps latents from the full d-dimensional space
to subspace coordinates.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from . import tensorio

__all__ = ["SubspaceModel", "average_patches", "fit_pca", "project"]


class SubspaceModel(tensorio.JsonRecord):
    """Centered orthonormal basis of the color subspace.

    mean: (d,) centering vector.
    basis: (d, 3) with orthonormal columns, ordered by decreasing variance.
    explained: the three components' fractions of total variance.
    """

    __slots__ = ("mean", "basis", "explained")

    def __init__(self, mean, basis, explained) -> None:
        mean, basis = np.asarray(mean, dtype=np.float64), np.asarray(basis, dtype=np.float64)
        if mean.ndim != 1 or basis.shape != (mean.shape[0], 3):
            raise ValueError(f"expected a (d,) mean and a (d, 3) basis, got {mean.shape} and {basis.shape}")
        if not (np.abs(basis.T @ basis - np.eye(3)) <= 1e-9).all():  # NaN fails too
            raise ValueError("basis columns are not orthonormal")
        if len(explained) != 3:
            raise ValueError(f"expected 3 explained ratios, got {len(explained)}")
        self.mean, self.basis, self.explained = mean, basis, tuple(float(v) for v in explained)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def to_json_dict(self) -> dict:
        return {
            "mean": self.mean.tolist(),
            "basis_columns": self.basis.T.tolist(),
            "explained": list(self.explained),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SubspaceModel":
        mean = tensorio.float_array(obj["mean"], (None,))
        return cls(
            mean=mean,
            basis=tensorio.float_array(obj["basis_columns"], (3, mean.size)).T,
            explained=tensorio.float_array(obj["explained"], (3,)).tolist(),
        )


def average_patches(z: np.ndarray) -> np.ndarray:
    """Mean over the patch axis of an (L, d) latent tensor."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError(f"expected (L, d) tensor, got shape {z.shape}")
    return z.mean(axis=0)


def _orient(basis: np.ndarray, mean: np.ndarray, orientation: Mapping[str, np.ndarray]) -> np.ndarray:
    """Fix component signs from labeled probe latents.

    Component 1 points from the black probe toward the white probe,
    component 2 gives the red probe a positive coordinate, and component 3
    the yellow probe. That is not "hue grows from red toward yellow": with
    red at -70 and yellow at -10 degrees in the (c2, c3) plane, the rule
    flips a counterclockwise turn. Decode does not depend on the sign, as
    AnchorSet builds its own e2.
    """
    required = ("white", "black", "red", "yellow")
    missing = [k for k in required if k not in orientation]
    if missing:
        raise ValueError(f"orientation probes missing labels: {missing}")
    coords = {k: basis.T @ (np.asarray(orientation[k], dtype=np.float64) - mean) for k in required}
    basis = basis.copy()
    if coords["white"][0] < coords["black"][0]:
        basis[:, 0] = -basis[:, 0]
    if coords["red"][1] < 0:
        basis[:, 1] = -basis[:, 1]
    if coords["yellow"][2] < 0:
        basis[:, 2] = -basis[:, 2]
    return basis


def fit_pca(samples: np.ndarray, k: int = 3, *, orientation: Mapping[str, np.ndarray]) -> SubspaceModel:
    """Fit the color subspace from per-image averaged latents.

    samples: (N, d) with N >= 4 and d >= 3. The basis is the top three
    eigenvectors of the population covariance (divided by N), whatever N is.
    k must be 3. Component signs are canonicalized against the white,
    black, red and yellow latents of orientation.
    """
    if k != 3:
        raise ValueError(f"the color subspace has 3 components, got k={k}")
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2:
        raise ValueError(f"expected (N, d) samples, got shape {samples.shape}")
    n, d = samples.shape
    if n < 4 or d < 3:
        raise ValueError(f"need at least 4 samples of at least 3 dims, got shape {samples.shape}")
    if not np.all(np.isfinite(samples)):
        raise ValueError("samples contain non-finite values")
    mean = samples.mean(axis=0)
    x = samples - mean
    total = float(np.sum(x * x)) / n
    if total <= 1e-12:
        raise ValueError("degenerate input: samples have zero variance")
    vals, vecs = np.linalg.eigh((x.T @ x) / n)
    top = np.argsort(-vals, kind="stable")[:3]
    basis = _orient(vecs[:, top], mean, orientation)
    return SubspaceModel(mean=mean, basis=basis, explained=tuple(float(v) / total for v in vals[top]))


def project(z: np.ndarray, model: SubspaceModel) -> np.ndarray:
    """Subspace coordinates of latents: (z - mean) @ basis.

    Accepts a single (d,) vector or an (L, d) tensor.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.shape[-1] != model.dim:
        raise ValueError(f"latent dim {z.shape[-1]} does not match model dim {model.dim}")
    return (z - model.mean) @ model.basis

