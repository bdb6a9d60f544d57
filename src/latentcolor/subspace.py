"""Discovery of the 3-D color subspace of a patch-latent space.

A set of per-image averaged latent vectors is centered and decomposed
with population-normalized PCA; the top three components span the
subspace in which color lives. Projection maps latents from the full
d-dimensional space to subspace coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import tensorio

__all__ = ["SubspaceModel", "average_patches", "fit_pca", "project"]


@dataclass(frozen=True)
class SubspaceModel(tensorio.JsonRecord):
    """Centered orthonormal basis of the color subspace.

    mean: (d,) centering vector.
    basis: (d, k) with orthonormal columns, ordered by decreasing variance.
    explained: per-component fraction of total variance.
    """

    mean: np.ndarray
    basis: np.ndarray
    explained: tuple[float, ...]

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=np.float64)
        basis = np.asarray(self.basis, dtype=np.float64)
        if mean.ndim != 1 or basis.ndim != 2 or basis.shape[0] != mean.shape[0]:
            raise ValueError(f"inconsistent shapes: mean {mean.shape}, basis {basis.shape}")
        gram = basis.T @ basis
        if not np.allclose(gram, np.eye(basis.shape[1]), atol=1e-9):
            raise ValueError("basis columns are not orthonormal")
        if len(self.explained) != basis.shape[1]:
            raise ValueError("one explained ratio per basis column required")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "explained", tuple(float(v) for v in self.explained))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def k(self) -> int:
        return self.basis.shape[1]

    def to_json_dict(self) -> dict:
        return {
            "mean": self.mean.tolist(),
            "basis_columns": [self.basis[:, j].tolist() for j in range(self.k)],
            "explained": list(self.explained),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SubspaceModel":
        return cls(
            mean=tensorio.float_array(obj["mean"]),
            basis=tensorio.float_array(obj["basis_columns"]).T,
            explained=tuple(tensorio.float_array(obj["explained"])),
        )


def average_patches(z: np.ndarray) -> np.ndarray:
    """Mean over the patch axis of an (L, d) latent tensor."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError(f"expected (L, d) tensor, got shape {z.shape}")
    return z.mean(axis=0)


def _top_components(samples: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Eigenpairs of the population covariance, largest first.

    Uses the N x N Gram matrix when there are fewer samples than dims.
    Returns (mean, eigenvalues (k,), eigenvectors (d, k), total variance).
    """
    n, d = samples.shape
    mean = samples.mean(axis=0)
    x = samples - mean
    total = float(np.sum(x * x)) / n
    if n < d:
        gram = (x @ x.T) / n
        vals, vecs = np.linalg.eigh(gram)
        order = np.argsort(-vals, kind="stable")[:k]
        vals = vals[order]
        if np.any(vals <= 0):
            raise ValueError("degenerate input: fewer than k directions of variance")
        comps = x.T @ vecs[:, order] / np.sqrt(n * vals)
    else:
        cov = (x.T @ x) / n
        vals_all, vecs_all = np.linalg.eigh(cov)
        order = np.argsort(-vals_all, kind="stable")[:k]
        vals = vals_all[order]
        comps = vecs_all[:, order]
    return mean, vals, comps, total


def _orient(basis: np.ndarray, mean: np.ndarray, orientation: Mapping[str, np.ndarray]) -> np.ndarray:
    """Fix component signs from labeled probe latents.

    Component 1 points from the black probe toward the white probe,
    component 2 gives the red probe a positive coordinate, and component 3
    is flipped so hue grows from red toward yellow.
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
        coords["yellow"][1] = -coords["yellow"][1]
    if basis.shape[1] > 2 and coords["yellow"][2] < 0:
        basis[:, 2] = -basis[:, 2]
    return basis


def _default_orient(basis: np.ndarray) -> np.ndarray:
    # sign convention: largest-magnitude entry of each column is positive
    basis = basis.copy()
    for j in range(basis.shape[1]):
        i = int(np.argmax(np.abs(basis[:, j])))
        if basis[i, j] < 0:
            basis[:, j] = -basis[:, j]
    return basis


def fit_pca(
    samples: np.ndarray,
    k: int = 3,
    orientation: Mapping[str, np.ndarray] | None = None,
) -> SubspaceModel:
    """Fit the color subspace from per-image averaged latents.

    samples: (N, d) with N >= k + 1. Covariance is population-normalized
    (divide by N). When orientation probes are given, component signs are
    canonicalized against them; otherwise a deterministic sign rule is used.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2:
        raise ValueError(f"expected (N, d) samples, got shape {samples.shape}")
    n, d = samples.shape
    if k < 1 or k > d:
        raise ValueError(f"k={k} out of range for d={d}")
    if n < k + 1:
        raise ValueError(f"need at least {k + 1} samples, got {n}")
    if not np.all(np.isfinite(samples)):
        raise ValueError("samples contain non-finite values")
    mean, vals, comps, total = _top_components(samples, k)
    if total <= 1e-12:
        raise ValueError("degenerate input: samples have zero variance")
    if orientation is not None and k == 3:
        comps = _orient(comps, mean, orientation)
    else:
        comps = _default_orient(comps)
    explained = tuple(float(v) / total for v in vals)
    return SubspaceModel(mean=mean, basis=comps, explained=explained)


def project(z: np.ndarray, model: SubspaceModel) -> np.ndarray:
    """Subspace coordinates of latents: (z - mean) @ basis.

    Accepts a single (d,) vector or an (L, d) tensor.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.shape[-1] != model.dim:
        raise ValueError(f"latent dim {z.shape[-1]} does not match model dim {model.dim}")
    return (z - model.mean) @ model.basis

