"""Principal-component fitting and projection."""

import numpy as np
import pytest

from latentcolor import SubspaceModel, average_patches, fit_pca, project


def fixed_probes(d: int) -> dict[str, np.ndarray]:
    """Orientation latents that only fix the component signs of a fit on d-dim samples."""
    return dict(zip(("white", "black", "red", "yellow"), np.random.default_rng(4).standard_normal((4, d))))


def principal_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    sv = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return np.arccos(np.clip(sv, -1.0, 1.0))


def test_average_patches_matches_mean():
    z = np.random.default_rng(0).standard_normal((10, 6))
    assert np.allclose(average_patches(z), z.mean(axis=0), atol=1e-15)
    with pytest.raises(ValueError):
        average_patches(np.zeros(6))


@pytest.mark.parametrize(
    "direction, n",
    [
        (np.array([3.0, -4.0, 12.0]) / 13.0, 200),
        (np.array([1.0, 2.0, 2.0, 4.0, 0.0, 2.0, 2.0, 4.0]) / 7.0, 5),  # fewer samples than dims
    ],
    ids=["N200-d3", "N5-d8"],
)
def test_line_data_concentrates_on_first_component(direction, n):
    rng = np.random.default_rng(1)
    samples = np.outer(rng.standard_normal(n), direction) + 5.0
    model = fit_pca(samples, k=3, orientation=fixed_probes(len(direction)))
    assert model.explained[0] == pytest.approx(1.0, abs=1e-12)
    assert abs(model.explained[1]) <= 1e-12
    assert np.allclose(np.abs(model.basis[:, 0]), np.abs(direction), atol=1e-9)
    assert np.allclose(model.mean, samples.mean(axis=0), atol=1e-12)


def test_recovers_planted_subspace(probe_set, model, embedder):
    assert sum(model.explained) >= 0.9999
    angles = principal_angles(model.basis, embedder.lift)
    assert np.max(angles) < 1e-6


def test_explained_ratios_match_eig_oracle(probe_set, model):
    x = probe_set.lattice - probe_set.lattice.mean(axis=0)
    vals = np.linalg.eigvalsh(x.T @ x / x.shape[0])[::-1]
    assert np.allclose(model.explained, vals[:3] / vals.sum(), atol=1e-12)


def test_gram_path_agrees_with_covariance_path(embedder):
    # fewer samples than dimensions: the covariance is rank-deficient, and its eigendecomposition
    # must still find the planted span that four copies of the samples give
    rng = np.random.default_rng(2)
    coords = rng.standard_normal((8, 3)) * np.array([5.0, 3.0, 1.0])
    samples = embedder.offset + coords @ embedder.lift.T
    small = fit_pca(samples, k=3, orientation=fixed_probes(embedder.dim))
    padded = fit_pca(np.vstack([samples] * 4), k=3, orientation=fixed_probes(embedder.dim))
    assert np.max(principal_angles(small.basis, embedder.lift)) < 1e-6
    assert np.max(principal_angles(small.basis, padded.basis)) < 1e-6
    assert np.allclose(small.explained, padded.explained, atol=1e-9)


def test_fit_is_order_invariant(probe_set):
    shuffled = probe_set.lattice[np.random.default_rng(3).permutation(len(probe_set.lattice))]
    a = fit_pca(probe_set.lattice, k=3, orientation=probe_set.labeled)
    b = fit_pca(shuffled, k=3, orientation=probe_set.labeled)
    assert np.allclose(a.basis, b.basis, atol=1e-8)  # the probes fix the signs
    assert np.allclose(a.explained, b.explained, atol=1e-10)


def test_basis_is_orthonormal(model):
    assert np.allclose(model.basis.T @ model.basis, np.eye(3), atol=1e-12)


def test_orientation_probes_fix_signs(probe_set, model):
    white = project(probe_set.labeled["white"], model)
    black = project(probe_set.labeled["black"], model)
    red = project(probe_set.labeled["red"], model)
    yellow = project(probe_set.labeled["yellow"], model)
    assert white[0] > black[0]
    assert red[1] > 0.0
    assert yellow[2] > 0.0


def test_project_accepts_single_vectors(model):
    z = np.random.default_rng(6).standard_normal(model.dim)
    single = project(z, model)
    stacked = project(z[None, :], model)
    assert single.shape == (3,)
    assert np.allclose(single, stacked[0], atol=0)


@pytest.mark.parametrize("samples, says", [
    (np.ones(8), "expected (N, d) samples, got shape (8,)"),
    (np.ones((2, 5, 8)), "expected (N, d) samples, got shape (2, 5, 8)"),
    (np.where(np.eye(10, 8) > 0, np.nan, 1.0), "samples contain non-finite values"),
    (np.where(np.eye(10, 8) > 0, np.inf, 1.0), "samples contain non-finite values"),
], ids=["1-d", "3-d", "nan", "inf"])
def test_fit_refuses_samples_that_are_not_a_finite_2_d_block(samples, says):
    with pytest.raises(ValueError) as info:
        fit_pca(samples, k=3, orientation=fixed_probes(8))
    assert str(info.value) == says


def test_project_refuses_latents_of_another_width(model):
    with pytest.raises(ValueError) as info:
        project(np.zeros((4, model.dim + 1)), model)
    assert str(info.value) == f"latent dim {model.dim + 1} does not match model dim {model.dim}"


def test_fit_rejects_degenerate_input():
    with pytest.raises(ValueError, match="at least"):
        fit_pca(np.zeros((3, 8)), k=3, orientation=fixed_probes(8))
    with pytest.raises(ValueError, match="zero variance"):
        fit_pca(np.ones((10, 8)), k=3, orientation=fixed_probes(8))


def test_fit_refuses_any_k_but_3(probe_set):
    for k in (2, 4):
        with pytest.raises(ValueError, match="3 components"):
            fit_pca(probe_set.lattice, k=k, orientation=probe_set.labeled)


def test_fit_requires_orientation_probes_when_given(probe_set):
    partial = {k: v for k, v in probe_set.labeled.items() if k != "red"}
    with pytest.raises(ValueError):
        fit_pca(probe_set.lattice, k=3, orientation=partial)


def test_model_serialization_roundtrip(model, tmp_path):
    path = tmp_path / "model.json"
    model.save(path)
    back = SubspaceModel.load(path)
    assert np.array_equal(back.mean, model.mean)
    assert np.array_equal(back.basis, model.basis)
    assert np.array_equal(back.explained, model.explained)


def test_model_rejects_nonorthonormal_basis():
    with pytest.raises(ValueError):
        SubspaceModel(
            mean=np.zeros(4),
            basis=np.ones((4, 3)),
            explained=np.array([0.5, 0.3, 0.2]),
        )


@pytest.mark.parametrize("scale, off, accepted", [(1 + 4e-6, 8e-6, False), (1 + 2.5e-10, 5e-10, True)])
def test_model_basis_is_orthonormal_within_1e_9_elementwise(scale, off, accepted):
    # a column scaled by `scale` is off by about `off` on its diagonal entry of B^T B; a relative
    # tolerance of 1e-5 on the identity would let 8e-6 through
    q, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((6, 3)))
    basis = q * [scale, 1.0, 1.0]
    assert np.max(np.abs(basis.T @ basis - np.eye(3))) == pytest.approx(off, rel=1e-3)
    make = lambda: SubspaceModel(mean=np.zeros(6), basis=basis, explained=(0.5, 0.3, 0.2))
    if accepted:
        assert np.array_equal(make().basis, basis)
    else:
        with pytest.raises(ValueError, match="not orthonormal"):
            make()


def test_model_rejects_a_nan_basis():
    basis = np.eye(4)[:, :3].copy()
    basis[3, 2] = np.nan
    with pytest.raises(ValueError, match="not orthonormal"):
        SubspaceModel(mean=np.zeros(4), basis=basis, explained=(0.5, 0.3, 0.2))



@pytest.mark.parametrize("mean, basis, explained, says", [
    (np.zeros(4), np.eye(3), (0.5, 0.3, 0.2), r"^expected a \(d,\) mean and a \(d, 3\) basis, got \(4,\) and \(3, 3\)$"),
    (np.zeros((4, 1)), np.eye(4)[:, :3], (0.5, 0.3, 0.2),
     r"^expected a \(d,\) mean and a \(d, 3\) basis, got \(4, 1\) and \(4, 3\)$"),
    (np.zeros(4), np.eye(4)[:, :3], (0.5, 0.3), "^expected 3 explained ratios, got 2$"),
], ids=["basis-rows", "mean-axes", "explained"])
def test_model_refusals_say_what_is_wrong(mean, basis, explained, says):
    with pytest.raises(ValueError, match=says):
        SubspaceModel(mean=mean, basis=basis, explained=explained)