"""End-to-end command-line workflows on a temporary workspace."""

import contextlib
import errno
import io
import json
import math
import os
import runpy
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

import latentcolor
from latentcolor import (
    ColorGrid,
    PatchMask,
    ToyEmbedder,
    average_patches,
    embed_image,
    fit_stats,
    project,
    read_latents,
    write_latents,
)
from latentcolor import AnchorSet, SubspaceModel, StatsTable, observe
from latentcolor import cli, decode, intervene, tensorio
from latentcolor.cli import _report_lines, build_parser, main
from latentcolor.colorspace import (
    HslColor,
    ciede2000_array,
    hsl_to_rgb_array,
    linear_rgb_to_lab_array,
    parse_hex,
    rgb_to_hsl,
    signed_hue_delta,
    srgb_to_linear_array,
)
from latentcolor.bicone import HUE_DEGREES, HUE_LABELS, encode
from latentcolor.intervene import MODES
from latentcolor.observe import mean_color
from latentcolor.timestats import _chart
from latentcolor.toyflow import probe_colors
from test_bicone import TINY_CHROMA_AXIS, TINY_CHROMA_HUES
from test_kernels import hue, unit
from test_tensorio import stacked_steps

RED_HEX = "#D81511"
BLUE_HEX = "#1190D8"


def load_json(path):
    return json.loads(Path(path).read_text())


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Probes on disk plus fitted model/anchors/stats, all via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    e = ToyEmbedder.create(seed=0, d=16)
    probes = root / "probes"
    probes.mkdir()
    for label, color in probe_colors().items():
        write_latents(probes / f"{label}.lt", embed_image(ColorGrid.solid(color, 8, 8), e))

    model = root / "model.json"
    anchors = root / "anchors.json"
    assert main(["fit", str(probes), "--model-out", str(model), "--anchors-out", str(anchors)]) == 0

    for seed, color, name in ((5, RED_HEX, "run-red"), (6, BLUE_HEX, "run-blue")):
        code = main(
            [
                "simulate",
                "--out", str(root / name),
                "--colors", color,
                "--T", "20",
                "--seed", str(seed),
                "--toy-seed", "0",
            ]
        )
        assert code == 0

    stats = root / "stats.json"
    code = main(
        [
            "stats",
            str(root / "run-red" / "manifest.json"),
            str(root / "run-blue" / "manifest.json"),
            "--model", str(model),
            "--out", str(stats),
        ]
    )
    assert code == 0
    return {"root": root, "probes": probes, "model": model, "anchors": anchors, "stats": stats}


def test_fit_reports_explained_variance(ws, capsys, tmp_path):
    code = main(
        [
            "fit", str(ws["probes"]),
            "--model-out", str(tmp_path / "m.json"),
            "--anchors-out", str(tmp_path / "a.json"),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "explained variance ratios:" in out
    assert (tmp_path / "m.json").exists()
    assert (tmp_path / "a.json").exists()


def test_simulate_writes_contiguous_trajectory(ws):
    traj = stacked_steps(ws["root"] / "run-red" / "manifest.json")
    assert traj.shape == (21, 64, 16)


def test_stats_output_covers_horizon(ws):
    obj = load_json(ws["stats"])
    assert len(obj["rows"]) == 21
    assert obj["rows"][0]["t"] == 0


def test_stats_tracks_are_the_per_frame_projection_means_within_1e_13_of_scale(ws):
    # stats projects each frame's patch mean, which equals the mean of the patches' projections as project is
    # affine; the per-frame form is the reference, and the two differ by rounding only
    model = SubspaceModel.load(ws["model"])
    trajs = [stacked_steps(ws["root"] / run / "manifest.json") for run in ("run-red", "run-blue")]
    tracks = [np.stack([average_patches(project(frame, model)) for frame in traj]) for traj in trajs]
    want, got = fit_stats(tracks), StatsTable.load(ws["stats"])
    scale = max(float(np.abs(track).max()) for track in tracks)
    np.testing.assert_allclose(got.alpha, want.alpha, rtol=0.0, atol=1e-13 * scale)
    np.testing.assert_allclose(got.beta, want.beta, rtol=0.0, atol=1e-13 * scale)


def _stats_bytes_from_whole_trajectories(trajs, model, out) -> bytes:
    """stats.json as fitted from each whole (T+1, L, d) trajectory held in memory before its patch mean is taken."""
    fit_stats([project(np.stack(steps).mean(axis=1), model) for steps in trajs]).save(out)
    return out.read_bytes()


def test_stats_of_the_workspace_is_the_whole_trajectory_fit_bytewise(ws, tmp_path):
    trajs = [[read_latents(ws["root"] / run / f"t{t:03d}.lt") for t in range(21)] for run in ("run-red", "run-blue")]
    model = SubspaceModel.load(ws["model"])
    assert ws["stats"].read_bytes() == _stats_bytes_from_whole_trajectories(trajs, model, tmp_path / "want.json")


@settings(max_examples=40, deadline=None)
@given(
    runs=st.integers(2, 4), T=st.integers(0, 8), L=st.integers(1, 40), d=st.integers(3, 12),
    scale=st.sampled_from([1e-3, 1.0, 40.0, 1e6]), rng_seed=st.integers(0, 2**32 - 1),
)
def test_stats_read_a_step_at_a_time_is_the_whole_trajectory_fit_bytewise(runs, T, L, d, scale, rng_seed):
    rng = np.random.default_rng(rng_seed)
    basis, _ = np.linalg.qr(rng.standard_normal((d, 3)))
    model = SubspaceModel(mean=rng.standard_normal(d) * scale, basis=basis, explained=(0.5, 0.3, 0.2))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        model.save(root / "model.json")
        trajs = [rng.standard_normal((T + 1, L, d)) * scale for _ in range(runs)]
        manifests = [tensorio.save_trajectory(root / f"run-{i}", traj) for i, traj in enumerate(trajs)]
        out = root / "stats.json"
        argv = ["stats", *map(str, manifests), "--model", str(root / "model.json"), "--out", str(out)]
        stored = [traj.astype(np.float32).astype(np.float64) for traj in trajs]  # what the step files hold
        try:
            want = _stats_bytes_from_whole_trajectories(stored, model, root / "want.json")
        except ValueError as e:  # the tracks do not separate: stats refuses them the same way
            with contextlib.redirect_stderr(io.StringIO()) as err:
                assert main(argv) == 2
            assert err.getvalue() == f"error: {e}\n"
            return
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        assert out.read_bytes() == want


def test_stats_refuses_a_wrong_width_at_step_0_before_reading_step_1(ws, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(ws["root"] / "run-red", run)
    (run / "t001.lt").write_bytes(b"garbage")  # a reader that looks past step 0 refuses this file instead
    narrow = tmp_path / "narrow.json"
    full = SubspaceModel.load(ws["model"])
    SubspaceModel(mean=full.mean[:8], basis=np.eye(8, 3), explained=full.explained).save(narrow)
    out = tmp_path / "stats.json"
    argv = ["stats", str(run / "manifest.json"), str(ws["root"] / "run-blue" / "manifest.json")]
    assert main(argv + ["--model", str(narrow), "--out", str(out)]) == 2
    says = f"latent dim 16 does not match model dim 8 of {narrow}"
    assert capsys.readouterr().err == f"error: {run / 'manifest.json'}: {says}\n"
    assert not out.exists()


def test_observe_final_frame_matches_attractor(ws, tmp_path):
    out_json = tmp_path / "grid.json"
    out_ppm = tmp_path / "grid.ppm"
    code = main(
        [
            "observe", str(ws["root"] / "run-red" / "t020.lt"),
            "--t", "20",
            "--model", str(ws["model"]),
            "--anchors", str(ws["anchors"]),
            "--stats", str(ws["stats"]),
            "--out-json", str(out_json),
            "--out-ppm", str(out_ppm),
            "--cell-px", "4",
        ]
    )
    assert code == 0
    grid = ColorGrid.load(out_json)
    assert (grid.height, grid.width) == (8, 8)
    target = rgb_to_hsl(parse_hex(RED_HEX))
    for cell in grid.cells:
        assert abs(signed_hue_delta(cell.h, target.h)) < 0.1
        assert cell.s == pytest.approx(target.s, abs=1e-3)
        assert cell.l == pytest.approx(target.l, abs=1e-3)
    ppm = out_ppm.read_bytes()
    assert ppm.startswith(b"P6\n32 32\n255\n")


def test_observe_with_builtin_stats(ws, tmp_path):
    out_json = tmp_path / "grid.json"
    code = main(
        [
            "observe", str(ws["root"] / "run-red" / "t010.lt"),
            "--t", "10",
            "--model", str(ws["model"]),
            "--anchors", str(ws["anchors"]),
            "--out-json", str(out_json),
        ]
    )
    assert code == 0
    assert out_json.exists()


def test_observe_rerun_is_byte_identical(ws, tmp_path):
    args = [
        "observe", str(ws["root"] / "run-red" / "t015.lt"),
        "--t", "15",
        "--model", str(ws["model"]),
        "--anchors", str(ws["anchors"]),
        "--stats", str(ws["stats"]),
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out-json", str(a)]) == 0
    assert main(args + ["--out-json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_intervene_edits_only_masked_patches(ws, tmp_path, capsys):
    mask_path = tmp_path / "mask.json"
    PatchMask(L=64, selected=frozenset(range(32))).save(mask_path)
    out_path = tmp_path / "steered.lt"
    latent = ws["root"] / "run-red" / "t010.lt"
    code = main(
        [
            "intervene", str(latent),
            "--t", "10",
            "--target", BLUE_HEX,
            "--mask", str(mask_path),
            "--model", str(ws["model"]),
            "--anchors", str(ws["anchors"]),
            "--stats", str(ws["stats"]),
            "--out", str(out_path),
        ]
    )
    stdout = capsys.readouterr().out
    assert code == 0
    assert "before:" in stdout and "after:" in stdout
    before = read_latents(latent)
    after = read_latents(out_path)
    assert np.array_equal(after[32:], before[32:])
    assert not np.allclose(after[:32], before[:32])


def test_intervene_accepts_hsl_target(ws, tmp_path):
    # the hue wraps mod 360, so 570 steers as 210 does
    for hsl, name in (("210,0.7,0.45", "steered.lt"), ("570,0.7,0.45", "wrapped.lt")):
        code = main(
            [
                "intervene", str(ws["root"] / "run-red" / "t010.lt"),
                "--t", "10",
                "--target-hsl", hsl,
                "--mode", "type1",
                "--model", str(ws["model"]),
                "--anchors", str(ws["anchors"]),
                "--stats", str(ws["stats"]),
                "--out", str(tmp_path / name),
            ]
        )
        assert code == 0
    assert (tmp_path / "steered.lt").read_bytes() == (tmp_path / "wrapped.lt").read_bytes()


def test_a_type1_edit_read_back_from_float32_lands_within_the_storage_bound_at_every_t(ws, tmp_path, capsys):
    # the written .lt holds float32: charted at t, its mean lands within gain x float32 eps x max|z| of the target
    model, anchors, stats = SubspaceModel.load(ws["model"]), AnchorSet.load(ws["anchors"]), StatsTable.load(ws["stats"])
    want = encode(HslColor(210.0, 0.7, 0.45), anchors)
    out = tmp_path / "steered.lt"
    for t in range(1, stats.T + 1):
        argv = ["intervene", str(ws["root"] / "run-red" / f"t{t:03d}.lt"), "--t", str(t), "--mode", "type1"]
        argv += ["--target-hsl", "210,0.7,0.45", "--out", str(out)]
        argv += [f"--{k}={ws[k]}" for k in ("model", "anchors", "stats")]
        assert main(argv) == 0
        z = read_latents(out)
        hat, gain = _chart(z, model, t, stats)
        bound = gain * float(np.finfo(np.float32).eps) * float(np.abs(z).max())  # one bound per coordinate
        assert (np.abs(hat.mean(axis=0) - want) <= bound).all()
    capsys.readouterr()


def test_eval_reports_metrics(ws, tmp_path):
    pred_path = tmp_path / "pred.json"
    ref_path = tmp_path / "ref.json"
    metrics_path = tmp_path / "metrics.json"
    args = [
        "observe", str(ws["root"] / "run-red" / "t020.lt"),
        "--t", "20",
        "--model", str(ws["model"]),
        "--anchors", str(ws["anchors"]),
        "--stats", str(ws["stats"]),
        "--out-json", str(pred_path),
    ]
    assert main(args) == 0
    ColorGrid.solid(rgb_to_hsl(parse_hex(RED_HEX)), 8, 8).save(ref_path)
    assert main(["eval", str(pred_path), str(ref_path), "--out", str(metrics_path)]) == 0
    metrics = load_json(metrics_path)
    assert metrics["de00_mean_pixel"] < 0.5
    assert metrics["de00_per_pixel"] < 0.5
    assert metrics["masked_mean"]["de00"] < 0.5
    assert set(metrics["masked_mean"]) == {
        "pred_hsl", "ref_hsl", "de00", "dh_degrees", "ds_percent", "dl_percent",
    }


def test_eval_without_mask_scores_the_mean_as_de00_mean_pixel(ws, tmp_path):
    # the masked mean over every cell is the grid mean, and its de00 comes from the same arithmetic
    def observed(name, t):
        path = tmp_path / f"{name}{t}.json"
        argv = [
            "observe", str(ws["root"] / f"run-{name}" / f"t{t:03d}.lt"),
            "--t", str(t),
            "--model", str(ws["model"]),
            "--anchors", str(ws["anchors"]),
            "--stats", str(ws["stats"]),
            "--out-json", str(path),
        ]
        assert main(argv) == 0
        return str(path)

    ref = observed("blue", 20)
    metrics_path = tmp_path / "metrics.json"
    for t in (1, 4, 10):
        assert main(["eval", observed("red", t), ref, "--out", str(metrics_path)]) == 0
        metrics = load_json(metrics_path)
        assert metrics["de00_mean_pixel"] > 10.0
        assert metrics["masked_mean"]["de00"].hex() == metrics["de00_mean_pixel"].hex()


def test_eval_with_mask(ws, tmp_path):
    pred = ColorGrid.solid(HslColor(0.0, 1.0, 0.5), 2, 2)
    cells = (HslColor(0.0, 1.0, 0.5),) * 2 + (HslColor(120.0, 1.0, 0.5),) * 2
    ref = ColorGrid(2, 2, cells)
    pred_path, ref_path = tmp_path / "p.json", tmp_path / "r.json"
    mask_path, metrics_path = tmp_path / "m.json", tmp_path / "out.json"
    pred.save(pred_path)
    ref.save(ref_path)
    PatchMask(L=4, selected=frozenset({0, 1})).save(mask_path)
    code = main(["eval", str(pred_path), str(ref_path), "--mask", str(mask_path), "--out", str(metrics_path)])
    assert code == 0
    metrics = load_json(metrics_path)
    assert metrics["masked_mean"]["de00"] == pytest.approx(0.0, abs=1e-9)
    assert metrics["de00_per_pixel"] > 10.0


@st.composite
def grid_pair(draw):
    """Two grids of one random size, a quarter of their cells grey and some at lightness 0 or 1."""
    h, w, seed = draw(st.integers(1, 8)), draw(st.integers(1, 8)), draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    grids = []
    for _ in range(2):
        s = np.where(rng.random((h, w)) < 0.25, 0.0, rng.random((h, w)))
        l = rng.choice([0.0, 1.0, 0.5, *rng.random(3)], (h, w))
        grids.append(ColorGrid.from_hsl(np.stack([rng.uniform(0.0, 360.0, (h, w)), s, l], axis=-1)))
    return grids


@settings(max_examples=60, deadline=None)
@given(grid_pair())
def test_eval_without_mask_writes_what_an_all_patches_mask_gives(grids):
    # no mask takes the grids' mean colours and their de00 from the grid comparison; an all-patches
    # mask file averages and compares them again: the same bytes
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / name for name in ("pred.json", "ref.json", "all.json", "a.json", "b.json")]
        for grid, path in zip(grids, paths):
            grid.save(path)
        PatchMask.full(grids[0].height * grids[0].width).save(paths[2])
        printed = []
        for extra, out in (([], paths[3]), (["--mask", str(paths[2])], paths[4])):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert main(["eval", str(paths[0]), str(paths[1]), *extra, "--out", str(out)]) == 0
            printed.append(stdout.getvalue().replace(str(out), "OUT"))
        assert paths[3].read_bytes() == paths[4].read_bytes()
        assert printed[0] == printed[1]


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("ref_dims", [(4, 4), (4, 16)])
def test_eval_of_grids_of_different_sizes_exits_2(tmp_path, capsys, ref_dims, masked):
    pred_path, ref_path, mask_path, out = (tmp_path / n for n in ("p.json", "r.json", "mask.json", "m.json"))
    ColorGrid.solid(HslColor(10.0, 0.5, 0.5), 8, 8).save(pred_path)
    ColorGrid.solid(HslColor(10.0, 0.5, 0.5), *ref_dims).save(ref_path)
    PatchMask.full(64).save(mask_path)
    extra = ["--mask", str(mask_path)] if masked else []
    assert main(["eval", str(pred_path), str(ref_path), *extra, "--out", str(out)]) == 2
    # the grids are compared with each other before any mask is read, and both files are named
    says = f"grid dims differ: {pred_path} is 8x8, {ref_path} is {ref_dims[0]}x{ref_dims[1]}"
    assert capsys.readouterr().err == f"error: {says}\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------

def test_fit_empty_dir_exits_2(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    code = main(["fit", str(tmp_path / "empty")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_fit_missing_labels_exits_2(ws, tmp_path, capsys):
    partial = tmp_path / "partial"
    partial.mkdir()
    (partial / "red.lt").write_bytes((ws["probes"] / "red.lt").read_bytes())
    code = main(["fit", str(partial)])
    assert code == 2
    assert "lacks labeled files" in capsys.readouterr().err


def test_fit_names_the_probe_whose_width_differs_and_writes_nothing(ws, tmp_path, capsys):
    probes = tmp_path / "probes"
    shutil.copytree(ws["probes"], probes)
    write_latents(probes / "blue.lt", read_latents(probes / "blue.lt")[:, :8])
    first = sorted(probes.glob("*.lt"))[0]
    model, anchors = tmp_path / "m.json", tmp_path / "a.json"
    assert main(["fit", str(probes), "--model-out", str(model), "--anchors-out", str(anchors)]) == 2
    assert capsys.readouterr().err == f"error: {probes / 'blue.lt'}: latent dim 8 does not match {first}'s 16\n"
    assert not model.exists() and not anchors.exists()


def test_observe_malformed_latent_exits_2(ws, tmp_path, capsys):
    bad = tmp_path / "bad.lt"
    bad.write_bytes(b'{"dims": [4, 4], "dtype": "f32le"}\n' + b"\x00" * 7)
    code = main(
        [
            "observe", str(bad),
            "--t", "5",
            "--model", str(ws["model"]),
            "--anchors", str(ws["anchors"]),
            "--out-json", str(tmp_path / "g.json"),
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_observe_t_out_of_range_exits_2(ws, tmp_path, capsys):
    code = main(
        [
            "observe", str(ws["root"] / "run-red" / "t010.lt"),
            "--t", "99",
            "--model", str(ws["model"]),
            "--anchors", str(ws["anchors"]),
            "--stats", str(ws["stats"]),
            "--out-json", str(tmp_path / "g.json"),
        ]
    )
    assert code == 2
    capsys.readouterr()


def test_observe_without_outputs_exits_2(ws, capsys):
    code = main(
        [
            "observe", str(ws["root"] / "run-red" / "t010.lt"),
            "--t", "10",
            "--model", str(ws["model"]),
            "--anchors", str(ws["anchors"]),
            "--stats", str(ws["stats"]),
        ]
    )
    assert code == 2
    assert "nothing to do" in capsys.readouterr().err


@pytest.mark.parametrize("cell_px", ["0", "-3"])
def test_observe_refuses_cell_px_below_1_before_writing(ws, tmp_path, capsys, cell_px):
    out_json, out_ppm = tmp_path / "o.json", tmp_path / "o.ppm"
    code = main(
        [
            "observe", str(ws["root"] / "run-red" / "t010.lt"),
            "--t", "10",
            "--model", str(ws["model"]),
            "--anchors", str(ws["anchors"]),
            "--stats", str(ws["stats"]),
            "--out-json", str(out_json),
            "--out-ppm", str(out_ppm),
            "--cell-px", cell_px,
        ]
    )
    assert code == 2
    assert "--cell-px" in capsys.readouterr().err
    assert not out_json.exists() and not out_ppm.exists()


def test_observe_without_outputs_exits_2_before_reading(tmp_path, capsys):
    # none of the input files exists: "nothing to do" must come before any of them is read
    code = main(
        [
            "observe", str(tmp_path / "missing.lt"),
            "--t", "10",
            "--model", str(tmp_path / "missing-model.json"),
            "--anchors", str(tmp_path / "missing-anchors.json"),
        ]
    )
    assert code == 2
    assert "nothing to do" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("ppm", ["o.out", "./o.out", "sub/../o.out", "link/o.out"])
def test_observe_refuses_one_file_for_both_outputs_before_reading(tmp_path, capsys, monkeypatch, ppm):
    # the JSON would be written, then overwritten by the PPM; none of the input files exists
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "link").symlink_to(tmp_path, target_is_directory=True)
    code = main(
        [
            "observe", "missing.lt",
            "--t", "10",
            "--model", "missing-model.json",
            "--anchors", "missing-anchors.json",
            "--out-json", "o.out",
            "--out-ppm", ppm,
        ]
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: --out-json and --out-ppm name the same file: {ppm}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "sub"]


def test_observe_replaces_a_symlinked_output_instead_of_writing_through_it(ws, tmp_path):
    # --out-ppm names a link to the JSON output: the write replaces the link, and the JSON stays
    (tmp_path / "o.ppm").symlink_to(tmp_path / "o.json")
    code = main(
        [
            "observe", str(ws["root"] / "run-red" / "t010.lt"),
            "--t", "10",
            "--model", str(ws["model"]),
            "--anchors", str(ws["anchors"]),
            "--stats", str(ws["stats"]),
            "--out-json", str(tmp_path / "o.json"),
            "--out-ppm", str(tmp_path / "o.ppm"),
        ]
    )
    assert code == 0
    assert not (tmp_path / "o.ppm").is_symlink() and (tmp_path / "o.ppm").read_bytes().startswith(b"P6\n8 8\n")
    assert ColorGrid.load(tmp_path / "o.json").height == 8


def test_failed_write_names_the_requested_file(tmp_path, capsys):
    grid = tmp_path / "g.json"
    ColorGrid.solid(HslColor(10.0, 0.5, 0.5), 2, 2).save(grid)
    out = tmp_path / "missing" / "m.json"
    assert main(["eval", str(grid), str(grid), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: '{out}'\n"
    assert list(tmp_path.iterdir()) == [grid]


def test_observe_nonsquare_needs_grid_flag(ws, tmp_path, capsys):
    run = tmp_path / "run-rect"
    code = main(
        [
            "simulate",
            "--out", str(run),
            "--colors", RED_HEX,
            "--T", "3",
            "--grid", "2x3",
        ]
    )
    assert code == 0
    code = main(
        [
            "observe", str(run / "t003.lt"),
            "--t", "3",
            "--model", str(ws["model"]),
            "--anchors", str(ws["anchors"]),
            "--stats", str(ws["stats"]),
            "--out-json", str(tmp_path / "g.json"),
        ]
    )
    assert code == 2
    assert "not square" in capsys.readouterr().err


@pytest.mark.parametrize("grid, says", [
    ("2x3", None),
    ("2X3", None),
    ("2by3", "expected HxW grid spec, got '2by3'"),
    ("2x3x1", "expected HxW grid spec, got '2x3x1'"),
    ("0x6", "grid dims must be positive, got '0x6'"),
])
def test_observe_reads_a_grid_flag_and_refuses_a_malformed_one(ws, tmp_path, capsys, grid, says):
    run = tmp_path / "run-rect"
    assert main(["simulate", "--out", str(run), "--colors", RED_HEX, "--T", "3", "--grid", "2x3"]) == 0
    out = tmp_path / "g.json"
    argv = ["observe", str(run / "t003.lt"), "--t", "3", "--model", str(ws["model"]), "--anchors", str(ws["anchors"])]
    argv += ["--stats", str(ws["stats"]), "--grid", grid, "--out-json", str(out)]
    capsys.readouterr()
    if says is None:
        assert main(argv) == 0
        observed = ColorGrid.load(out)
        assert (observed.height, observed.width) == (2, 3)
    else:
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {says}\n"
        assert not out.exists()


def test_intervene_nonsquare_latent_needs_no_grid(ws, tmp_path, capsys):
    run = tmp_path / "run-rect"
    assert main(["simulate", "--out", str(run), "--colors", RED_HEX, "--T", "3", "--grid", "2x3"]) == 0
    out_path = tmp_path / "steered.lt"
    argv = [
        "intervene", str(run / "t003.lt"),
        "--t", "3",
        "--target", BLUE_HEX,
        "--model", str(ws["model"]),
        "--anchors", str(ws["anchors"]),
        "--stats", str(ws["stats"]),
        "--out", str(out_path),
    ]
    assert main(argv) == 0
    assert read_latents(out_path).shape == (6, 16)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--grid", "2x3"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --grid 2x3" in capsys.readouterr().err


def test_intervene_bad_hex_exits_2(ws, tmp_path, capsys):
    code = main(
        [
            "intervene", str(ws["root"] / "run-red" / "t010.lt"),
            "--t", "10",
            "--target", "#zzz999",
            "--model", str(ws["model"]),
            "--anchors", str(ws["anchors"]),
            "--stats", str(ws["stats"]),
            "--out", str(tmp_path / "x.lt"),
        ]
    )
    assert code == 2
    assert "hex" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["type1", "type2"])
@pytest.mark.parametrize(
    "hsl",
    ["0,nan,0.5", "nan,0.5,0.5", "0,0.5,-inf", "0,0.5", "0,x,0.5", "40,2,0.5", "40,0.5,-0.1", "40,1.0000001,0.5"],
)
def test_intervene_refuses_a_bad_target_hsl_up_front(ws, tmp_path, capsys, mode, hsl):
    out = tmp_path / "x.lt"
    code = main(
        [
            "intervene", str(ws["root"] / "run-red" / "t010.lt"),
            "--t", "10",
            "--target-hsl", hsl,
            "--mode", mode,
            "--model", str(ws["model"]),
            "--anchors", str(ws["anchors"]),
            "--stats", str(ws["stats"]),
            "--out", str(out),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "for --target-hsl" in err and hsl in err
    assert not out.exists()


@pytest.mark.parametrize("given, says", [
    ([], "error: one of --target or --target-hsl is required"),
    (["--target", BLUE_HEX, "--target-hsl", "0,1,0.5"], "error: argument --target-hsl: not allowed with argument --target"),
    (["--target-hsl", "0,1,0.5", "--target", BLUE_HEX], "error: argument --target: not allowed with argument --target-hsl"),
], ids=["neither", "hex-then-hsl", "hsl-then-hex"])
def test_intervene_takes_exactly_one_target(ws, tmp_path, capsys, given, says):
    out = tmp_path / "x.lt"
    argv = _world_argv(ws, "intervene", ws["root"] / "run-red" / "t010.lt", *given, "--out", str(out))
    try:
        code = main(argv)
    except SystemExit as e:  # argparse's own refusals exit from the parser
        code = e.code
    assert code == 2 and says in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cell_px", [10**6, 10**15])  # numpy refuses both sizes at once: no memory is touched
def test_observe_refuses_a_raster_too_large_to_allocate_before_writing(ws, tmp_path, capsys, cell_px):
    out_json, out_ppm = tmp_path / "o.json", tmp_path / "o.ppm"
    code = main(
        [
            "observe", str(ws["root"] / "run-red" / "t010.lt"),
            "--t", "10",
            "--model", str(ws["model"]),
            "--anchors", str(ws["anchors"]),
            "--stats", str(ws["stats"]),
            "--out-json", str(out_json),
            "--out-ppm", str(out_ppm),
            "--cell-px", str(cell_px),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"{8 * cell_px}x{8 * cell_px}" in err and "internal error" not in err
    assert not out_json.exists() and not out_ppm.exists()


def test_simulate_refuses_a_doubled_hash(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--out", str(out), "--colors", "##FF0000", "--T", "2"]) == 2
    assert "expected 6 hex digits" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("colors", [",", ",,"])
def test_simulate_refuses_a_color_list_without_a_color(tmp_path, capsys, colors):
    out = tmp_path / "run"
    assert main(["simulate", "--out", str(out), "--colors", colors, "--T", "2"]) == 2
    assert capsys.readouterr().err == "error: need at least one attractor color\n"
    assert not out.exists()


def test_simulate_refuses_a_trajectory_too_large_to_allocate(tmp_path, capsys):
    # 745 TiB is refused by the allocator at once, so no memory is touched
    out = tmp_path / "run"
    assert main(["simulate", "--out", str(out), "--colors", "#FF0000", "--T", "100000000000"]) == 2
    err = capsys.readouterr().err
    assert "(100000000001, 64, 16)" in err and "too large" in err
    assert "internal error" not in err
    assert not out.exists()


@pytest.mark.parametrize("size, says", [
    (["--grid", "10000000x10000000"], "--grid 10000000x10000000 at --dim 16"),
    (["--dim", "100000000000000"], "--grid 8x8 at --dim 100000000000000"),
], ids=["grid", "dim"])
def test_simulate_refuses_a_grid_or_dim_too_large_to_allocate(tmp_path, capsys, size, says):
    # 2.1 PiB or more is refused by the allocator at once, so no memory is touched
    out = tmp_path / "run"
    assert main(["simulate", "--out", str(out), "--colors", "#FF0000", "--T", "2", *size]) == 2
    assert capsys.readouterr().err == f"error: {says} is too large to allocate\n"
    assert not out.exists()


def test_intervene_requires_a_target(ws, tmp_path, capsys):
    code = main(
        [
            "intervene", str(ws["root"] / "run-red" / "t010.lt"),
            "--t", "10",
            "--model", str(ws["model"]),
            "--anchors", str(ws["anchors"]),
            "--stats", str(ws["stats"]),
            "--out", str(tmp_path / "x.lt"),
        ]
    )
    assert code == 2
    assert "target" in capsys.readouterr().err


def test_stats_with_single_trajectory_exits_2(ws, capsys):
    code = main(
        [
            "stats",
            str(ws["root"] / "run-red" / "manifest.json"),
            "--model", str(ws["model"]),
            "--out", str(ws["root"] / "never.json"),
        ]
    )
    assert code == 2
    assert "at least 2" in capsys.readouterr().err


def test_stats_names_the_manifests_whose_horizons_differ_and_writes_nothing(ws, tmp_path, capsys):
    manifests = []
    for T in (5, 7):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--out", str(tmp_path / f"run-{T}"), "--colors", RED_HEX, "--T", str(T)]) == 0
        manifests.append(tmp_path / f"run-{T}" / "manifest.json")
    out = tmp_path / "stats.json"
    assert main(["stats", *map(str, manifests), "--model", str(ws["model"]), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {manifests[1]}: T=7 does not match {manifests[0]}'s T=5\n"
    assert not out.exists()


def test_observe_rejects_anchors_winding_twice(ws, tmp_path, capsys):
    obj = load_json(ws["anchors"])
    coords = {e["label"]: e["coords"] for e in obj["hue_anchors"]}
    # hue anchors at red, green, blue, red, green, blue: each step still
    # turns counterclockwise, but the hexagon goes round the axis twice
    for entry, src in zip(obj["hue_anchors"], ["red", "green", "blue"] * 2):
        entry["coords"] = coords[src]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code = main(
        [
            "observe", str(ws["root"] / "run-red" / "t010.lt"),
            "--t", "10",
            "--model", str(ws["model"]),
            "--anchors", str(bad),
            "--stats", str(ws["stats"]),
            "--out-json", str(tmp_path / "g.json"),
        ]
    )
    assert code == 2
    assert "more than once" in capsys.readouterr().err


def test_observe_refuses_anchors_whose_chroma_is_lost_to_rounding_naming_the_file(ws, tmp_path, capsys):
    entries = [{"label": l, "theta": th, "coords": c} for l, th, c in zip(HUE_LABELS, HUE_DEGREES, TINY_CHROMA_HUES)]
    bad, out = tmp_path / "anchors.json", tmp_path / "g.json"
    bad.write_text(json.dumps({"hue_anchors": entries, "black": TINY_CHROMA_AXIS[0], "white": TINY_CHROMA_AXIS[1]}))
    argv = ["observe", str(ws["root"] / "run-red" / "t010.lt"), "--t", "10", "--model", str(ws["model"])]
    assert main(argv + ["--anchors", str(bad), "--stats", str(ws["stats"]), "--out-json", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: bad AnchorSet: degenerate anchor: cyan probe has no chroma\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["observe", "type1", "type2", "interp", "type1-one-patch"])
def test_a_model_value_that_overflows_the_decode_exits_2_naming_the_files(ws, tmp_path, capsys, command):
    obj = load_json(ws["model"])
    obj["mean"][0] = 1.7e308  # passes every record check, and the chart stays finite; the decode overflows
    bad, mask, out = tmp_path / "model.json", tmp_path / "mask.json", tmp_path / "out"
    bad.write_text(json.dumps(obj))
    PatchMask(64, frozenset({9})).save(mask)
    argv = ["observe" if command == "observe" else "intervene", str(ws["root"] / "run-red" / "t010.lt")]
    argv += ["--t", "10", f"--model={bad}", f"--anchors={ws['anchors']}", f"--stats={ws['stats']}"]
    if command == "observe":
        argv += ["--out-json", str(out)]
    else:
        argv += ["--target", BLUE_HEX, "--mode", command.split("-")[0], "--out", str(out)]
        argv += ["--mask", str(mask)] if command.endswith("one-patch") else []
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f": out of range in --model {bad}, --anchors {ws['anchors']} or --stats {ws['stats']}\n" in err, err
    assert not out.exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("config", ["model", "anchors"])
def test_observe_rejects_non_finite_config_json(ws, tmp_path, capsys, config, value):
    obj = load_json(ws[config])
    if config == "model":
        obj["mean"][0] = value
    else:
        obj["hue_anchors"][2]["coords"][0] = value
    bad = tmp_path / f"{config}.json"
    bad.write_text(json.dumps(obj))  # json.dumps writes NaN and Infinity as bare constants
    paths = {"model": ws["model"], "anchors": ws["anchors"], config: bad}
    out = tmp_path / "g.json"
    code = main(
        [
            "observe", str(ws["root"] / "run-red" / "t010.lt"),
            "--t", "10",
            "--model", str(paths["model"]),
            "--anchors", str(paths["anchors"]),
            "--stats", str(ws["stats"]),
            "--out-json", str(out),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "non-finite" in err
    assert not out.exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_eval_rejects_non_finite_cells(tmp_path, capsys, value):
    grid = ColorGrid.solid(HslColor(0.0, 1.0, 0.5), 2, 2)
    ref_path, bad, out = tmp_path / "ref.json", tmp_path / "pred.json", tmp_path / "metrics.json"
    grid.save(ref_path)
    obj = grid.to_json_dict()
    obj["cells"][1][2] = value
    bad.write_text(json.dumps(obj))
    assert main(["eval", str(bad), str(ref_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "non-finite" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "mask",
    [
        {"L": 4, "selected": [0.9, 1.5, True]},
        {"L": 4.0, "selected": [1]},
        {"L": True, "selected": [0]},
        {"L": 4, "selected": ["1"]},
    ],
    ids=["float-and-bool-indices", "float-L", "bool-L", "string-index"],
)
def test_eval_rejects_non_integer_json_mask(tmp_path, capsys, mask):
    grid = ColorGrid.solid(HslColor(0.0, 1.0, 0.5), 2, 2)
    grid_path, mask_path, out = tmp_path / "g.json", tmp_path / "mask.json", tmp_path / "metrics.json"
    grid.save(grid_path)
    mask_path.write_text(json.dumps(mask))
    assert main(["eval", str(grid_path), str(grid_path), "--mask", str(mask_path), "--out", str(out)]) == 2
    assert "must be integers" in capsys.readouterr().err
    assert not out.exists()


def test_eval_rejects_json_mask_repeating_an_index(tmp_path, capsys):
    grid = ColorGrid.solid(HslColor(0.0, 1.0, 0.5), 2, 2)
    grid_path, mask_path, out = tmp_path / "g.json", tmp_path / "dup.json", tmp_path / "metrics.json"
    grid.save(grid_path)
    mask_path.write_text(json.dumps({"L": 4, "selected": [1, 1, 2]}))
    assert main(["eval", str(grid_path), str(grid_path), "--mask", str(mask_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(mask_path) in err and "more than once: [1]" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["intervene", "eval"])
@pytest.mark.parametrize("mask, says", [
    ({"L": 9, "selected": [0, 4]}, "selects 2 of L = 9 patches; the input has 64"),
    ({"L": 64, "selected": []}, "selects 0 of L = 64 patches; the input has 64"),
], ids=["wrong-L", "empty"])
def test_a_mask_that_does_not_fit_exits_2_naming_its_file(ws, tmp_path, capsys, command, mask, says):
    mask_path, out = tmp_path / "m.json", tmp_path / "out"
    mask_path.write_text(json.dumps(mask))
    if command == "intervene":
        argv = ["intervene", str(ws["root"] / "run-red" / "t010.lt"), "--t", "10", "--target", BLUE_HEX]
        argv += ["--model", str(ws["model"]), "--anchors", str(ws["anchors"]), "--stats", str(ws["stats"])]
    else:
        grid = tmp_path / "g.json"
        ColorGrid.solid(HslColor(0.0, 1.0, 0.5), 8, 8).save(grid)
        argv = ["eval", str(grid), str(grid)]
    assert main(argv + ["--mask", str(mask_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {mask_path}: mask {says}\n"
    assert not out.exists()


def _with_step(manifest, i, step):
    steps = list(manifest["steps"])
    steps[i] = step
    return {**manifest, "steps": steps}


def _with_anchor(anchors, i, **entry):
    """anchors with fields of hue anchor entry i replaced."""
    entries = list(anchors["hue_anchors"])
    entries[i] = {**entries[i], **entry}
    return {**anchors, "hue_anchors": entries}


def _plus_anchor(anchors, **entry):
    """anchors with one more hue anchor entry: red's, with the given fields replaced."""
    return {**anchors, "hue_anchors": [*anchors["hue_anchors"], {**anchors["hue_anchors"][0], **entry}]}


def _with_fourth_column(model):
    # e_0 less its part in the span: a fourth column orthonormal to the other three
    cols = np.array(model["basis_columns"])
    extra = np.eye(cols.shape[1])[0] - cols.T @ cols[:, 0]
    columns = [*model["basis_columns"], (extra / np.linalg.norm(extra)).tolist()]
    return {**model, "basis_columns": columns, "explained": [*model["explained"], 0.0]}


def _with_literal(obj, key, literal):
    """obj as JSON text with the first number under key written as literal."""
    first = obj[key][0]
    marked = {**obj, key: [{**first, "alpha": [1.5e-300, *first["alpha"][1:]]} if key == "rows" else 1.5e-300, *obj[key][1:]]}
    text = json.dumps(marked)
    assert text.count("1.5e-300") == 1
    return text.replace("1.5e-300", literal)


# (file kind, edit of its parsed JSON; a str result is written as is)
MALFORMED = {
    "model-explained-5": ("model", lambda o: {**o, "explained": 5}),
    "model-explained-null": ("model", lambda o: {**o, "explained": None}),
    "model-list": ("model", lambda o: [o]),
    "model-null-mean": ("model", lambda o: {**o, "mean": [None, *o["mean"][1:]]}),
    "anchors-hue-anchors-5": ("anchors", lambda o: {**o, "hue_anchors": 5}),
    "anchors-null-black": ("anchors", lambda o: {**o, "black": [None, *o["black"][1:]]}),
    "stats-rows-5": ("stats", lambda o: {**o, "rows": 5}),
    "stats-string-t": ("stats", lambda o: {"rows": [{**r, "t": "3"} if r["t"] == 3 else r for r in o["rows"]]}),
    "grid-list": ("grid", lambda o: [o]),
    "grid-truncated": ("grid", lambda o: json.dumps(o)[:-10]),
    "grid-deeply-nested": ("grid", lambda o: "[" * 100000 + "]" * 100000),
    "grid-float-height": ("grid", lambda o: {**o, "height": 8.9}),
    "grid-bool-height": ("grid", lambda o: {**o, "height": True, "width": 64}),
    "grid-overflowing-float": ("grid", lambda o: json.dumps(o).replace("0.5", "1e999", 1)),
    "grid-400-digit-int": ("grid", lambda o: {**o, "cells": [[0.0, 1.0, 10**399], *o["cells"][1:]]}),
    "grid-string-nan": ("grid", lambda o: {**o, "cells": [["nan", 1.0, 0.5], *o["cells"][1:]]}),
    "grid-string-and-bool-cell": ("grid", lambda o: {**o, "cells": [["0", True, "0.5"], *o["cells"][1:]]}),
    "grid-bool-among-floats": ("grid", lambda o: {**o, "cells": [[0.0, True, 0.5], *o["cells"][1:]]}),
    "model-string-mean": ("model", lambda o: {**o, "mean": [str(o["mean"][0]), *o["mean"][1:]]}),
    "anchors-bool-white": ("anchors", lambda o: {**o, "white": [False, *o["white"][1:]]}),
    "stats-string-beta": ("stats", lambda o: {"rows": [{**r, "beta": [str(v) for v in r["beta"]]} for r in o["rows"]]}),
    "manifest-step-5": ("manifest", lambda o: _with_step(o, 1, 5)),
    "manifest-steps-5": ("manifest", lambda o: {**o, "steps": 5}),
    "manifest-file-3": ("manifest", lambda o: _with_step(o, 1, {**o["steps"][1], "file": 3})),
    "model-one-column": ("model", lambda o: {**o, "basis_columns": o["basis_columns"][:1], "explained": o["explained"][:1]}),
    "model-four-columns": ("model", _with_fourth_column),
    "manifest-float-t": ("manifest", lambda o: _with_step(o, 1, {**o["steps"][1], "t": 1.0})),
    "manifest-bool-t": ("manifest", lambda o: _with_step(o, 1, {**o["steps"][1], "t": True})),
    "manifest-wrong-dims": ("manifest", lambda o: {**o, "dims": [99, 99]}),
    "model-overflowing-float": ("model", lambda o: _with_literal(o, "mean", "1e309")),
    "anchors-overflowing-float": ("anchors", lambda o: _with_literal(o, "black", "-1e999")),
    "stats-overflowing-float": ("stats", lambda o: _with_literal(o, "rows", "9" * 210 + "e99")),
    "anchors-red-twice": ("anchors", lambda o: _plus_anchor(o, coords=[1.0, 2.0, 3.0])),
    "anchors-orange": ("anchors", lambda o: _plus_anchor(o, label="orange", theta=30.0)),
    "anchors-orange-for-red": ("anchors", lambda o: _with_anchor(o, 0, label="orange")),
    "anchors-red-for-yellow": ("anchors", lambda o: _with_anchor(o, 1, label="red")),
    "anchors-no-magenta": ("anchors", lambda o: {**o, "hue_anchors": o["hue_anchors"][:5]}),
    "anchors-yellow-at-90": ("anchors", lambda o: _with_anchor(o, 1, theta=90.0)),
    "anchors-null-theta": ("anchors", lambda o: _with_anchor(o, 2, theta=None)),
    "anchors-bool-theta": ("anchors", lambda o: _with_anchor(o, 0, theta=False)),
    "anchors-string-theta": ("anchors", lambda o: _with_anchor(o, 3, theta="180.0")),
    "anchors-scalar-black": ("anchors", lambda o: {**o, "black": -5}),
    "anchors-one-entry-black": ("anchors", lambda o: {**o, "black": [0.5]}),
    "anchors-scalar-white": ("anchors", lambda o: {**o, "white": 3.0}),
    "anchors-one-entry-white": ("anchors", lambda o: {**o, "white": [30.0]}),
    "anchors-one-entry-hue-coords": ("anchors", lambda o: {
        **o, "hue_anchors": [{**e, "coords": e["coords"][:1]} for e in o["hue_anchors"]]
    }),
    "model-basis-off-by-8e-6": ("model", lambda o: {**o, "basis_columns": [
        [v * (1 + 4e-6) for v in o["basis_columns"][0]], *o["basis_columns"][1:]
    ]}),
    "stats-row-with-4-alpha": ("stats", lambda o: {"rows": [{**r, "alpha": [*r["alpha"], 0.5]} if r["t"] == 4 else r for r in o["rows"]]}),
    "stats-row-with-2-beta": ("stats", lambda o: {"rows": [{**r, "beta": r["beta"][:2]} if r["t"] == 4 else r for r in o["rows"]]}),
    "model-mean-one-longer": ("model", lambda o: {**o, "mean": [*o["mean"], 0.0]}),
    "grid-two-entry-cell": ("grid", lambda o: {**o, "cells": [o["cells"][0][:2], *o["cells"][1:]]}),
    "grid-cells-not-height-times-width": ("grid", lambda o: {**o, "height": 7}),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_record_file_exits_2_naming_it(ws, tmp_path, capsys, case):
    kind, mangle = MALFORMED[case]
    run = tmp_path / "run"
    shutil.copytree(ws["root"] / "run-red", run)  # a manifest's step files sit beside it
    grid = tmp_path / "grid.json"
    ColorGrid.solid(HslColor(0.0, 1.0, 0.5), 8, 8).save(grid)
    files = {"model": ws["model"], "anchors": ws["anchors"], "stats": ws["stats"], "grid": grid}
    files["manifest"] = run / "manifest.json"
    bad = run / "bad.json"
    edited = mangle(load_json(files[kind]))
    bad.write_text(edited if isinstance(edited, str) else json.dumps(edited))
    files[kind] = bad
    out = tmp_path / "out.json"
    if kind == "grid":
        argv = ["eval", str(bad), str(bad), "--out", str(out)]
    elif kind == "manifest":
        argv = ["stats", str(bad), str(ws["root"] / "run-blue" / "manifest.json"), "--model", str(ws["model"])]
        argv += ["--out", str(out)]
    else:
        argv = ["observe", str(ws["root"] / "run-red" / "t010.lt"), "--t", "10", "--out-json", str(out)]
        argv += [f"--{k}={files[k]}" for k in ("model", "anchors", "stats")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(bad) in err
    assert "Traceback" not in err and "internal error" not in err
    assert not out.exists()


def _json_sites(obj, path=()):
    """Paths to each list and each number (not bool) in a parsed JSON object."""
    if type(obj) is dict:
        return [site for k, v in obj.items() for site in _json_sites(v, path + (k,))]
    if type(obj) is list:
        return [path, *(site for i, v in enumerate(obj) for site in _json_sites(v, path + (i,)))]
    return [path] if type(obj) in (int, float) else []


ANY_LENGTH = {("rows",), ("selected",)}  # a stats table may stop at any t, and a mask select any patches


def _shape_edits(obj):
    """Every edit that takes an array off its shape: drop or repeat an element, a list as a number, a number in a list."""
    edits = []
    for path in _json_sites(obj):
        value = obj
        for key in path:
            value = value[key]
        if type(value) is list:
            edits += [(path, "number", None), *((path, "repeat", i) for i in range(len(value)))]
            edits += [] if path in ANY_LENGTH else [(path, "drop", i) for i in range(len(value))]
        else:
            edits.append((path, "wrap", None))
    return edits


def _apply_edit(obj, path, how, i):
    obj = json.loads(json.dumps(obj))  # a deep copy
    *outer, last = path
    parent = obj
    for key in outer:
        parent = parent[key]
    if how == "drop":
        del parent[last][i]
    elif how == "repeat":
        parent[last].insert(i, json.loads(json.dumps(parent[last][i])))
    else:
        parent[last] = 2 if how == "number" else [parent[last]]
    return obj


@pytest.fixture(scope="module")
def fuzz_world(ws, tmp_path_factory):
    """Each record kind's file and parsed object, every shape edit of it, and a command that reads it."""
    root = tmp_path_factory.mktemp("shape-fuzz")
    grid, mask = root / "grid.json", root / "mask.json"
    ColorGrid.solid(HslColor(0.0, 1.0, 0.5), 8, 8).save(grid)
    PatchMask(L=64, selected=frozenset(range(0, 64, 7))).save(mask)
    files = {"model": ws["model"], "anchors": ws["anchors"], "stats": ws["stats"], "grid": grid, "mask": mask}
    objs = {kind: load_json(path) for kind, path in files.items()}
    return root, files, objs, {kind: _shape_edits(obj) for kind, obj in objs.items()}


@settings(max_examples=400, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["model", "anchors", "stats", "grid", "mask"]))
def test_a_record_edited_off_its_shape_exits_2_naming_it(ws, fuzz_world, data, kind):
    root, files, objs, edits = fuzz_world
    path, how, i = data.draw(st.sampled_from(edits[kind]), label="edit")
    bad, out = root / "bad.json", root / "out.json"
    bad.write_text(json.dumps(_apply_edit(objs[kind], path, how, i)))
    out.unlink(missing_ok=True)
    given_files = {**files, kind: bad}
    if kind in ("grid", "mask"):
        argv = ["eval", str(given_files["grid"]), str(files["grid"]), "--mask", str(given_files["mask"]), "--out", str(out)]
    else:
        argv = ["observe", str(ws["root"] / "run-red" / "t010.lt"), "--t", "10", "--out-json", str(out)]
        argv += [f"--{k}={given_files[k]}" for k in ("model", "anchors", "stats")]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code == 2 and str(bad) in err.getvalue()
    assert not out.exists()


# a value put in place of any one value of a record file: null, a bool, a string, a huge or a tiny number
VALUE_EDITS = {
    "null": [None],
    "bool": [True, False],
    "string": ["", "1.0", "red"],
    "huge": [1.7e308, -1.7e308, 1e200, 2**63, 10**400],
    "tiny": [5e-324, -5e-324, 1e-300, -0.0, 0],
}


def _value_sites(obj, path=()):
    """Paths to each value below the root of a parsed JSON object, the dicts' keys and the lists' indices."""
    items = obj.items() if type(obj) is dict else enumerate(obj) if type(obj) is list else ()
    return [site for k, v in items for site in [path + (k,), *_value_sites(v, path + (k,))]]


def _apply_path(obj, path):
    """The value at path in a parsed JSON object."""
    for key in path:
        obj = obj[key]
    return obj


def _record_argv(ws, files, kind, bad, out):
    """eval over the grid and mask files, or observe over the model, anchors and stats, with bad for the kind's file."""
    given_files = {**files, kind: bad}
    if kind in ("grid", "mask"):
        return ["eval", str(given_files["grid"]), str(files["grid"]), "--mask", str(given_files["mask"]), "--out", str(out)]
    argv = ["observe", str(ws["root"] / "run-red" / "t010.lt"), "--t", "10", "--out-json", str(out)]
    return argv + [f"--{k}={given_files[k]}" for k in ("model", "anchors", "stats")]


@pytest.mark.filterwarnings("error::RuntimeWarning")  # an overflow is refused, not warned about
@seed(21)
@settings(max_examples=400, deadline=None)
@given(
    data=st.data(),
    kind=st.sampled_from(["model", "anchors", "stats", "grid", "mask"]),
    how=st.sampled_from([*VALUE_EDITS, "delete", "shuffle"]),
)
def test_a_record_with_an_edited_value_exits_0_or_2_naming_it(ws, fuzz_world, data, kind, how):
    root, files, objs, _ = fuzz_world
    obj = json.loads(json.dumps(objs[kind]))  # a deep copy
    sites = _value_sites(obj)
    if how == "delete":
        sites = [path for path in sites if type(path[-1]) is str]
    elif how == "shuffle":
        sites = [path for path in sites if type(_apply_path(obj, path)) is list and len(_apply_path(obj, path)) > 1]
    *outer, last = data.draw(st.sampled_from(sites), label="site")
    parent = _apply_path(obj, outer)
    if how == "delete":
        del parent[last]
    elif how == "shuffle":
        parent[last] = data.draw(st.permutations(parent[last]), label="order")
    else:
        parent[last] = data.draw(st.sampled_from(VALUE_EDITS[how]), label="value")
    bad, out = root / "bad.json", root / "out.json"
    bad.write_text(json.dumps(obj))
    out.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(_record_argv(ws, files, kind, bad, out))
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert str(bad) in err.getvalue() and not out.exists(), err.getvalue()


# ---------------------------------------------------------------------------
# latent files and trajectories: a refusal names the file
# ---------------------------------------------------------------------------

def _lt_bytes(z) -> bytes:
    """A latent file's bytes for z, written without write_latents' checks."""
    header = json.dumps({"dims": list(np.shape(z)), "dtype": "f32le"}).encode("ascii")
    return header + b"\n" + np.asarray(z, dtype="<f4").tobytes()


def _raw_trajectory(run, frames) -> Path:
    """A trajectory directory of the given frames, written byte by byte; returns its manifest."""
    run.mkdir()
    names = [f"t{t:03d}.lt" for t in range(len(frames))]
    for name, frame in zip(names, frames):
        (run / name).write_bytes(_lt_bytes(frame))
    manifest = run / "manifest.json"
    steps = [{"t": t, "file": name} for t, name in enumerate(names)]
    manifest.write_text(json.dumps({"T": len(frames) - 1, "dims": list(np.shape(frames[0])), "steps": steps}))
    return manifest


def _world_argv(ws, command, latent, *rest):
    """command on latent at t = 10 with the workspace's model, anchors and stats, then rest."""
    files = ["--model", str(ws["model"]), "--anchors", str(ws["anchors"]), "--stats", str(ws["stats"])]
    return [command, str(latent), "--t", "10", *files, *rest]


@pytest.mark.parametrize("command", ["observe", "intervene"])
def test_a_latent_of_another_width_than_the_model_exits_2_naming_both(ws, tmp_path, capsys, command):
    wide, out = tmp_path / "wide.lt", tmp_path / "out"
    write_latents(wide, np.random.default_rng(3).standard_normal((64, 32)))
    rest = ["--out-json", str(out)] if command == "observe" else ["--target", BLUE_HEX, "--out", str(out)]
    assert main(_world_argv(ws, command, wide, *rest)) == 2
    assert capsys.readouterr().err == f"error: {wide}: latent dim 32 does not match model dim 16 of {ws['model']}\n"
    assert not out.exists()


@pytest.mark.parametrize("case", ["nan-frame", "inf-frame", "d-below-3", "wider-than-the-model"])
def test_stats_over_a_bad_trajectory_exits_2_naming_the_file(ws, tmp_path, capsys, case):
    frames = stacked_steps(ws["root"] / "run-red" / "manifest.json")
    bad = "t007.lt"
    if case in ("nan-frame", "inf-frame"):
        frames[7, 3, 5] = np.nan if case == "nan-frame" else -np.inf
        says = "latent tensor contains non-finite values"
    elif case == "d-below-3":
        frames, bad = frames[:, :, :2], "t000.lt"
        says = "latent tensor needs L >= 1 patches and d >= 3 dims, got (64, 2)"
    else:
        frames, bad = np.concatenate([frames, frames], axis=2), "manifest.json"
        says = f"latent dim 32 does not match model dim 16 of {ws['model']}"
    manifest, out = _raw_trajectory(tmp_path / "run", frames), tmp_path / "stats.json"
    argv = ["stats", str(manifest), str(ws["root"] / "run-blue" / "manifest.json"), "--model", str(ws["model"])]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'run' / bad}: {says}\n"
    assert not out.exists()


def _latent_edit(data, raw: bytes) -> bytes:
    """One drawn edit of a latent file: a NaN or infinite payload float, a truncation, a new header or byte edits."""
    nl = raw.index(b"\n")
    L, d = json.loads(raw[:nl])["dims"]
    how = data.draw(st.sampled_from(["float", "truncate", "header", "bytes"]), label="how")
    if how == "float":
        at = nl + 1 + 4 * data.draw(st.integers(0, L * d - 1), label="float")
        value = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]), label="value")
        return raw[:at] + np.float32(value).tobytes() + raw[at + 4:]
    if how == "truncate":
        return raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    if how == "header":
        reshapes = [[n, L * d // n] for n in (1, 2, 4, 16, 32, 64, 256, 512, 1024) if L * d % n == 0]
        dims = data.draw(st.sampled_from(reshapes) | st.lists(st.integers(-1, 2 * L * d) | st.booleans(), max_size=3))
        dtype = data.draw(st.sampled_from(["f32le", "f64le", "<f4"]), label="dtype")
        return json.dumps({"dims": dims, "dtype": dtype}).encode("ascii") + raw[nl:]
    edited = bytearray(raw)
    for _ in range(data.draw(st.integers(1, 4), label="edits")):
        edited[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
    return bytes(edited)


@pytest.fixture(scope="module")
def lt_world(ws, tmp_path_factory):
    """A copy of one trajectory to edit, with its manifest's parsed object and every shape edit of it."""
    run = tmp_path_factory.mktemp("lt-fuzz") / "run"
    shutil.copytree(ws["root"] / "run-red", run)
    manifest = load_json(run / "manifest.json")
    return run, manifest, _shape_edits(manifest)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["latent", "frame", "manifest"]))
def test_an_edited_latent_or_trajectory_exits_0_or_2_naming_the_file(ws, lt_world, data, kind):
    run, manifest, manifest_edits = lt_world
    out = run.parent / "out.json"
    out.unlink(missing_ok=True)
    if kind == "manifest":
        bad = run / "bad.json"
        if data.draw(st.booleans(), label="truncate"):
            text = json.dumps(manifest)
            bad.write_text(text[:data.draw(st.integers(0, len(text) - 1), label="length")])
        else:
            bad.write_text(json.dumps(_apply_edit(manifest, *data.draw(st.sampled_from(manifest_edits), label="edit"))))
        argv = ["stats", str(bad), str(ws["root"] / "run-blue" / "manifest.json"), "--model", str(ws["model"])]
        argv += ["--out", str(out)]
    else:
        name = "t010.lt" if kind == "latent" else f"t{data.draw(st.integers(0, manifest['T']), label='t'):03d}.lt"
        bad = run / "bad.lt" if kind == "latent" else run / name
        bad.write_bytes(_latent_edit(data, (ws["root"] / "run-red" / name).read_bytes()))
        if kind == "latent":
            argv = _world_argv(ws, "observe", bad, "--out-json", str(out))
        else:
            argv = ["stats", str(run / "manifest.json"), str(ws["root"] / "run-blue" / "manifest.json")]
            argv += ["--model", str(ws["model"]), "--out", str(out)]
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
    finally:
        if kind == "frame":  # the next example edits a clean trajectory
            shutil.copyfile(ws["root"] / "run-red" / bad.name, bad)
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert str(bad) in err.getvalue() and not out.exists()


_PGM_WHITESPACE = [b" ", b"\t", b"\n", b"\r", b"\v", b"\f"]


_PGM_PARTS = ("magic", "dims", "maxval", "gap-1", "gap-2", "gap-3", "width", "height", "maxval-digits",
              "after-maxval", "raster-length", "selection")


def _pgm_mask(data, broken):
    """A drawn binary PGM file for a 64-patch latent whose part broken (None: no part) breaks a rule, and whether
    netpbm's header rules make it a mask of those 64 patches with at least one selected."""
    def part(name, good, bad):
        return data.draw(bad if name == broken else good, label=name)

    def token(name, n):
        return part(name, st.sampled_from([str(n), f"0{n}"]), st.sampled_from(["", "-8", "8.0", "x"])).encode()

    def gap(name):
        separator = st.sampled_from(_PGM_WHITESPACE) | st.just(b"# a comment\n")
        return b"".join(part(name, st.lists(separator, min_size=1, max_size=3), st.just([])))

    magic = part("magic", st.just(b"P5"), st.sampled_from([b"P6", b"P2", b"p5", b"P"]))
    w, h = part(
        "dims",
        st.sampled_from([(8, 8), (4, 16), (16, 4), (1, 64), (64, 1), (2, 32)]),
        st.tuples(st.sampled_from([0, 1, 8, 65, 10**9]) | st.integers(0, 70), st.integers(0, 70)).filter(
            lambda wh: wh[0] * wh[1] != 64
        ),
    )
    maxval = part("maxval", st.sampled_from([1, 255, 256, 65535]) | st.integers(1, 65535), st.sampled_from([0, 65536]))
    header = magic + gap("gap-1") + token("width", w) + gap("gap-2") + token("height", h) + gap("gap-3")
    header += token("maxval-digits", maxval)
    header += part("after-maxval", st.sampled_from(_PGM_WHITESPACE), st.sampled_from([b"", b"\r\n", b"#", b"x"]))
    bpp = 1 if maxval < 256 else 2
    size = w * h * bpp + part("raster-length", st.just(0), st.sampled_from([-1, 1]))
    size = size if 0 <= size <= 10**4 else 3
    # pixel bytes that are neither digits nor whitespace, so a raster never reads as more header
    pixels = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="pixels")).choice([0, 0, 1, 255], size)
    pixels = part("selection", st.just(pixels), st.just(np.zeros(size))).astype(np.uint8)
    return header + pixels.tobytes(), broken is None and bool(pixels.any())  # a random raster can select nothing too


@pytest.mark.parametrize("broken", [None, *_PGM_PARTS])  # hypothesis alone would draw some parts far more often
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_a_generated_pgm_mask_exits_0_or_2_naming_it(ws, tmp_path_factory, broken, data):
    root = tmp_path_factory.getbasetemp()
    mask, out = root / "pgm-fuzz-mask.pgm", root / "pgm-fuzz-out.lt"
    raw, valid = _pgm_mask(data, broken)
    mask.write_bytes(raw)
    out.unlink(missing_ok=True)
    argv = _world_argv(ws, "intervene", ws["root"] / "run-red" / "t010.lt", "--target", BLUE_HEX, "--mask", str(mask))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv + ["--out", str(out)])
    assert code == (0 if valid else 2), err.getvalue()
    if code == 2:
        assert str(mask) in err.getvalue() and not out.exists()


def test_intervene_report_matches_full_grid_observation(ws, tmp_path, capsys):
    mask_path = tmp_path / "mask.json"
    PatchMask(L=64, selected=frozenset(range(5, 64, 3))).save(mask_path)
    latent = ws["root"] / "run-red" / "t012.lt"
    out_path = tmp_path / "steered.lt"
    code = main(
        [
            "intervene", str(latent),
            "--t", "12",
            "--target", BLUE_HEX,
            "--mask", str(mask_path),
            "--model", str(ws["model"]),
            "--anchors", str(ws["anchors"]),
            "--stats", str(ws["stats"]),
            "--out", str(out_path),
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    model = SubspaceModel.load(ws["model"])
    anchors = AnchorSet.load(ws["anchors"])
    stats = StatsTable.load(ws["stats"])
    mask = PatchMask.load(mask_path)
    target = rgb_to_hsl(parse_hex(BLUE_HEX))
    grids = [observe(read_latents(path), 12, model, anchors, stats, (8, 8)) for path in (latent, out_path)]
    means = [mean_color(grid.hsl.reshape(-1, 3)[mask.indices]) for grid in grids]
    assert lines[:2] == _report_lines(np.stack(means), target)
    assert [line.split(":")[0] for line in lines[:2]] == ["before", "after"]


@pytest.fixture(scope="module")
def ws_world(ws):
    return SubspaceModel.load(ws["model"]), AnchorSet.load(ws["anchors"]), StatsTable.load(ws["stats"])


one_or_more_patches = st.one_of(st.builds(lambda i: {i}, st.integers(0, 63)), st.sets(st.integers(0, 63), min_size=1))


@settings(max_examples=60, deadline=None)
@given(
    target=st.builds(HslColor, hue, unit, unit),
    t=st.integers(0, 20),
    mode=st.sampled_from(MODES),
    selected=one_or_more_patches,
    run=st.sampled_from(["run-red", "run-blue"]),
)
def test_intervene_report_is_the_per_block_computation_bitwise(ws, ws_world, target, t, mode, selected, run):
    # The report decodes the edit's own blocks, charted before the edit and edited, in one pass, and takes
    # both de00 values from one Lab call with the target as a third row; each mean and each de00 must have
    # the bits of its own computation.
    model, anchors, stats = ws_world
    latent = ws["root"] / run / f"t{t:03d}.lt"
    z = read_latents(latent)
    mask = PatchMask(L=64, selected=frozenset(selected))
    _, hat, edited = intervene._intervene(z, t, target, mask, model, anchors, stats, mode)
    want_lins = np.stack([mean_color(decode(block, anchors)) for block in (hat, edited)])
    target_lab = linear_rgb_to_lab_array(srgb_to_linear_array(hsl_to_rgb_array([target.h, target.s, target.l])))
    want_des = np.array([float(ciede2000_array(linear_rgb_to_lab_array(lin), target_lab)) for lin in want_lins])

    work = ws["root"] / "report-bitwise"
    work.mkdir(exist_ok=True)
    mask.save(work / "mask.json")
    argv = [
        "intervene", str(latent), "--t", str(t), "--target-hsl", f"{target.h!r},{target.s!r},{target.l!r}",
        "--mode", mode, "--mask", str(work / "mask.json"), "--model", str(ws["model"]),
        "--anchors", str(ws["anchors"]), "--stats", str(ws["stats"]), "--out", str(work / "out.lt"),
    ]
    lins, des, charts = [], [], []
    report_lines, ciede2000, chart = cli._report_lines, cli.ciede2000_array, intervene._chart
    printed = io.StringIO()
    with mock.patch.object(cli, "_report_lines", lambda m, tgt: lins.append(m) or report_lines(m, tgt)), \
            mock.patch.object(cli, "ciede2000_array", lambda x, y: des.append(ciede2000(x, y)) or des[-1]), \
            mock.patch.object(intervene, "_chart", lambda *a: charts.append(a) or chart(*a)), \
            contextlib.redirect_stdout(printed):
        assert main(argv) == 0
    assert len(charts) == 1  # the edit's chart is the report's: one per call
    assert len(lins) == 1 and lins[0].shape == (2, 3) and lins[0].tobytes() == want_lins.tobytes()
    assert len(des) == 1 and des[0].tobytes() == want_des.tobytes()
    lines = printed.getvalue().splitlines()[:2]
    assert [line.split("de00 ")[1].split()[0] for line in lines] == [f"{de:.4f}" for de in want_des]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), selected=one_or_more_patches)
def test_eval_masked_mean_de00_is_the_per_grid_computation_bitwise(ws, seed, selected):
    rng = np.random.default_rng(seed)
    work = ws["root"] / "eval-bitwise"
    work.mkdir(exist_ok=True)
    paths = [work / "pred.json", work / "ref.json"]
    grids = []
    for path in paths:
        s = np.where(rng.random((8, 8)) < 0.25, 0.0, rng.random((8, 8)))  # a quarter of the cells grey
        grids.append(ColorGrid.from_hsl(np.stack([rng.uniform(0.0, 360.0, (8, 8)), s, rng.random((8, 8))], axis=-1)))
        grids[-1].save(path)
    mask = PatchMask(L=64, selected=frozenset(selected))
    mask.save(work / "mask.json")
    argv = ["eval", *map(str, paths), "--mask", str(work / "mask.json"), "--out", str(work / "metrics.json")]
    assert main(argv) == 0
    # each masked mean composed afresh from the kernels on the grid's masked cells
    lins = [srgb_to_linear_array(hsl_to_rgb_array(g.hsl.reshape(-1, 3)[mask.indices])).mean(axis=0) for g in grids]
    want = float(ciede2000_array(*map(linear_rgb_to_lab_array, lins)))
    assert load_json(work / "metrics.json")["masked_mean"]["de00"].hex() == want.hex()


# ---------------------------------------------------------------------------
# parser: help, usage and error text
# ---------------------------------------------------------------------------

REQUIRED = ["x.lt", "--t", "1", "--model", "m.json", "--anchors", "a.json"]


def _run_captured(fn, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exit_info:
            fn(argv)
    return out.getvalue(), err.getvalue(), exit_info.value.code


@pytest.mark.parametrize("columns", ["100", "60"])
@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["render"],
        *([command, "-h"] for command in ("fit", "observe", "intervene", "simulate", "stats", "eval")),
        ["observe", "x.lt"],
        ["intervene", *REQUIRED, "--mode", "bogus", "--out", "y.lt"],
        ["observe", "x.lt", "--t", "one", "--model", "m.json", "--anchors", "a.json"],
        ["observe", *REQUIRED, "extra"],
    ],
    ids=lambda argv: " ".join(argv) or "no-args",
)
def test_main_prints_the_full_parsers_help_and_errors(argv, columns, monkeypatch):
    monkeypatch.setenv("COLUMNS", columns)
    want = _run_captured(build_parser().parse_args, argv)
    assert _run_captured(main, argv) == want
    assert want[2] in (0, 2)


COMMANDS = ("fit", "observe", "intervene", "simulate", "stats", "eval")


def _parsed(fn, argv):
    """What fn(argv) parsed, with every cmd_* recording its Namespace: ("args", vars) or ("exit", out, err, code)."""
    seen = []
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        for command in COMMANDS:
            stack.enter_context(mock.patch.object(cli, f"cmd_{command}", lambda args: seen.append(args) or 0))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        try:
            result = fn(argv)
        except SystemExit as e:
            return "exit", out.getvalue(), err.getvalue(), e.code
    return "args", vars(seen[0] if seen else result)


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "probes", "--model-out=m.json"],
        ["fit", "--anchors-out", "a.json", "--model-out", "m.json", "probes"],  # options before the positional
        ["observe", "--t=3", "--mod", "m.json", "--anch", "a.json", "x.lt", "--cell", "2", "--cell-px", "4"],
        ["observe", "x.lt", "--t", "-7", "--model", "m.json", "--anchors", "a.json", "--grid=2x32", "--out-ppm", "o"],
        ["observe", "--t", "1", "--model", "m.json", "--anchors", "a.json", "--", "x.lt"],
        ["intervene", "x.lt", *REQUIRED[1:], "--mode", "type2", "--mode=type1", "--target", "#FF0000", "--out", "y"],
        ["intervene", "--target-hsl", "10,0.5,0.5", "--mask", "k.json", *REQUIRED, "--out", "y.lt", "--stat", "s"],
        ["simulate", "--out", "run", "--colors", "#FF0000,#00FF00", "--T", "5", "--dim=8", "--grid", "4x4"],
        ["stats", "--model", "m.json", "a.json", "b.json", "--out", "s.json"],
        ["eval", "p.json", "r.json", "--mask=k.json"],
        ["eval", "--out", "m.json", "p.json", "r.json"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_main_parses_each_commands_arguments_as_the_full_parser(argv):
    want = _parsed(build_parser().parse_args, argv)
    assert want[0] == "args"
    assert _parsed(main, argv) == want


@pytest.mark.parametrize("columns", ["100", "60"])
@pytest.mark.parametrize(
    "argv",
    [
        ["observe", *REQUIRED, "--bogus"],
        ["observe", *REQUIRED, "--bogus=1", "extra", "more"],
        ["eval", "p.json", "r.json", "x.json", "--mask"],
        ["eval", "p.json", "r.json", "--", "-x"],
        ["observe", *REQUIRED, "--", "--t", "2"],
        ["observe", "x.lt", "--t", "1", "--out", "o.json"],  # --out could be --out-json or --out-ppm
        ["intervene", "--t", "1", "--model", "m.json", "-h"],
        ["intervene", *REQUIRED, "--target", "#FF0000", "--target-hsl", "0,1,0.5", "--out", "y.lt"],
        ["intervene", *REQUIRED, "--target-hsl", "0,1,0.5", "--target", "#FF0000", "--out", "y.lt"],
        ["stats", "--model", "m.json", "--help", "a.json"],
        ["simulate", "--colors", "#FF0000"],
        ["stats", "a.json", "--model", "m.json", "b.json"],  # a positional list cannot resume after an option
        ["fit"],
        ["-h", "observe"],
        ["--", "observe", *REQUIRED],
        ["obs", *REQUIRED],
        ["--bogus", "eval", "p.json", "r.json"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_main_refuses_and_helps_as_the_full_parser(argv, columns, monkeypatch):
    monkeypatch.setenv("COLUMNS", columns)
    want = _parsed(build_parser().parse_args, argv)
    assert want[0] == "exit"
    assert _parsed(main, argv) == want


ARGV_TOKENS = [
    *COMMANDS, "--", "-h", "--t", "--t=2", "--T", "3", "-1", "x.lt", "p.json", "--model", "--mod", "--out", "--out-json",
    "--mask=k.json", "--mode", "type1", "--target", "#00FF00", "--target-hsl", "--colors", "--anchors", "--bogus",
    "a.json", "--grid",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(ARGV_TOKENS), max_size=12))
def test_main_parses_any_argv_as_the_full_parser(argv):
    assert _parsed(main, argv) == _parsed(build_parser().parse_args, argv)


def test_main_keeps_one_parser_that_acts_as_a_fresh_one(ws, tmp_path, monkeypatch):
    cli._parser.cache_clear()
    bad = ["observe", "x.lt", "--t", "one", "--model", "m.json", "--anchors", "a.json"]
    assert _run_captured(main, bad) == _run_captured(build_parser().parse_args, bad)

    out = tmp_path / "o.json"
    good = [
        "observe", str(ws["root"] / "run-red" / "t012.lt"), "--t", "12",
        "--model", str(ws["model"]), "--anchors", str(ws["anchors"]), "--stats", str(ws["stats"]),
        "--out-json", str(out),
    ]
    runs = []
    for run in (lambda: main(good), lambda: cli.cmd_observe(build_parser().parse_args(good))):
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            assert run() == 0
        runs.append((printed.getvalue(), out.read_bytes()))
        out.unlink()
    assert runs[0] == runs[1]

    helps = []
    for columns in ("100", "60"):
        monkeypatch.setenv("COLUMNS", columns)
        helps.append(_run_captured(build_parser().parse_args, ["observe", "-h"]))
        assert _run_captured(main, ["observe", "-h"]) == helps[-1]
    assert helps[0] != helps[1]  # the width reached the cached parser's help
    assert cli._parser.cache_info().misses == 1  # one parser served all four calls
    assert build_parser() is not build_parser()


def test_main_dispatches_to_the_current_command_function(tmp_path, monkeypatch):
    grid = tmp_path / "g.json"
    ColorGrid.solid(HslColor(10.0, 0.5, 0.5), 2, 2).save(grid)
    argv = ["eval", str(grid), str(grid), "--out", str(tmp_path / "m.json")]
    assert main(argv) == 0  # the eval parser is built and kept
    seen = []
    monkeypatch.setattr(cli, "cmd_eval", lambda args: seen.append(args.pred) or 7)
    assert main(argv) == 7 and seen == [str(grid)]


def test_main_exits_1_on_an_internal_error(monkeypatch, capsys):
    def broken(args):
        raise AssertionError("an invariant broke")

    monkeypatch.setattr(cli, "cmd_eval", broken)
    assert main(["eval", "p.json", "r.json"]) == 1
    assert capsys.readouterr().err == "internal error: AssertionError: an invariant broke\n"


def test_main_exits_1_on_a_key_error(monkeypatch, capsys):
    # a record's KeyError is refused where the record is read, so one that reaches main is a bug
    def broken(args):
        raise KeyError("x")

    monkeypatch.setattr(cli, "cmd_eval", broken)
    assert main(["eval", "p.json", "r.json"]) == 1
    assert capsys.readouterr().err == "internal error: KeyError: 'x'\n"


def test_python_m_latentcolor_runs_the_cli(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["latentcolor", "--help"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module("latentcolor", run_name="__main__")
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: latentcolor [-h]")


# ---------------------------------------------------------------------------
# the toy demo script
# ---------------------------------------------------------------------------

def test_toy_pipeline_script_reruns_byte_identical(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_toy_pipeline.py"
    src = str(Path(latentcolor.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    outputs = []
    for run in ("a", "b"):
        work = tmp_path / run
        proc = subprocess.run(
            [sys.executable, str(script), "--workdir", str(work), "--seed", "3", "--toy-seed", "1"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append({p.relative_to(work): p.read_bytes() for p in sorted(work.rglob("*")) if p.is_file()})
    assert Path("metrics-mid.json") in outputs[0] and Path("steered.ppm") in outputs[0]
    assert outputs[0] == outputs[1]
