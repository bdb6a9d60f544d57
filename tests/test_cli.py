"""End-to-end command-line workflows on a temporary workspace."""

import json

import numpy as np
import pytest

from latentcolor import (
    ColorGrid,
    PatchMask,
    ToyEmbedder,
    embed_image,
    load_trajectory,
    read_latents,
    write_latents,
)
from latentcolor import AnchorSet, SubspaceModel, StatsTable, load_mask, masked_mean_color, observe
from latentcolor.cli import _report_line, main
from latentcolor.colorspace import HslColor, parse_hex, rgb_to_hsl, signed_hue_delta
from latentcolor.tensorio import read_json
from latentcolor.toyflow import probe_colors

RED_HEX = "#D81511"
BLUE_HEX = "#1190D8"


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
    traj = load_trajectory(ws["root"] / "run-red" / "manifest.json")
    assert traj.shape == (21, 64, 16)


def test_stats_output_covers_horizon(ws):
    obj = read_json(ws["stats"])
    assert len(obj["rows"]) == 21
    assert obj["rows"][0]["t"] == 0


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
    out_path = tmp_path / "steered.lt"
    code = main(
        [
            "intervene", str(ws["root"] / "run-red" / "t010.lt"),
            "--t", "10",
            "--target-hsl", "210,0.7,0.45",
            "--mode", "type1",
            "--model", str(ws["model"]),
            "--anchors", str(ws["anchors"]),
            "--stats", str(ws["stats"]),
            "--out", str(out_path),
        ]
    )
    assert code == 0
    assert out_path.exists()


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
    metrics = read_json(metrics_path)
    assert metrics["de00_mean_pixel"] < 0.5
    assert metrics["de00_per_pixel"] < 0.5
    assert metrics["masked_mean"]["de00"] < 0.5
    assert set(metrics["masked_mean"]) == {
        "pred_hsl", "ref_hsl", "de00", "dh_degrees", "ds_percent", "dl_percent",
    }


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
    metrics = read_json(metrics_path)
    assert metrics["masked_mean"]["de00"] == pytest.approx(0.0, abs=1e-9)
    assert metrics["de00_per_pixel"] > 10.0


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


def test_observe_rejects_anchors_winding_twice(ws, tmp_path, capsys):
    obj = read_json(ws["anchors"])
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
    mask = load_mask(mask_path)
    target = rgb_to_hsl(parse_hex(BLUE_HEX))
    want = [
        _report_line(tag, masked_mean_color(observe(read_latents(path), 12, model, anchors, stats, (8, 8)), mask), target)
        for tag, path in (("before", latent), ("after", out_path))
    ]
    assert lines[:2] == want
