"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line (visible with pytest -s) and asserts
the criterion at its stated tolerance. Everything runs on the seeded toy
world from conftest, so the whole file is deterministic.
"""

import hashlib
import json

import numpy as np

from latentcolor import (
    AttractorField,
    ColorGrid,
    PatchMask,
    apply_intervention,
    builtin_flux_stats,
    decode,
    encode,
    fit_pca,
    generate,
    grid_de00_mean_pixel,
    initial_noise,
    interpolated,
    observe,
    sample_path,
    solid_attractor,
    type1,
    type2,
)
from latentcolor.cli import main
from latentcolor.colorspace import HslColor, LabColor, ciede2000, signed_hue_delta
from latentcolor.timestats import normalize
from latentcolor.toyflow import TIMESTEP_PALETTE

from test_colorspace import CIEDE2000_PAIRS
from test_subspace import principal_angles
from test_timestats import BUILTIN_SHA256, SPOT_ROWS

T = 50


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_c1_bicone_bijection(anchors):
    """decode(encode) within (1e-6 deg, 1e-9) on a 36x10x10 grid, and
    encode(decode) within 1e-9 on 1000 random interior points."""
    worst = np.zeros(3)
    for h in range(0, 360, 10):
        for s in np.linspace(0.01, 0.99, 10):
            for l in np.linspace(0.01, 0.99, 10):
                y = HslColor(float(h), float(s), float(l))
                back = decode(encode(y, anchors), anchors)
                worst = np.maximum(
                    worst,
                    [abs(signed_hue_delta(back.h, y.h)), abs(back.s - y.s), abs(back.l - y.l)],
                )
    rng = np.random.default_rng(101)
    worst_pt = 0.0
    for _ in range(1000):
        y = HslColor(rng.uniform(0, 360), rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99))
        c = encode(y, anchors)
        worst_pt = max(worst_pt, float(np.max(np.abs(encode(decode(c, anchors), anchors) - c))))
    ok = worst[0] <= 1e-6 and worst[1] <= 1e-9 and worst[2] <= 1e-9 and worst_pt <= 1e-9
    report(
        "criterion 1: bicone coordinate bijection",
        ok,
        f"dh {worst[0]:.2e} ds {worst[1]:.2e} dl {worst[2]:.2e} pt {worst_pt:.2e}",
    )


def test_c2_subspace_recovery(probe_set, embedder):
    """512 probes: top-3 explained >= 0.9999, 4th eigenvalue <= 1e-8 of
    the trace, and the span matches the planted lift within 1e-6."""
    model = fit_pca(probe_set.lattice, k=3, orientation=probe_set.labeled)
    explained = sum(model.explained)
    x = probe_set.lattice - probe_set.lattice.mean(axis=0)
    vals = np.sort(np.linalg.eigvalsh(x.T @ x / x.shape[0]))[::-1]
    fourth = vals[3] / vals.sum()
    angle = float(np.max(principal_angles(model.basis, embedder.lift)))
    ok = explained >= 0.9999 and fourth <= 1e-8 and angle <= 1e-6
    report(
        "criterion 2: color subspace recovery",
        ok,
        f"explained {explained:.6f} 4th {fourth:.1e} angle {angle:.1e}",
    )


def test_c3_builtin_table_fidelity():
    """Spot rows reproduce the published table exactly and normalize
    sends every alpha_t to alpha_50 within 1e-6."""
    stats = builtin_flux_stats()
    rows_ok = all(
        tuple(stats.alpha[t]) == exp_a and tuple(stats.beta[t]) == exp_b
        for t, (exp_a, exp_b) in SPOT_ROWS.items()
    )
    blob = json.dumps(stats.to_json_dict(), sort_keys=True, separators=(",", ":"))
    sum_ok = hashlib.sha256(blob.encode("ascii")).hexdigest() == BUILTIN_SHA256
    worst = max(
        float(np.max(np.abs(normalize(stats.alpha[t], t, stats) - stats.alpha[T])))
        for t in range(T + 1)
    )
    ok = rows_ok and sum_ok and worst <= 1e-6
    report(
        "criterion 3: builtin statistics fidelity",
        ok,
        f"rows {rows_ok} checksum {sum_ok} drift {worst:.2e}",
    )


def test_c4_intervention_exactness(anchors):
    """type1 mean error <= 1e-12 with pairwise diffs exact; type2 lands
    zero-dispersion blocks within 1e-9; interp endpoints are bitwise."""
    target = HslColor(210.0, 0.7, 0.45)
    rng = np.random.default_rng(102)
    colors = [
        HslColor(rng.uniform(0, 360), rng.uniform(0.1, 0.9), rng.uniform(0.2, 0.8))
        for _ in range(20)
    ]
    coords = np.array([encode(y, anchors) for y in colors])

    out1 = type1(coords, target, anchors)
    mean_err = float(np.max(np.abs(out1.mean(axis=0) - encode(target, anchors))))
    # a pure translation: differences survive up to one rounding step
    diff_err = float(
        np.max(np.abs((out1[:, None, :] - out1[None, :, :]) - (coords[:, None, :] - coords[None, :, :])))
    )
    diffs_exact = diff_err <= 1e-12

    block = np.tile(encode(HslColor(33.0, 0.4, 0.6), anchors), (9, 1))
    out2 = type2(block, target, anchors)
    t2_err = float(np.max(np.abs(out2 - encode(target, anchors))))

    bitwise = np.array_equal(
        interpolated(coords, target, anchors, 0, T), type1(coords, target, anchors)
    ) and np.array_equal(
        interpolated(coords, target, anchors, T, T), type2(coords, target, anchors)
    )

    ok = mean_err <= 1e-12 and diffs_exact and t2_err <= 1e-9 and bitwise
    report(
        "criterion 4: intervention exactness",
        ok,
        f"type1 {mean_err:.1e} diffs {diffs_exact} type2 {t2_err:.1e} endpoints {bitwise}",
    )


def test_c5_locality_and_closure(embedder, model, anchors, toy_stats):
    """Unmasked patches bitwise unchanged; complement components within 1e-9."""
    target = HslColor(285.0, 0.8, 0.55)
    z = np.random.default_rng(103).standard_normal((64, embedder.dim))
    mask = PatchMask(L=64, selected=frozenset(range(0, 64, 3)))
    out = apply_intervention(z, 30, target, mask, model, anchors, toy_stats)

    untouched = sorted(set(range(64)) - mask.selected)
    local = np.array_equal(out[untouched], z[untouched])
    q, _ = np.linalg.qr(model.basis, mode="complete")
    leak = float(np.max(np.abs((out - z) @ q[:, 3:])))
    ok = local and leak <= 1e-9
    report("criterion 5: locality and subspace closure", ok, f"local {local} leak {leak:.1e}")


def test_c6_ciede2000_reference():
    """At least 30 standard pairs match the published values within 1e-4."""
    worst = max(
        abs(ciede2000(LabColor(*x), LabColor(*y)) - expected)
        for x, y, expected in CIEDE2000_PAIRS
    )
    ok = len(CIEDE2000_PAIRS) >= 30 and worst <= 1e-4
    report(
        "criterion 6: CIEDE2000 reference pairs",
        ok,
        f"{len(CIEDE2000_PAIRS)} pairs, worst {worst:.2e}",
    )


def test_c7_observation_trend(palette_runs, model, anchors, toy_stats):
    """Mean-pixel error of the observation vs the final grid is
    non-increasing (0.5 slack) for t >= T/5 and <= 3 at t = 0.8T."""
    names = list(TIMESTEP_PALETTE)[:10]
    worst_rise = -np.inf
    worst_late = 0.0
    start = T // 5
    for name in names:
        frames = palette_runs[name]
        ref = observe(frames[T], T, model, anchors, toy_stats, (8, 8))
        errs = [
            grid_de00_mean_pixel(observe(frames[t], t, model, anchors, toy_stats, (8, 8)), ref)
            for t in range(start, T + 1)
        ]
        worst_rise = max(worst_rise, float(np.max(np.diff(errs))))
        worst_late = max(worst_late, errs[int(0.8 * T) - start])
    ok = worst_rise <= 0.5 and worst_late <= 3.0
    report(
        "criterion 7: observation error trend",
        ok,
        f"max rise {worst_rise:.3f} err@0.8T {worst_late:.3f}",
    )


def test_c8_basin_switching(embedder, model, anchors, toy_stats):
    """A single interpolated intervention at t = 0.2T flips a 2-attractor
    run into the basin matching the target, within de00 2 at the end."""
    t_edit = T // 5
    worst = 0.0
    for i, theta in enumerate(range(0, 360, 60)):
        target = HslColor(float(theta), 1.0, 0.5)
        away = HslColor(float((theta + 180) % 360), 1.0, 0.5)
        att_target = solid_attractor(target, embedder, (8, 8))
        att_away = solid_attractor(away, embedder, (8, 8))
        field = AttractorField(attractors=(att_away, att_target), T=T, embedder=embedder)
        z0 = sample_path(att_away, initial_noise(64, embedder.dim, seed=200 + i), 5, T)

        baseline = generate(z0, field)
        assert np.allclose(baseline[-1], att_away, atol=1e-6), "start must sit in the other basin"

        def edit(z, t):
            if t != t_edit:
                return z
            return apply_intervention(z, t, target, None, model, anchors, toy_stats)

        steered = generate(z0, field, edit=edit)
        grid = observe(steered[-1], T, model, anchors, toy_stats, (8, 8))
        err = grid_de00_mean_pixel(grid, ColorGrid.solid(target, 8, 8))
        worst = max(worst, err)
    ok = worst <= 2.0
    report("criterion 8: intervention switches basins", ok, f"worst de00 {worst:.4f}")


def test_c9_cli_determinism(tmp_path):
    """Re-running every CLI command with identical flags reproduces every
    output file byte for byte."""
    from latentcolor import ToyEmbedder, embed_image, write_latents
    from latentcolor.toyflow import probe_colors

    root = tmp_path
    probes = root / "probes"
    probes.mkdir()
    e = ToyEmbedder.create(seed=0, d=16)
    for label, color in probe_colors().items():
        write_latents(probes / f"{label}.lt", embed_image(ColorGrid.solid(color, 8, 8), e))
    ref_grid = root / "ref.json"
    ColorGrid.solid(HslColor(210.0, 0.7, 0.45), 8, 8).save(ref_grid)

    commands = [
        ["fit", str(probes), "--model-out", str(root / "model.json"),
         "--anchors-out", str(root / "anchors.json")],
        ["simulate", "--out", str(root / "run-a"), "--colors", "#D81511",
         "--T", "20", "--seed", "5", "--toy-seed", "0"],
        ["simulate", "--out", str(root / "run-b"), "--colors", "#1190D8",
         "--T", "20", "--seed", "6", "--toy-seed", "0"],
        ["stats", str(root / "run-a" / "manifest.json"), str(root / "run-b" / "manifest.json"),
         "--model", str(root / "model.json"), "--out", str(root / "stats.json")],
        ["observe", str(root / "run-a" / "t015.lt"), "--t", "15",
         "--model", str(root / "model.json"), "--anchors", str(root / "anchors.json"),
         "--stats", str(root / "stats.json"),
         "--out-json", str(root / "grid.json"), "--out-ppm", str(root / "grid.ppm")],
        ["intervene", str(root / "run-a" / "t010.lt"), "--t", "10",
         "--target", "#1190D8",
         "--model", str(root / "model.json"), "--anchors", str(root / "anchors.json"),
         "--stats", str(root / "stats.json"), "--out", str(root / "steered.lt")],
        ["eval", str(root / "grid.json"), str(ref_grid), "--out", str(root / "metrics.json")],
    ]

    outputs = [
        "model.json", "anchors.json",
        "run-a/manifest.json", "run-a/t000.lt", "run-a/t020.lt",
        "run-b/manifest.json", "run-b/t020.lt",
        "stats.json", "grid.json", "grid.ppm", "steered.lt", "metrics.json",
    ]

    for cmd in commands:
        assert main(cmd) == 0, f"first pass failed: {cmd[0]}"
    first = {name: (root / name).read_bytes() for name in outputs}
    for cmd in commands:
        assert main(cmd) == 0, f"second pass failed: {cmd[0]}"
    second = {name: (root / name).read_bytes() for name in outputs}

    stale = [name for name in outputs if first[name] != second[name]]
    report("criterion 9: CLI reruns are byte-identical", not stale, f"checked {len(outputs)} files")
