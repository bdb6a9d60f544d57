"""Command-line interface.

Subcommands: fit, observe, intervene, simulate, stats, eval. All file
outputs are written atomically and are byte-identical across reruns with
the same flags. Exit codes: 0 success, 2 usage or input error, 1
internal invariant violation.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import tensorio
from .bicone import ANCHOR_LABELS, AnchorSet, build_anchors, decode
from .colorspace import HslColor, ciede2000, hsl_error, hsl_to_rgb, parse_hex, rgb_to_hsl, srgb_to_lab
from .intervene import MODES, PatchMask, Schedule, apply_intervention, load_mask
from .observe import (
    ColorGrid,
    grid_de00_mean_pixel,
    grid_de00_per_pixel,
    masked_mean_color,
    mean_color,
    observe,
    render_ppm,
)
from .subspace import SubspaceModel, average_patches, fit_pca, project
from .timestats import StatsTable, builtin_flux_stats, fit_stats, normalize
from .toyflow import AttractorField, ToyEmbedder, generate, initial_noise, solid_attractor

BUILTIN_STATS = "flux-builtin"


def _load_stats(spec: str) -> StatsTable:
    if spec == BUILTIN_STATS:
        return builtin_flux_stats()
    return StatsTable.load(spec)


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        h, w = text.lower().split("x")
        h, w = int(h), int(w)
    except ValueError as e:
        raise ValueError(f"expected HxW grid spec, got {text!r}") from e
    if h < 1 or w < 1:
        raise ValueError(f"grid dims must be positive, got {text!r}")
    return h, w


def _grid_dims(spec: str | None, L: int) -> tuple[int, int]:
    """The --grid dims, or a square grid when none is given; either must cover the L patches."""
    if not spec:
        side = math.isqrt(L)
        if side * side != L:
            raise ValueError(f"{L} patches is not square; pass --grid HxW")
        return side, side
    h, w = _parse_grid(spec)
    if h * w != L:
        raise ValueError(f"grid {h}x{w} does not cover {L} patches")
    return h, w


def _parse_target(args) -> HslColor:
    if args.target_hsl is not None:
        parts = args.target_hsl.split(",")
        if len(parts) != 3:
            raise ValueError(f"expected h,s,l for --target-hsl, got {args.target_hsl!r}")
        return HslColor(*(float(p) for p in parts))
    if args.target is None:
        raise ValueError("one of --target or --target-hsl is required")
    return rgb_to_hsl(parse_hex(args.target))


def _report_line(tag: str, got: HslColor, target: HslColor) -> str:
    de = ciede2000(srgb_to_lab(hsl_to_rgb(got)), srgb_to_lab(hsl_to_rgb(target)))
    err = hsl_error(got, target)
    return (
        f"{tag}: masked mean vs target  de00 {de:.4f}  "
        f"dh {err.dh:.2f} deg  ds {100.0 * err.ds:.2f}%  dl {100.0 * err.dl:.2f}%"
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_fit(args) -> int:
    probe_dir = Path(args.probes)
    files = sorted(probe_dir.glob("*.lt"))
    if not files:
        raise ValueError(f"no .lt latent files found in {probe_dir}")
    by_name = {f.stem: f for f in files}
    missing = [l for l in ANCHOR_LABELS if l not in by_name]
    if missing:
        raise ValueError(f"probe directory lacks labeled files: {missing}")
    samples = np.stack([average_patches(tensorio.read_latents(f)) for f in files])
    labeled = {l: average_patches(tensorio.read_latents(by_name[l])) for l in ANCHOR_LABELS}
    model = fit_pca(samples, k=3, orientation=labeled)
    anchors = build_anchors(labeled, model)
    model.save(args.model_out)
    anchors.save(args.anchors_out)
    ratios = " ".join(f"{v:.6f}" for v in model.explained)
    print(f"explained variance ratios: {ratios} (total {sum(model.explained):.6f})")
    print(f"wrote {args.model_out} and {args.anchors_out}")
    return 0


def cmd_observe(args) -> int:
    z = tensorio.read_latents(args.latent)
    model = SubspaceModel.load(args.model)
    anchors = AnchorSet.load(args.anchors)
    stats = _load_stats(args.stats)
    dims = _grid_dims(args.grid, z.shape[0])
    grid = observe(z, args.t, model, anchors, stats, dims)
    wrote = []
    if args.out_json:
        grid.save(args.out_json)
        wrote.append(args.out_json)
    if args.out_ppm:
        tensorio.atomic_write_bytes(args.out_ppm, render_ppm(grid, args.cell_px))
        wrote.append(args.out_ppm)
    if not wrote:
        raise ValueError("nothing to do: pass --out-json and/or --out-ppm")
    print(f"observed {dims[0]}x{dims[1]} grid at t={args.t}; wrote {', '.join(wrote)}")
    return 0


def cmd_intervene(args) -> int:
    z = tensorio.read_latents(args.latent)
    model = SubspaceModel.load(args.model)
    anchors = AnchorSet.load(args.anchors)
    stats = _load_stats(args.stats)
    target = _parse_target(args)
    mask = load_mask(args.mask) if args.mask else PatchMask.full(z.shape[0])
    sched = Schedule(T=args.sched_t if args.sched_t is not None else stats.T)
    _grid_dims(args.grid, z.shape[0])  # the report needs none, but a bad --grid is still an error

    out = apply_intervention(z, args.t, target, mask, model, anchors, stats, sched, args.mode)
    tensorio.write_latents(args.out, out)

    rows = mask.indices
    for tag, latent in (("before", z), ("after", out)):
        got = mean_color(decode(normalize(project(latent[rows], model), args.t, stats), anchors))
        print(_report_line(tag, got, target))
    print(f"wrote {args.out}")
    return 0


def cmd_simulate(args) -> int:
    e = ToyEmbedder.create(seed=args.toy_seed, d=args.dim)
    dims = _parse_grid(args.grid)
    colors = [rgb_to_hsl(parse_hex(c)) for c in args.colors.split(",") if c]
    if not colors:
        raise ValueError("need at least one attractor color")
    attractors = tuple(solid_attractor(c, e, dims) for c in colors)
    field = AttractorField(attractors=attractors, T=args.T, embedder=e)
    z0 = initial_noise(dims[0] * dims[1], args.dim, args.seed)
    traj = generate(z0, field)
    manifest = tensorio.save_trajectory(args.out, traj)
    print(f"simulated T={args.T} trajectory with {len(colors)} attractor(s); wrote {manifest}")
    return 0


def cmd_stats(args) -> int:
    model = SubspaceModel.load(args.model)
    tracks = []
    for manifest in args.manifests:
        traj = tensorio.load_trajectory(manifest)
        tracks.append(np.stack([average_patches(project(frame, model)) for frame in traj]))
    stats = fit_stats(tracks)
    stats.save(args.out)
    print(f"fitted stats over t=0..{stats.T} from {len(tracks)} trajectories; wrote {args.out}")
    return 0


def cmd_eval(args) -> int:
    pred = ColorGrid.load(args.pred)
    ref = ColorGrid.load(args.ref)
    mask = load_mask(args.mask) if args.mask else PatchMask.full(pred.height * pred.width)
    mean_pred = masked_mean_color(pred, mask)
    mean_ref = masked_mean_color(ref, mask)
    err = hsl_error(mean_pred, mean_ref)
    metrics = {
        "de00_per_pixel": grid_de00_per_pixel(pred, ref),
        "de00_mean_pixel": grid_de00_mean_pixel(pred, ref),
        "masked_mean": {
            "pred_hsl": [mean_pred.h, mean_pred.s, mean_pred.l],
            "ref_hsl": [mean_ref.h, mean_ref.s, mean_ref.l],
            "de00": ciede2000(srgb_to_lab(hsl_to_rgb(mean_pred)), srgb_to_lab(hsl_to_rgb(mean_ref))),
            "dh_degrees": err.dh,
            "ds_percent": 100.0 * err.ds,
            "dl_percent": 100.0 * err.dl,
        },
    }
    tensorio.write_json(args.out, metrics)
    print(
        f"de00 per-pixel {metrics['de00_per_pixel']:.4f}  "
        f"mean-pixel {metrics['de00_mean_pixel']:.4f}; wrote {args.out}"
    )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="latentcolor", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    f = sub.add_parser("fit", help="fit the subspace model and anchors from probe latents")
    f.add_argument("probes", help="directory of .lt files; must include red.lt .. white.lt")
    f.add_argument("--model-out", default="model.json")
    f.add_argument("--anchors-out", default="anchors.json")
    f.set_defaults(fn=cmd_fit)

    o = sub.add_parser("observe", help="decode a latent into a color grid")
    o.add_argument("latent")
    o.add_argument("--t", type=int, required=True)
    o.add_argument("--model", required=True)
    o.add_argument("--anchors", required=True)
    o.add_argument("--stats", default=BUILTIN_STATS, help=f"stats JSON path or '{BUILTIN_STATS}'")
    o.add_argument("--grid", help="HxW patch grid (default: square)")
    o.add_argument("--out-json")
    o.add_argument("--out-ppm")
    o.add_argument("--cell-px", type=int, default=1)
    o.set_defaults(fn=cmd_observe)

    i = sub.add_parser("intervene", help="steer masked patches toward a target color")
    i.add_argument("latent")
    i.add_argument("--t", type=int, required=True)
    i.add_argument("--target", help="target color as #RRGGBB")
    i.add_argument("--target-hsl", help="target color as h,s,l")
    i.add_argument("--mode", choices=MODES, default="interp")
    i.add_argument("--mask", help="mask file (JSON or PGM); default all patches")
    i.add_argument("--model", required=True)
    i.add_argument("--anchors", required=True)
    i.add_argument("--stats", default=BUILTIN_STATS)
    i.add_argument("--sched-t", type=int, help="schedule horizon (default: stats T)")
    i.add_argument("--grid", help="HxW patch grid for the report (default: square)")
    i.add_argument("--out", required=True)
    i.set_defaults(fn=cmd_intervene)

    s = sub.add_parser("simulate", help="run the toy flow toward solid-color attractors")
    s.add_argument("--out", required=True, help="output trajectory directory")
    s.add_argument("--colors", required=True, help="comma-separated #RRGGBB attractor colors")
    s.add_argument("--T", type=int, default=50)
    s.add_argument("--seed", type=int, default=0, help="noise seed for z0")
    s.add_argument("--toy-seed", type=int, default=0, help="embedder seed")
    s.add_argument("--dim", type=int, default=16)
    s.add_argument("--grid", default="8x8")
    s.set_defaults(fn=cmd_simulate)

    st = sub.add_parser("stats", help="fit per-timestep statistics from trajectories")
    st.add_argument("manifests", nargs="+", help="trajectory manifest.json paths")
    st.add_argument("--model", required=True)
    st.add_argument("--out", default="stats.json")
    st.set_defaults(fn=cmd_stats)

    ev = sub.add_parser("eval", help="compare two color grids")
    ev.add_argument("pred")
    ev.add_argument("ref")
    ev.add_argument("--mask")
    ev.add_argument("--out", default="metrics.json")
    ev.set_defaults(fn=cmd_eval)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # invariant violations and bugs
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
