"""Command-line interface.

Subcommands: fit, observe, intervene, simulate, stats, eval. All file
outputs are written atomically and are byte-identical across reruns with
the same flags. Exit codes: 0 success, 2 usage or input error, 1
internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import tensorio
from .bicone import ANCHOR_LABELS, AnchorSet, build_anchors, decode
from .colorspace import (
    HslColor,
    ciede2000_array,
    hsl_to_rgb_array,
    linear_rgb_to_lab_array,
    linear_to_srgb_array,
    parse_hex,
    rgb_to_hsl,
    rgb_to_hsl_array,
    signed_hue_delta,
    srgb_to_linear_array,
)
from .intervene import MODES, PatchMask, _intervene
from .observe import (
    ColorGrid,
    grid_de00_mean_pixel,
    grid_de00_per_pixel,
    mean_color,
    observe,
    render_ppm,
)
from .subspace import SubspaceModel, average_patches, fit_pca, project
from .timestats import StatsTable, builtin_flux_stats, fit_stats
from .toyflow import AttractorField, ToyEmbedder, generate, initial_noise, solid_attractor

BUILTIN_STATS = "flux-builtin"


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
    """The --grid dims, or a square grid of the L patches when none is given."""
    if not spec:
        side = math.isqrt(L)
        if side * side != L:
            raise ValueError(f"{L} patches is not square; pass --grid HxW")
        return side, side
    return _parse_grid(spec)


def _parse_target(args) -> HslColor:
    if args.target_hsl is not None:
        try:
            hsl = [float(p) for p in args.target_hsl.split(",")]
        except ValueError:
            hsl = []
        if len(hsl) != 3 or not all(map(math.isfinite, hsl)):
            raise ValueError(f"expected three finite numbers h,s,l for --target-hsl, got {args.target_hsl!r}")
        if not (0.0 <= hsl[1] <= 1.0 and 0.0 <= hsl[2] <= 1.0):  # HslColor would clamp them silently
            raise ValueError(f"expected s and l in [0, 1] for --target-hsl, got {args.target_hsl!r}")
        return HslColor(*hsl)
    if args.target is None:
        raise ValueError("one of --target or --target-hsl is required")
    return rgb_to_hsl(parse_hex(args.target))


def _load_mask(path: str | None, L: int) -> PatchMask | None:
    """The --mask file, if one is given, checked against the L patches it selects from."""
    mask = PatchMask.load(path) if path else None
    if mask and (mask.L != L or not mask.selected):
        raise ValueError(f"{path}: mask selects {len(mask.selected)} of L = {mask.L} patches; the input has {L}")
    return mask


def _fitting(z: np.ndarray, path, model: SubspaceModel, model_path) -> np.ndarray:
    """z, if its latent width is the model's; else a refusal that names the latent's file and the model's."""
    if z.shape[-1] != model.dim:
        raise ValueError(f"{path}: latent dim {z.shape[-1]} does not match model dim {model.dim} of {model_path}")
    return z


def _load_world(args):
    """The latent, model, anchors and stats that observe and intervene read."""
    z, model, anchors = tensorio.read_latents(args.latent), SubspaceModel.load(args.model), AnchorSet.load(args.anchors)
    stats = builtin_flux_stats() if args.stats == BUILTIN_STATS else StatsTable.load(args.stats)
    return _fitting(z, args.latent, model, args.model), model, anchors, stats


def _checked(args, call, *a):
    """call(*a); a float overflow or invalid value in it is refused as coming from the files read."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return call(*a)
    except FloatingPointError as e:
        raise ValueError(f"{e}: out of range in --model {args.model}, --anchors {args.anchors} or --stats {args.stats}") from e


def _shown_hsl(lin: np.ndarray) -> np.ndarray:
    """(h, s, l) of linear RGB rows as they are displayed: sRGB-encoded and clamped."""
    return rgb_to_hsl_array(linear_to_srgb_array(lin))


def _hsl_error(got, want) -> tuple[float, float, float]:
    """Circular hue distance in degrees, and the absolute s and l gaps, between two (h, s, l)."""
    return abs(signed_hue_delta(got[0], want[0])), abs(got[1] - want[1]), abs(got[2] - want[2])


def _report_lines(lins: np.ndarray, target: HslColor) -> list[str]:
    """The masked means before and after the edit, (2, 3) linear RGB, against the target."""
    want = [target.h, target.s, target.l]
    # the target's linear RGB rides along as a third row: one Lab call covers all three colours
    lab = linear_rgb_to_lab_array(np.vstack([lins, srgb_to_linear_array(hsl_to_rgb_array(want))]))
    des = ciede2000_array(lab[:2], lab[2])
    lines = []
    for tag, de, got in zip(("before", "after"), des.tolist(), _shown_hsl(lins).tolist()):
        dh, ds, dl = _hsl_error(got, want)
        lines.append(
            f"{tag}: masked mean vs target  de00 {de:.4f}  "
            f"dh {dh:.2f} deg  ds {100.0 * ds:.2f}%  dl {100.0 * dl:.2f}%"
        )
    return lines


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_fit(args) -> int:
    probe_dir = Path(args.probes)
    files = sorted(probe_dir.glob("*.lt"))
    if not files:
        raise ValueError(f"no .lt latent files found in {probe_dir}")
    means = {f.stem: average_patches(tensorio.read_latents(f)) for f in files}
    d = means[files[0].stem].size
    for f in files:
        if means[f.stem].size != d:
            raise ValueError(f"{f}: latent dim {means[f.stem].size} does not match {files[0]}'s {d}")
    missing = [l for l in ANCHOR_LABELS if l not in means]
    if missing:
        raise ValueError(f"probe directory lacks labeled files: {missing}")
    labeled = {l: means[l] for l in ANCHOR_LABELS}
    model = fit_pca(np.stack(list(means.values())), orientation=labeled)
    anchors = build_anchors(labeled, model)
    model.save(args.model_out)
    anchors.save(args.anchors_out)
    ratios = " ".join(f"{v:.6f}" for v in model.explained)
    print(f"explained variance ratios: {ratios} (total {sum(model.explained):.6f})")
    print(f"wrote {args.model_out} and {args.anchors_out}")
    return 0


def cmd_observe(args) -> int:
    if not (args.out_json or args.out_ppm):
        raise ValueError("nothing to do: pass --out-json and/or --out-ppm")
    if args.cell_px < 1:
        raise ValueError(f"--cell-px must be at least 1, got {args.cell_px}")
    # a write replaces a directory entry, so the two outputs collide only as one name in one directory
    out_json, out_ppm = args.out_json, args.out_ppm
    if out_json and out_ppm and os.path.basename(out_json) == os.path.basename(out_ppm):
        if os.path.realpath(os.path.dirname(out_json)) == os.path.realpath(os.path.dirname(out_ppm)):
            raise ValueError(f"--out-json and --out-ppm name the same file: {out_ppm}")
    z, model, anchors, stats = _checked(args, _load_world, args)
    dims = _grid_dims(args.grid, z.shape[0])
    grid = _checked(args, observe, z, args.t, model, anchors, stats, dims)
    ppm = render_ppm(grid, args.cell_px) if args.out_ppm else None  # before any write: it may refuse the size
    if args.out_json:
        grid.save(args.out_json)
    if args.out_ppm:
        tensorio.atomic_write_bytes(args.out_ppm, ppm)
    wrote = ", ".join(path for path in (args.out_json, args.out_ppm) if path)
    print(f"observed {dims[0]}x{dims[1]} grid at t={args.t}; wrote {wrote}")
    return 0


def cmd_intervene(args) -> int:
    target = _parse_target(args)
    z, model, anchors, stats = _checked(args, _load_world, args)
    mask = _load_mask(args.mask, z.shape[0])
    out, hat, edited = _checked(args, _intervene, z, args.t, target, mask, model, anchors, stats, args.mode)
    hsl = _checked(args, decode, np.concatenate([hat, edited]), anchors)  # the edit's own charted blocks, in one decode
    tensorio.write_latents(args.out, out)
    print("\n".join(_report_lines(mean_color(hsl.reshape(2, -1, 3)), target)))
    print(f"wrote {args.out}")
    return 0


def cmd_simulate(args) -> int:
    dims = _parse_grid(args.grid)
    colors = [rgb_to_hsl(parse_hex(c)) for c in args.colors.split(",") if c]
    if not colors:
        raise ValueError("need at least one attractor color")
    try:
        e = ToyEmbedder.create(seed=args.toy_seed, d=args.dim)
        field = AttractorField(attractors=[solid_attractor(c, e, dims) for c in colors], T=args.T, embedder=e)
        z0 = initial_noise(dims[0] * dims[1], args.dim, args.seed)
    except MemoryError as err:
        raise ValueError(f"--grid {dims[0]}x{dims[1]} at --dim {args.dim} is too large to allocate") from err
    traj = generate(z0, field)
    manifest = tensorio.save_trajectory(args.out, traj)
    print(f"simulated T={args.T} trajectory with {len(colors)} attractor(s); wrote {manifest}")
    return 0


def cmd_stats(args) -> int:
    model = SubspaceModel.load(args.model)
    # project is affine, so the projected patch mean of each frame is the mean of its patches' projections
    tracks = [
        project(np.stack([_fitting(z, m, model, args.model).mean(axis=0) for z in tensorio._steps(m)]), model)
        for m in args.manifests
    ]
    for m, track in zip(args.manifests, tracks):
        if len(track) != len(tracks[0]):
            raise ValueError(f"{m}: T={len(track) - 1} does not match {args.manifests[0]}'s T={len(tracks[0]) - 1}")
    stats = fit_stats(tracks)
    stats.save(args.out)
    print(f"fitted stats over t=0..{stats.T} from {len(tracks)} trajectories; wrote {args.out}")
    return 0


def cmd_eval(args) -> int:
    pred = ColorGrid.load(args.pred)
    ref = ColorGrid.load(args.ref)
    if (pred.height, pred.width) != (ref.height, ref.width):
        raise ValueError(f"grid dims differ: {args.pred} is {pred.height}x{pred.width}, {args.ref} is {ref.height}x{ref.width}")
    mask = _load_mask(args.mask, pred.height * pred.width)
    # the masked means stay in linear RGB for de00, as grid_de00_mean_pixel's do
    masked = None if mask is None else [mean_color(grid.hsl.reshape(-1, 3)[mask.indices]) for grid in (pred, ref)]
    per_pixel, mean_pixel = grid_de00_per_pixel(pred, ref), grid_de00_mean_pixel(pred, ref)
    # with no mask, the means are the grids' mean colours that the comparison holds: an all-patches mask's bits
    lins = np.stack(masked or [grid._blocks[0][:, -1] for grid in (pred, ref)])
    pred_hsl, ref_hsl = _shown_hsl(lins).tolist()
    dh, ds, dl = _hsl_error(pred_hsl, ref_hsl)
    metrics = {
        "de00_per_pixel": per_pixel,
        "de00_mean_pixel": mean_pixel,
        "masked_mean": {
            "pred_hsl": pred_hsl,
            "ref_hsl": ref_hsl,
            "de00": mean_pixel if mask is None else float(ciede2000_array(*linear_rgb_to_lab_array(lins))),
            "dh_degrees": dh,
            "ds_percent": 100.0 * ds,
            "dl_percent": 100.0 * dl,
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
    """A new parser for all six subcommands."""
    p = argparse.ArgumentParser(prog="latentcolor", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    f = sub.add_parser("fit", help="fit the subspace model and anchors from probe latents")
    f.add_argument("probes", help="directory of .lt files; must include red.lt .. white.lt")
    f.add_argument("--model-out", default="model.json")
    f.add_argument("--anchors-out", default="anchors.json")

    world = argparse.ArgumentParser(add_help=False)  # what _load_world reads, for observe and intervene
    world.add_argument("latent")
    world.add_argument("--t", type=int, required=True)
    world.add_argument("--model", required=True)
    world.add_argument("--anchors", required=True)
    world.add_argument("--stats", default=BUILTIN_STATS, help=f"stats JSON path or '{BUILTIN_STATS}'")

    o = sub.add_parser("observe", parents=[world], help="decode a latent into a color grid")
    o.add_argument("--grid", help="HxW patch grid (default: square)")
    o.add_argument("--out-json")
    o.add_argument("--out-ppm")
    o.add_argument("--cell-px", type=int, default=1)

    i = sub.add_parser("intervene", parents=[world], help="steer masked patches toward a target color")
    target = i.add_mutually_exclusive_group()
    target.add_argument("--target", help="target color as #RRGGBB")
    target.add_argument("--target-hsl", help="target color as h,s,l; s and l in [0, 1], h in degrees, wrapped mod 360")
    i.add_argument("--mode", choices=MODES, default="interp")
    i.add_argument("--mask", help="mask file (JSON or PGM); default all patches")
    i.add_argument("--out", required=True)

    s = sub.add_parser("simulate", help="run the toy flow toward solid-color attractors")
    s.add_argument("--out", required=True, help="output trajectory directory")
    s.add_argument("--colors", required=True, help="comma-separated #RRGGBB attractor colors")
    s.add_argument("--T", type=int, default=50)
    s.add_argument("--seed", type=int, default=0, help="noise seed for z0")
    s.add_argument("--toy-seed", type=int, default=0, help="embedder seed")
    s.add_argument("--dim", type=int, default=16)
    s.add_argument("--grid", default="8x8")

    st = sub.add_parser("stats", help="fit per-timestep statistics from trajectories")
    st.add_argument("manifests", nargs="+", help="trajectory manifest.json paths")
    st.add_argument("--model", required=True)
    st.add_argument("--out", default="stats.json")

    ev = sub.add_parser("eval", help="compare two color grids")
    ev.add_argument("pred")
    ev.add_argument("ref")
    ev.add_argument("--mask")
    ev.add_argument("--out", default="metrics.json")

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # main's one parser per process: parsing leaves a parser as it was, and help and usage are
    # formatted when printed, so COLUMNS applies on each call
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return globals()[f"cmd_{args.command}"](args)  # looked up per call, so a rebound cmd_* takes effect
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # invariant violations and bugs
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
