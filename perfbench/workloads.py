"""The benchmark's workloads: seeded worlds, ops and output checks.

Each workload builds its world from the seed (the timed set-up), then
yields ops in a fixed cycle. An op calls the public latentcolor API (or
cli.main in process) and returns what it produced; the check runs after
the op's timer stops and raises CheckFailed on a wrong output. Functions
are looked up through their module at call time, so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

tensorio = importlib.import_module("latentcolor.tensorio")
subspace = importlib.import_module("latentcolor.subspace")
timestats = importlib.import_module("latentcolor.timestats")
bicone = importlib.import_module("latentcolor.bicone")
colorspace = importlib.import_module("latentcolor.colorspace")
obs = importlib.import_module("latentcolor.observe")
intervene = importlib.import_module("latentcolor.intervene")
toyflow = importlib.import_module("latentcolor.toyflow")
cli = importlib.import_module("latentcolor.cli")

T = 50


class CheckFailed(Exception):
    """An op produced a wrong output."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _seeded_ts(rng: np.random.Generator, lo: int, hi: int) -> list[int]:
    """A seeded order of the timesteps lo..hi, each once per cycle."""
    return [int(t) for t in rng.permutation(np.arange(lo, hi + 1))]


def _block_colors(rng: np.random.Generator, n: int) -> list:
    """n mid-range colours, every hue segment used, in a seeded order."""
    segs = np.resize(np.arange(6), n)
    rng.shuffle(segs)
    return [
        colorspace.HslColor(60.0 * k + rng.uniform(5.0, 55.0), rng.uniform(0.4, 0.9), rng.uniform(0.3, 0.7))
        for k in segs
    ]


def _raw_decodes(hat: np.ndarray, anchors) -> np.ndarray:
    return np.array([bicone.decode_raw(c, anchors) for c in hat])


def input_properties(raws: list[np.ndarray], masked: list[float], gains: list[np.ndarray]) -> dict[str, float]:
    """Shares of the inputs the ops saw: clamped patches, hue segments, mask size, normalization gain."""
    hsl = np.concatenate(raws)
    out_of_range = (hsl[:, 1] < 0) | (hsl[:, 1] > 1) | (hsl[:, 2] < 0) | (hsl[:, 2] > 1)
    seg = np.minimum((hsl[:, 0] // 60.0).astype(int), 5)
    props = {"input.clamped_share": float(out_of_range.mean())}
    for k, name in enumerate(bicone.HUE_LABELS):
        props[f"input.hue.{name}"] = float(np.mean(seg == k))
    props["input.masked_share"] = float(np.mean(masked))
    props["input.gain_min"] = float(np.min(gains))
    props["input.gain_max"] = float(np.max(gains))
    return props


# ---------------------------------------------------------------------------
# read-4k and steer-4k: one library world at a 64x64 patch grid
# ---------------------------------------------------------------------------

@dataclass
class World:
    """A fitted toy world and one trajectory landing on a block image."""

    embedder: object
    model: object
    anchors: object
    stats: object
    traj: np.ndarray
    dims: tuple[int, int]
    truth: object  # toy ground-truth colour grid of the attractor


def build_world(seed: int, side: int, d: int) -> World:
    """Embedder, probes, fit_pca, anchors, stats and one generate, all from the seed.

    The stats come from one trajectory per palette colour at an 8x8 grid,
    all from the same noise, as in the test suite's toy world; the
    measured trajectory runs at side x side toward an image of 8x8-patch
    blocks (fewer at small sizes) in seeded colours covering all six hues.
    """
    rng = np.random.default_rng(seed)
    e = toyflow.ToyEmbedder.create(seed=seed, d=d)
    probes = toyflow.make_probe_set(e)
    model = subspace.fit_pca(probes.lattice, k=3, orientation=probes.labeled)
    anchors = bicone.build_anchors(probes.labeled, model)

    noise = toyflow.initial_noise(64, d, seed + 1)
    tracks = []
    for hex_color in toyflow.TIMESTEP_PALETTE.values():
        color = colorspace.rgb_to_hsl(colorspace.parse_hex(hex_color))
        field = toyflow.AttractorField(attractors=(toyflow.solid_attractor(color, e, (8, 8)),), T=T, embedder=e)
        traj = toyflow.generate(noise, field)
        tracks.append(np.stack([subspace.average_patches(subspace.project(frame, model)) for frame in traj]))
    stats = timestats.fit_stats(tracks)

    block = max(1, side // 8)
    per_row = side // block
    colors = _block_colors(rng, per_row * per_row)
    cells = tuple(colors[(y // block) * per_row + x // block] for y in range(side) for x in range(side))
    image = obs.ColorGrid(side, side, cells)
    attractor = toyflow.embed_image(image, e)
    field = toyflow.AttractorField(attractors=(attractor,), T=T, embedder=e)
    traj = toyflow.generate(toyflow.initial_noise(side * side, d, seed + 2), field)
    return World(e, model, anchors, stats, traj, (side, side), image)


def _hsl_gap(a, b) -> float:
    return max(abs(colorspace.signed_hue_delta(a.h, b.h)), abs(a.s - b.s), abs(a.l - b.l))


def _check_world(w: World) -> tuple[object, list[str]]:
    """Observe the t = T latent and compare it with the toy ground truth.

    Returns the grid and a failure message per mismatched kind (empty
    when every cell matches toy_decode and the image within 1e-6).
    """
    grid = obs.observe(w.traj[T], T, w.model, w.anchors, w.stats, w.dims)
    truth = [toyflow.toy_decode(z, w.embedder) for z in w.traj[T]]
    failures = []
    for what, want in (("toy_decode of the attractor", truth), ("the block image", w.truth.cells)):
        bad = sum(_hsl_gap(got, ref) >= 1e-6 for got, ref in zip(grid.cells, want))
        if bad:
            failures.append(f"t = T grid differs from {what} in {bad} of {len(want)} cells")
    return grid, failures


class Read4k:
    """observe at t, both CIEDE2000 grid metrics against the t = T grid, render_ppm."""

    name = "read-4k"
    cycle = 1  # every op makes the same calls
    repeats = 1

    def __init__(self, seed: int, side: int = 64, d: int = 64) -> None:
        self.seed, self.side, self.d = seed, side, d

    def setup(self) -> None:
        self.world = build_world(self.seed, self.side, self.d)

    def finish_setup(self) -> list[str]:
        self.ref, failures = _check_world(self.world)
        self.ts = _seeded_ts(np.random.default_rng(self.seed + 3), 1, T)
        h, w = self.world.dims
        self.ppm_len = len(f"P6\n{w} {h}\n255\n") + 3 * h * w
        return failures

    def schedule(self, i: int) -> int:
        return self.ts[i % len(self.ts)]

    def patches(self, t: int) -> int:
        return self.world.dims[0] * self.world.dims[1]

    def run(self, t: int):
        w = self.world
        grid = obs.observe(w.traj[t], t, w.model, w.anchors, w.stats, w.dims)
        per_pixel = obs.grid_de00_per_pixel(grid, self.ref)
        mean_pixel = obs.grid_de00_mean_pixel(grid, self.ref)
        return grid, per_pixel, mean_pixel, obs.render_ppm(grid)

    def check(self, t: int, out) -> None:
        grid, per_pixel, mean_pixel, ppm = out
        _require(math.isfinite(per_pixel) and math.isfinite(mean_pixel), "non-finite grid metric")
        _require(all(math.isfinite(v) for c in grid.cells for v in (c.h, c.s, c.l)), "non-finite cell")
        _require(len(ppm) == self.ppm_len, f"PPM has {len(ppm)} bytes, expected {self.ppm_len}")
        if t == T:
            _require(per_pixel == 0.0 and mean_pixel == 0.0, "t = T grid differs from the reference")

    def inputs(self) -> dict[str, float]:
        w = self.world
        raws, gains = [], []
        for t in self.ts:
            raws.append(_raw_decodes(timestats.normalize(subspace.project(w.traj[t], w.model), t, w.stats), w.anchors))
            gains.append(w.stats.beta[T] / w.stats.beta[t])
        return input_properties(raws, [1.0], gains)


class Steer4k:
    """apply_intervention cycling modes, masks (full, checkerboard, one 8x8 block), t and target."""

    name = "steer-4k"
    modes = ("type1", "type2", "interp")
    masks = ("full", "checker", "block")
    cycle = len(modes) * len(masks)  # call counts depend on mode and mask only
    repeats = 1

    def __init__(self, seed: int, side: int = 64, d: int = 64) -> None:
        self.seed, self.side, self.d = seed, side, d

    def setup(self) -> None:
        self.world = build_world(self.seed, self.side, self.d)

    def finish_setup(self) -> list[str]:
        _, failures = _check_world(self.world)
        rng = np.random.default_rng(self.seed + 3)
        side = self.side
        L = side * side
        b = min(8, side)
        y0, x0 = (int(v) for v in rng.integers(0, side - b + 1, size=2))
        self.selections = {
            "full": None,
            "checker": [y * side + x for y in range(side) for x in range(side) if (x + y) % 2 == 0],
            "block": [(y0 + y) * side + x0 + x for y in range(b) for x in range(b)],
        }
        self.rows = {k: np.arange(L) if v is None else np.array(v) for k, v in self.selections.items()}
        combos = [(m, k) for m in self.modes for k in self.masks]
        self.combos = [combos[i] for i in rng.permutation(len(combos))]
        self.ts = _seeded_ts(rng, 1, T - 1)  # t = T would make interp a pure type2
        self.targets = _block_colors(rng, 7)
        self.basis = self.world.model.basis
        return failures

    def schedule(self, i: int):
        mode, mask = self.combos[i % len(self.combos)]
        return mode, mask, self.ts[i % len(self.ts)], self.targets[i % len(self.targets)]

    def patches(self, spec) -> int:
        return len(self.rows[spec[1]])

    def run(self, spec):
        mode, mask_name, t, target = spec
        w = self.world
        sel = self.selections[mask_name]
        L = w.traj.shape[1]
        mask = intervene.PatchMask.full(L) if sel is None else intervene.PatchMask(L, frozenset(sel))
        return intervene.apply_intervention(
            w.traj[t], t, target, mask, w.model, w.anchors, w.stats, mode=mode
        )

    def check(self, spec, out) -> None:
        mode, mask_name, t, target = spec
        w = self.world
        z = w.traj[t]
        rows = self.rows[mask_name]
        keep = np.ones(z.shape[0], dtype=bool)
        keep[rows] = False
        _require(np.array_equal(out[keep], z[keep]), "unmasked rows changed")
        delta = out - z
        outside = delta - (delta @ self.basis) @ self.basis.T
        _require(float(np.abs(outside).max()) <= 1e-9, "orthogonal complement moved")
        if mode == "type1":
            hat = timestats.normalize(subspace.project(out[rows], w.model), t, w.stats)
            goal = bicone.encode(target, w.anchors)
            _require(float(np.abs(hat.mean(axis=0) - goal).max()) <= 1e-9, "type1 mean missed the target")

    def inputs(self) -> dict[str, float]:
        w = self.world
        raws, gains = [], []
        L = w.traj.shape[1]
        for i in range(len(self.ts)):  # one op per t, with that op's mask
            _, mask_name, t, _ = self.schedule(i)
            rows = self.rows[mask_name]
            hat = timestats.normalize(subspace.project(w.traj[t][rows], w.model), t, w.stats)
            raws.append(_raw_decodes(hat, w.anchors))
            gains.append(w.stats.beta[T] / w.stats.beta[t])
        masked = [len(self.rows[mask_name]) / L for _, mask_name in self.combos]
        return input_properties(raws, masked, gains)


# ---------------------------------------------------------------------------
# cli-8x8: the command line in process at the demo size
# ---------------------------------------------------------------------------

class Cli8x8:
    """cli.main in process: observe (JSON + PPM), intervene (JSON mask) or eval, cycling t."""

    name = "cli-8x8"
    commands = ("observe", "intervene", "eval")
    cycle = len(commands)
    # An op takes ~10 ms of wall time, as long as the host's speed swings
    # last; the fastest of 5 calls is what the command costs.
    repeats = 5

    def __init__(self, seed: int, workdir: Path, side: int = 8, d: int = 16) -> None:
        self.seed, self.side, self.d = seed, side, d
        self.root = workdir
        self.setups = 0
        self.digests: dict[tuple[str, int], dict[str, str]] = {}

    def _cli(self, argv: list[str]) -> None:
        with contextlib.redirect_stdout(self.sink):
            code = cli.main(argv)
        _require(code == 0, f"latentcolor {argv[0]} exited with {code}")

    def setup(self) -> None:
        """Probe files, then fit, two simulate runs, stats and the t = T grid through the CLI."""
        self.sink = io.StringIO()
        self.setups += 1
        work = self.root / f"world-{self.setups}"
        if work.exists():
            shutil.rmtree(work)
        probes = work / "probes"
        probes.mkdir(parents=True)
        rng = np.random.default_rng(self.seed)
        e = toyflow.ToyEmbedder.create(seed=self.seed, d=self.d)
        for label, color in toyflow.probe_colors().items():
            grid = obs.ColorGrid.solid(color, self.side, self.side)
            tensorio.write_latents(probes / f"{label}.lt", toyflow.embed_image(grid, e))
        model, anchors, stats = work / "model.json", work / "anchors.json", work / "stats.json"
        self._cli(["fit", str(probes), "--model-out", str(model), "--anchors-out", str(anchors)])
        palette = list(toyflow.TIMESTEP_PALETTE.values())
        picks = rng.choice(len(palette), size=2, replace=False)
        manifests = []
        for i, k in enumerate(picks):
            out = work / f"run-{i}"
            self._cli([
                "simulate", "--out", str(out), "--colors", palette[k], "--T", str(T),
                "--seed", str(self.seed + 1 + i), "--toy-seed", str(self.seed),
                "--dim", str(self.d), "--grid", f"{self.side}x{self.side}",
            ])
            manifests.append(str(out / "manifest.json"))
        self._cli(["stats", *manifests, "--model", str(model), "--out", str(stats)])
        self.common = ["--model", str(model), "--anchors", str(anchors), "--stats", str(stats)]
        self.work = work
        self._cli([
            "observe", str(work / "run-0" / f"t{T:03d}.lt"), "--t", str(T), *self.common,
            "--out-json", str(work / "final.json"),
        ])

    def finish_setup(self) -> list[str]:
        for old in self.root.glob("world-*"):
            if old != self.work:
                shutil.rmtree(old)
        rng = np.random.default_rng(self.seed + 3)
        L = self.side * self.side
        self.selected = sorted(int(i) for i in rng.choice(L, size=L // 2, replace=False))
        self.mask = self.work / "mask.json"
        tensorio.write_json(self.mask, {"L": L, "selected": self.selected})
        self.ts = _seeded_ts(rng, 1, T)
        self.targets = ["#%02X%02X%02X" % tuple(int(v) for v in rng.integers(0, 256, 3)) for _ in range(5)]
        return []

    def schedule(self, i: int):
        k = i // len(self.commands)
        return self.commands[i % len(self.commands)], self.ts[k % len(self.ts)], self.targets[k % len(self.targets)]

    def patches(self, spec) -> int:
        return len(self.selected) if spec[0] == "intervene" else self.side * self.side

    def outputs(self, command: str) -> list[Path]:
        w = self.work
        return {
            "observe": [w / "obs.json", w / "obs.ppm"],
            "intervene": [w / "steered.lt"],
            "eval": [w / "metrics.json"],
        }[command]

    def run(self, spec):
        command, t, target = spec
        w = self.work
        latent = str(w / "run-0" / f"t{t:03d}.lt")
        if command == "observe":
            argv = ["observe", latent, "--t", str(t), *self.common,
                    "--out-json", str(w / "obs.json"), "--out-ppm", str(w / "obs.ppm"), "--cell-px", "16"]
        elif command == "intervene":
            argv = ["intervene", latent, "--t", str(t), "--target", target, "--mask", str(self.mask),
                    *self.common, "--out", str(w / "steered.lt")]
        else:
            argv = ["eval", str(w / "obs.json"), str(w / "final.json"), "--out", str(w / "metrics.json")]
        with contextlib.redirect_stdout(self.sink):
            code = cli.main(argv)
        return code

    def check(self, spec, code) -> None:
        command, t, target = spec
        if self.sink.tell() > 1 << 20:
            self.sink.seek(0)
            self.sink.truncate()
        _require(code == 0, f"latentcolor {command} exited with {code}")
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in self.outputs(command)}
        seen = self.digests.setdefault((command, t, target), digests)
        _require(seen == digests, f"rerun of {command} at t={t} wrote different bytes")

    def inputs(self) -> dict[str, float]:
        model = subspace.SubspaceModel.load(self.work / "model.json")
        anchors = bicone.AnchorSet.load(self.work / "anchors.json")
        stats = timestats.StatsTable.load(self.work / "stats.json")
        raws, gains, masked = [], [], []
        L = self.side * self.side
        for t in self.ts:
            z = tensorio.read_latents(self.work / "run-0" / f"t{t:03d}.lt")
            raws.append(_raw_decodes(timestats.normalize(subspace.project(z, model), t, stats), anchors))
            gains.append(stats.beta[T] / stats.beta[t])
        for command in self.commands:
            masked.append(len(self.selected) / L if command == "intervene" else 1.0)
        return input_properties(raws, masked, gains)
