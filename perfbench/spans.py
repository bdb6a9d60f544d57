"""Span recorder for the traced benchmark run.

Wraps the public functions of the latentcolor modules from outside the
package: every module attribute that is one of the listed functions is
replaced by a wrapper that records a span (layer id, start, end, parent
span, op id). Because callers look functions up in their own module
namespace at call time, rebinding the name in every module that imports
it catches calls made from anywhere in the package, and nothing under
src/ changes. Spans live in compact arrays in memory and are written out
once, when the run ends.

A span's self time is its duration minus the time its child spans cover.
Spans are strictly nested (one thread, synchronous calls), so the covered
time is the sum of the children's durations.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np

# (module, attribute path) -> layer name. A layer may own several
# functions; a call nested directly in a span of the same layer counts as
# part of that call, not as a call of its own.
LAYERS: dict[tuple[str, str], str] = {
    ("tensorio", "read_latents"): "tensorio.read_latents",
    ("tensorio", "write_latents"): "tensorio.write_latents",
    ("tensorio", "read_json"): "tensorio.json",
    ("tensorio", "write_json"): "tensorio.json",
    ("tensorio", "atomic_write_bytes"): "tensorio.atomic_write",
    ("tensorio", "save_trajectory"): "tensorio.trajectory",
    ("tensorio", "load_trajectory"): "tensorio.trajectory",
    ("subspace", "project"): "subspace.project",
    ("subspace", "average_patches"): "subspace.average_patches",
    ("subspace", "fit_pca"): "subspace.fit_pca",
    ("subspace", "SubspaceModel.to_json_dict"): "subspace.SubspaceModel.json",
    ("subspace", "SubspaceModel.from_json_dict"): "subspace.SubspaceModel.json",
    ("subspace", "SubspaceModel.save"): "subspace.SubspaceModel.json",
    ("subspace", "SubspaceModel.load"): "subspace.SubspaceModel.json",
    ("timestats", "normalize"): "timestats.normalize",
    ("timestats", "denormalize"): "timestats.denormalize",
    ("timestats", "fit_stats"): "timestats.fit_stats",
    ("timestats", "StatsTable.to_json_dict"): "timestats.StatsTable.json",
    ("timestats", "StatsTable.from_json_dict"): "timestats.StatsTable.json",
    ("timestats", "StatsTable.save"): "timestats.StatsTable.json",
    ("timestats", "StatsTable.load"): "timestats.StatsTable.json",
    ("bicone", "decode"): "bicone.decode",
    ("bicone", "decode_raw"): "bicone.decode",
    ("bicone", "encode"): "bicone.encode",
    ("bicone", "build_anchors"): "bicone.build_anchors",
    ("bicone", "AnchorSet.to_json_dict"): "bicone.AnchorSet.json",
    ("bicone", "AnchorSet.from_json_dict"): "bicone.AnchorSet.json",
    ("bicone", "AnchorSet.save"): "bicone.AnchorSet.json",
    ("bicone", "AnchorSet.load"): "bicone.AnchorSet.json",
    ("colorspace", "hsl_to_rgb"): "colorspace.hsl_to_rgb",
    ("colorspace", "rgb_to_hsl"): "colorspace.rgb_to_hsl",
    ("colorspace", "srgb_to_lab"): "colorspace.srgb_to_lab",
    ("colorspace", "ciede2000"): "colorspace.ciede2000",
    ("observe", "observe"): "observe.observe",
    ("observe", "grid_de00_per_pixel"): "observe.grid_de00_per_pixel",
    ("observe", "grid_de00_mean_pixel"): "observe.grid_de00_mean_pixel",
    ("observe", "masked_mean_color"): "observe.masked_mean_color",
    ("observe", "render_ppm"): "observe.render_ppm",
    ("observe", "ColorGrid.to_json_dict"): "observe.ColorGrid.json",
    ("observe", "ColorGrid.from_json_dict"): "observe.ColorGrid.json",
    ("observe", "ColorGrid.save"): "observe.ColorGrid.json",
    ("observe", "ColorGrid.load"): "observe.ColorGrid.json",
    ("intervene", "apply_intervention"): "intervene.apply_intervention",
    ("intervene", "type1"): "intervene.type1",
    ("intervene", "type2"): "intervene.type2",
    ("intervene", "interpolated"): "intervene.interpolated",
    ("intervene", "PatchMask.__post_init__"): "intervene.PatchMask",
    ("intervene", "PatchMask.indices"): "intervene.PatchMask",
    ("intervene", "PatchMask.to_json_dict"): "intervene.PatchMask",
    ("intervene", "load_mask"): "intervene.load_mask",
    ("toyflow", "generate"): "toyflow.generate",
    ("toyflow", "embed_image"): "toyflow.embed_image",
    ("toyflow", "make_probe_set"): "toyflow.make_probe_set",
    ("toyflow", "ToyEmbedder.create"): "toyflow.ToyEmbedder",
    ("cli", "build_parser"): "cli.build_parser",
    ("cli", "main"): "cli.main",
    ("cli", "cmd_fit"): "cli.fit",
    ("cli", "cmd_simulate"): "cli.simulate",
    ("cli", "cmd_stats"): "cli.stats",
    ("cli", "cmd_observe"): "cli.observe",
    ("cli", "cmd_intervene"): "cli.intervene",
    ("cli", "cmd_eval"): "cli.eval",
}

MODULES = ("tensorio", "subspace", "timestats", "bicone", "colorspace", "observe", "intervene", "toyflow", "cli")

OP = "op"  # root span of one benchmark op; its self time is benchmark glue
SETUP = -1  # op id of spans recorded while the world is set up


def _patch_count(args, kwargs) -> int:
    # decode/encode take one 3-vector (or HslColor) per patch today; count
    # the rows of an (n, 3) block so that a batched version is comparable
    a = args[0] if args else next(iter(kwargs.values()))
    shape = np.shape(a)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _file_size(args, kwargs) -> int:
    path = args[0] if args else next(iter(kwargs.values()))
    return os.path.getsize(path)


def _data_size(args, kwargs) -> int:
    return len(args[1] if len(args) > 1 else kwargs["data"])


# What a call of these functions counts, measured after its span ends;
# a call nested in a span of its own layer adds nothing.
MEASURES = {
    ("bicone", "decode"): _patch_count,
    ("bicone", "decode_raw"): _patch_count,
    ("bicone", "encode"): _patch_count,
    ("tensorio", "read_latents"): _file_size,
    ("tensorio", "read_json"): _file_size,
    ("tensorio", "atomic_write_bytes"): _data_size,
}
COUNTER_OF_LAYER = {
    "bicone.decode": "bicone.decode.patches",
    "bicone.encode": "bicone.encode.patches",
    "tensorio.read_latents": "tensorio.bytes_read",
    "tensorio.json": "tensorio.bytes_read",
    "tensorio.atomic_write": "tensorio.bytes_written",
}


class Recorder:
    """Spans in parallel arrays plus named counters, all in memory."""

    def __init__(self) -> None:
        self.names: list[str] = [OP, *dict.fromkeys(LAYERS.values())]  # absent functions read 0
        self.layer: array = array("i")
        self.parent: array = array("i")
        self.op: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.count: array = array("q")
        self.stack: list[int] = [-1]
        self.current_op = SETUP

    def layer_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def __len__(self) -> int:
        return len(self.layer)

    def span(self, fn, layer: int, measure=None):
        """Wrap fn so each call records one span of the given layer."""
        layers, parents, ops, starts, ends = self.layer, self.parent, self.op, self.start, self.end
        counts, stack, clock = self.count, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(layers)
            layers.append(layer)
            parents.append(stack[-1])
            ops.append(self.current_op)
            ends.append(0.0)
            counts.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                p = parents[i]
                if measure is not None and (p < 0 or layers[p] != layer):
                    counts[i] = measure(args, kwargs)

        return traced

    def run_op(self, op_id: int, fn, *args):
        """Run one benchmark op under a root span."""
        self.current_op = op_id
        try:
            return self.span(fn, 0)(*args)
        finally:
            self.current_op = SETUP

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "layer": np.frombuffer(self.layer, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "count": np.frombuffer(self.count, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        """Write every span and the layer names to one .npz file."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_table(self, op_ids, scale=None) -> dict[str, dict[str, float]]:
        """Self time (s), calls and counter total per layer over spans of the given ops.

        scale, if given, maps op id to a factor applied to the times of
        that op's spans (the benchmark's host-speed correction).
        """
        a = self.arrays()
        n = len(a["layer"])
        dur = a["end"] - a["start"]
        if scale:
            ids = np.array(sorted(scale), dtype=np.int32)
            factors = np.array([scale[i] for i in ids])
            pos = np.clip(np.searchsorted(ids, a["op"]), 0, len(ids) - 1)
            dur = dur * np.where(ids[pos] == a["op"], factors[pos], 1.0)
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - covered
        nested = np.zeros(n, dtype=bool)
        nested[has_parent] = a["layer"][a["parent"][has_parent]] == a["layer"][has_parent]
        keep = np.isin(a["op"], np.asarray(list(op_ids), dtype=np.int32))
        table = {}
        for lid, name in enumerate(self.names):
            sel = keep & (a["layer"] == lid)
            table[name] = {
                "self_s": float(self_time[sel].sum()),
                "calls": int(np.count_nonzero(sel & ~nested)),
                "inclusive_s": float(dur[sel & ~nested].sum()),
                "count": int(a["count"][sel].sum()),
            }
        return table


class Tracer:
    """Installs span wrappers into the latentcolor modules and removes them."""

    def __init__(self, recorder: Recorder, package: str = "latentcolor") -> None:
        self.recorder = recorder
        self.package = package
        self._undo: list[tuple[object, str, object]] = []

    def _targets(self):
        for (mod, path), layer in LAYERS.items():
            module = sys.modules.get(f"{self.package}.{mod}")
            if module is None:
                continue
            owner, _, attr = path.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            if holder is None or attr not in vars(holder):
                continue  # the function is gone or renamed; the layer reads 0
            yield holder, attr, layer, MEASURES.get((mod, path))

    def install(self) -> None:
        rec = self.recorder
        modules = [m for name, m in sys.modules.items() if name == self.package or name.startswith(self.package + ".")]
        for holder, attr, layer, measure in self._targets():
            raw = vars(holder)[attr]
            lid = rec.layer_id(layer)
            if isinstance(holder, type):
                if isinstance(raw, classmethod):
                    wrapped = classmethod(rec.span(raw.__func__, lid, measure))
                elif isinstance(raw, property):
                    wrapped = property(rec.span(raw.fget, lid, measure))
                else:
                    wrapped = rec.span(raw, lid, measure)
                self._undo.append((holder, attr, raw))
                setattr(holder, attr, wrapped)
                continue
            wrapped = rec.span(raw, lid, measure)
            # rebind the function in every module that imported it by name
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is raw:
                        self._undo.append((m, key, raw))
                        setattr(m, key, wrapped)

    def remove(self) -> None:
        while self._undo:
            holder, attr, raw = self._undo.pop()
            setattr(holder, attr, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()
