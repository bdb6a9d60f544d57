"""The package's public names and each module's __all__, pinned so that any change to the API shows in review."""

import importlib
import pkgutil
import types

import pytest

import latentcolor

PUBLIC_NAMES = [
    "AnchorSet", "AttractorField", "ColorGrid", "HslColor", "LabColor", "PatchMask", "StatsTable",
    "SubspaceModel", "TIMESTEP_PALETTE", "ToyEmbedder", "apply_intervention", "average_patches", "build_anchors",
    "builtin_flux_stats", "ciede2000", "decode", "decode_raw", "embed_image", "encode", "fit_pca", "fit_stats",
    "generate", "grid_de00_mean_pixel", "grid_de00_per_pixel", "initial_noise", "interpolated",
    "make_probe_set", "normalize", "observe", "parse_hex", "project",
    "read_latents", "render_ppm", "rgb_to_hsl", "sample_path", "solid_attractor", "toy_decode",
    "type1", "type2", "write_latents",
]

MODULE_ALL = {
    "bicone": ["HUE_LABELS", "HUE_DEGREES", "AnchorSet", "build_anchors", "decode", "decode_raw", "encode"],
    "colorspace": [
        "HslColor", "LabColor", "parse_hex", "rgb_to_hsl", "ciede2000", "signed_hue_delta", "circular_mean_hue",
        "canonical_hsl", "rgb_to_hsl_array", "hsl_to_rgb_array", "srgb_to_linear_array", "linear_to_srgb_array",
        "linear_rgb_to_lab_array", "ciede2000_array",
    ],
    "intervene": ["PatchMask", "type1", "type2", "interpolated", "apply_intervention"],
    "observe": [
        "ColorGrid", "observe", "grid_de00_per_pixel", "grid_de00_mean_pixel", "mean_color", "render_ppm",
    ],
    "subspace": ["SubspaceModel", "average_patches", "fit_pca", "project"],
    "tensorio": [
        "atomic_write_bytes", "write_json", "JsonRecord", "float_array", "write_latents", "read_latents",
        "save_trajectory",
    ],
    "timestats": ["StatsTable", "builtin_flux_stats", "fit_stats", "normalize"],
    "toyflow": [
        "TIMESTEP_PALETTE", "ToyEmbedder", "AttractorField", "embed_image", "toy_decode", "make_probe_set",
        "solid_attractor", "initial_noise", "sample_path", "generate",
    ],
}


def test_public_names_are_pinned():
    names = sorted(
        name for name, value in vars(latentcolor).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES


@pytest.mark.parametrize("module", sorted(MODULE_ALL))
def test_module_all_is_pinned_and_defined(module):
    mod = importlib.import_module(f"latentcolor.{module}")
    assert mod.__all__ == MODULE_ALL[module]
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_every_module_with_an_all_is_pinned():
    modules = [m.name for m in pkgutil.iter_modules(latentcolor.__path__) if m.name != "__main__"]  # that one runs main
    assert {m for m in modules if hasattr(importlib.import_module(f"latentcolor.{m}"), "__all__")} == set(MODULE_ALL)
