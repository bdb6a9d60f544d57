"""The package's public names, pinned so that any change to the API shows in review."""

import types

import latentcolor

PUBLIC_NAMES = [
    "AnchorSet", "AttractorField", "ColorGrid", "HslColor", "LabColor", "PatchMask", "ProbeSet",
    "StatsTable", "SubspaceModel", "TIMESTEP_PALETTE", "ToyEmbedder", "apply_intervention", "average_patches",
    "build_anchors", "builtin_flux_stats", "ciede2000", "decode", "decode_raw", "embed_hsl",
    "embed_image", "encode", "fit_pca", "fit_stats", "gamma", "generate", "grid_de00_mean_pixel",
    "grid_de00_per_pixel", "initial_noise", "interpolated", "load_mask", "load_trajectory", "make_probe_set",
    "masked_mean_color", "normalize", "observe", "parse_hex", "project", "read_latents", "regular_anchors",
    "render_ppm", "rgb_to_hsl", "sample_path", "save_trajectory", "solid_attractor", "toy_decode", "type1",
    "type2", "write_latents",
]


def test_public_names_are_pinned():
    names = sorted(
        name for name, value in vars(latentcolor).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES
