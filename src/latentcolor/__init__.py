"""Color geometry of patch-latent spaces.

Discovers the 3-D subspace in which a latent space organizes color,
parameterizes it with an HSL-like bicone built from probe anchors,
corrects per-timestep drift and spread of flow trajectories, and uses
all of that to observe and steer colors mid-generation. A seeded toy
flow model with known geometry backs the test suite end to end.
"""

from .colorspace import HslColor, LabColor, ciede2000, parse_hex, rgb_to_hsl
from .subspace import SubspaceModel, average_patches, fit_pca, project
from .bicone import AnchorSet, build_anchors, decode, decode_raw, encode
from .timestats import StatsTable, builtin_flux_stats, fit_stats, normalize
from .intervene import (
    PatchMask,
    apply_intervention,
    interpolated,
    type1,
    type2,
)
from .observe import (
    ColorGrid,
    grid_de00_mean_pixel,
    grid_de00_per_pixel,
    observe,
    render_ppm,
)
from .toyflow import (
    TIMESTEP_PALETTE,
    AttractorField,
    ToyEmbedder,
    embed_image,
    generate,
    initial_noise,
    make_probe_set,
    sample_path,
    solid_attractor,
    toy_decode,
)
from .tensorio import read_latents, write_latents

__version__ = "0.1.0"
