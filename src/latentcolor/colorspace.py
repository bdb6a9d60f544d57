"""Color types and conversions: sRGB, HSL, CIELAB, CIEDE2000.

Hue is in degrees and wraps to [0, 360); saturation, lightness, and RGB
channels live in [0, 1]. Lab uses the D65 white point with the 2 degree
observer, matching the sRGB primaries.

Each conversion exists twice. The scalar functions take one color
dataclass and are the reference. The ``*_array`` kernels at the end take
float arrays whose last axis holds one color, such as an (n, 3) block or
an (H, W, 3) grid, and repeat the scalar arithmetic elementwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RgbColor",
    "HslColor",
    "LabColor",
    "HslError",
    "parse_hex",
    "rgb_to_hsl",
    "hsl_to_rgb",
    "hsv_to_hsl",
    "srgb_to_lab",
    "linear_rgb_to_lab",
    "srgb_channel_to_linear",
    "linear_channel_to_srgb",
    "ciede2000",
    "hsl_error",
    "signed_hue_delta",
    "circular_mean_hue",
    "canonical_hsl",
    "hsl_to_rgb_array",
    "srgb_to_linear_array",
    "linear_rgb_to_lab_array",
    "srgb_to_lab_array",
    "ciede2000_array",
]


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


@dataclass(frozen=True)
class RgbColor:
    """sRGB color; channels are clamped to [0, 1] on construction."""

    r: float
    g: float
    b: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", _clamp01(float(self.r)))
        object.__setattr__(self, "g", _clamp01(float(self.g)))
        object.__setattr__(self, "b", _clamp01(float(self.b)))

    @classmethod
    def from_8bit(cls, r: int, g: int, b: int) -> "RgbColor":
        return cls(r / 255.0, g / 255.0, b / 255.0)

    def to_8bit(self) -> tuple[int, int, int]:
        return (
            int(round(self.r * 255.0)),
            int(round(self.g * 255.0)),
            int(round(self.b * 255.0)),
        )


@dataclass(frozen=True)
class HslColor:
    """HSL color; hue wraps mod 360, saturation and lightness clamp to [0, 1]."""

    h: float
    s: float
    l: float

    def __post_init__(self) -> None:
        h = float(self.h) % 360.0
        if h == 360.0:  # -0.0 % 360.0 can yield 360.0 on some platforms
            h = 0.0
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "s", _clamp01(float(self.s)))
        object.__setattr__(self, "l", _clamp01(float(self.l)))


@dataclass(frozen=True)
class LabColor:
    """CIELAB color (L in [0, 100], a and b unbounded)."""

    L: float
    a: float
    b: float


@dataclass(frozen=True)
class HslError:
    """Componentwise HSL difference: dh in degrees [0, 180], ds/dl in [0, 1]."""

    dh: float
    ds: float
    dl: float


def parse_hex(text: str) -> RgbColor:
    """Parse '#RRGGBB' (leading '#' optional) into an RgbColor."""
    s = text.strip().lstrip("#")
    if len(s) != 6 or any(c not in "0123456789abcdefABCDEF" for c in s):
        raise ValueError(f"expected 6 hex digits, got {text!r}")
    return RgbColor.from_8bit(int(s[0:2], 16), int(s[2:4], 16), int(s[4:6], 16))


# ---------------------------------------------------------------------------
# RGB <-> HSL (hexcone model)
# ---------------------------------------------------------------------------

def rgb_to_hsl(c: RgbColor) -> HslColor:
    """Convert sRGB to HSL. Achromatic inputs get hue 0 by convention."""
    mx = max(c.r, c.g, c.b)
    mn = min(c.r, c.g, c.b)
    l = (mx + mn) / 2.0
    if mx == mn:
        return HslColor(0.0, 0.0, l)
    d = mx - mn
    s = d / (2.0 - mx - mn) if l > 0.5 else d / (mx + mn)
    if mx == c.r:
        h = 60.0 * (((c.g - c.b) / d) % 6.0)
    elif mx == c.g:
        h = 60.0 * ((c.b - c.r) / d + 2.0)
    else:
        h = 60.0 * ((c.r - c.g) / d + 4.0)
    return HslColor(h, s, l)


def hsl_to_rgb(c: HslColor) -> RgbColor:
    """Convert HSL to sRGB."""
    chroma = (1.0 - abs(2.0 * c.l - 1.0)) * c.s
    hp = c.h / 60.0
    x = chroma * (1.0 - abs(hp % 2.0 - 1.0))
    if hp < 1.0:
        r, g, b = chroma, x, 0.0
    elif hp < 2.0:
        r, g, b = x, chroma, 0.0
    elif hp < 3.0:
        r, g, b = 0.0, chroma, x
    elif hp < 4.0:
        r, g, b = 0.0, x, chroma
    elif hp < 5.0:
        r, g, b = x, 0.0, chroma
    else:
        r, g, b = chroma, 0.0, x
    m = c.l - chroma / 2.0
    return RgbColor(r + m, g + m, b + m)


def hsv_to_hsl(h: float, s: float, v: float) -> HslColor:
    """Convert an HSV triple to HslColor (used to sample probe colors)."""
    l = v * (1.0 - s / 2.0)
    if l <= 0.0 or l >= 1.0:
        sl = 0.0
    else:
        sl = (v - l) / min(l, 1.0 - l)
    return HslColor(h, sl, l)


# ---------------------------------------------------------------------------
# sRGB -> CIELAB
# ---------------------------------------------------------------------------

# IEC 61966-2-1 sRGB to XYZ (D65) matrix rows.
_M_XYZ = (
    (0.4124564, 0.3575761, 0.1804375),
    (0.2126729, 0.7151522, 0.0721750),
    (0.0193339, 0.1191920, 0.9503041),
)
# White point = matrix row sums so that sRGB white maps exactly to L*=100, a*=b*=0.
_WHITE = tuple(sum(row) for row in _M_XYZ)


def srgb_channel_to_linear(x: float) -> float:
    """Undo the sRGB transfer function for one channel."""
    if x <= 0.04045:
        return x / 12.92
    return ((x + 0.055) / 1.055) ** 2.4


def linear_channel_to_srgb(x: float) -> float:
    """Apply the sRGB transfer function to one linear channel."""
    if x <= 0.0031308:
        return 12.92 * x
    return 1.055 * x ** (1.0 / 2.4) - 0.055


def _lab_f(t: float) -> float:
    # CIE 1976 cube-root segment with the linear toe below (6/29)^3
    if t > 216.0 / 24389.0:
        return t ** (1.0 / 3.0)
    return (24389.0 / 27.0 * t + 16.0) / 116.0


def linear_rgb_to_lab(r: float, g: float, b: float) -> LabColor:
    """Convert linear RGB (D65) to CIELAB."""
    xyz = tuple(m[0] * r + m[1] * g + m[2] * b for m in _M_XYZ)
    fx, fy, fz = (_lab_f(c / w) for c, w in zip(xyz, _WHITE))
    return LabColor(116.0 * fy - 16.0, 500.0 * (fx - fy), 200.0 * (fy - fz))


def srgb_to_lab(c: RgbColor) -> LabColor:
    """Convert nonlinear sRGB to CIELAB."""
    return linear_rgb_to_lab(
        srgb_channel_to_linear(c.r),
        srgb_channel_to_linear(c.g),
        srgb_channel_to_linear(c.b),
    )


# ---------------------------------------------------------------------------
# CIEDE2000
# ---------------------------------------------------------------------------

def ciede2000(x: LabColor, y: LabColor) -> float:
    """CIEDE2000 color difference, including the blue-region hue rotation term.

    Matches the published verification dataset to 1e-4.
    """
    kL = kC = kH = 1.0
    c1 = math.hypot(x.a, x.b)
    c2 = math.hypot(y.a, y.b)
    c_bar = (c1 + c2) / 2.0
    c7 = c_bar ** 7
    g = 0.5 * (1.0 - math.sqrt(c7 / (c7 + 25.0 ** 7)))
    a1p = (1.0 + g) * x.a
    a2p = (1.0 + g) * y.a
    c1p = math.hypot(a1p, x.b)
    c2p = math.hypot(a2p, y.b)

    def hue_of(a: float, b: float) -> float:
        if a == 0.0 and b == 0.0:
            return 0.0
        return math.degrees(math.atan2(b, a)) % 360.0

    h1p = hue_of(a1p, x.b)
    h2p = hue_of(a2p, y.b)

    dLp = y.L - x.L
    dCp = c2p - c1p
    if c1p * c2p == 0.0:
        dhp = 0.0
    else:
        dhp = h2p - h1p
        if dhp > 180.0:
            dhp -= 360.0
        elif dhp < -180.0:
            dhp += 360.0
    dHp = 2.0 * math.sqrt(c1p * c2p) * math.sin(math.radians(dhp) / 2.0)

    Lbp = (x.L + y.L) / 2.0
    Cbp = (c1p + c2p) / 2.0
    if c1p * c2p == 0.0:
        hbp = h1p + h2p
    else:
        hsum = h1p + h2p
        if abs(h1p - h2p) <= 180.0:
            hbp = hsum / 2.0
        elif hsum < 360.0:
            hbp = (hsum + 360.0) / 2.0
        else:
            hbp = (hsum - 360.0) / 2.0

    t = (
        1.0
        - 0.17 * math.cos(math.radians(hbp - 30.0))
        + 0.24 * math.cos(math.radians(2.0 * hbp))
        + 0.32 * math.cos(math.radians(3.0 * hbp + 6.0))
        - 0.20 * math.cos(math.radians(4.0 * hbp - 63.0))
    )
    l50 = (Lbp - 50.0) ** 2
    sL = 1.0 + 0.015 * l50 / math.sqrt(20.0 + l50)
    sC = 1.0 + 0.045 * Cbp
    sH = 1.0 + 0.015 * Cbp * t
    d_theta = 30.0 * math.exp(-(((hbp - 275.0) / 25.0) ** 2))
    cbp7 = Cbp ** 7
    rC = 2.0 * math.sqrt(cbp7 / (cbp7 + 25.0 ** 7))
    rT = -rC * math.sin(math.radians(2.0 * d_theta))

    tL = dLp / (kL * sL)
    tC = dCp / (kC * sC)
    tH = dHp / (kH * sH)
    return math.sqrt(tL * tL + tC * tC + tH * tH + rT * tC * tH)


# ---------------------------------------------------------------------------
# HSL differences
# ---------------------------------------------------------------------------

def signed_hue_delta(a: float, b: float) -> float:
    """Minimal signed hue difference a - b, in (-180, 180]."""
    d = (a - b) % 360.0
    if d > 180.0:
        d -= 360.0
    return d


def hsl_error(a: HslColor, b: HslColor) -> HslError:
    """Componentwise error: circular hue distance plus absolute s and l gaps."""
    return HslError(abs(signed_hue_delta(a.h, b.h)), abs(a.s - b.s), abs(a.l - b.l))


def circular_mean_hue(hues) -> float:
    """Circular mean of hue angles in degrees, in [0, 360).

    Returns 0 when the directions cancel and no mean is defined.
    """
    sx = sum(math.cos(math.radians(h)) for h in hues)
    sy = sum(math.sin(math.radians(h)) for h in hues)
    if math.hypot(sx, sy) < 1e-12:
        return 0.0
    h = math.degrees(math.atan2(sy, sx)) % 360.0
    return 0.0 if h == 360.0 else h  # tiny negative angles round up to 360.0


# ---------------------------------------------------------------------------
# Array kernels
# ---------------------------------------------------------------------------
# canonical_hsl and hsl_to_rgb_array use only + - * / %, abs and
# comparisons, so they match their scalar counterparts bit for bit.
# numpy's vectorized pow, atan2, hypot and exp may differ from the C
# library's in the last bits, so the Lab and CIEDE2000 kernels match to
# rounding error instead.

# hsl_to_rgb's sextants: which of (chroma, x, 0) feeds r, g and b
_SEXTANT_EDGES = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
_SEXTANT_CHANNELS = np.array([[0, 1, 2], [1, 0, 2], [2, 0, 1], [2, 1, 0], [1, 2, 0], [0, 2, 1]])


def _clamp01_array(x: np.ndarray) -> np.ndarray:
    # keeps NaN and -0.0 as _clamp01 does
    return np.where(x < 0.0, 0.0, np.where(x > 1.0, 1.0, x))


def canonical_hsl(hsl) -> np.ndarray:
    """What HslColor does to each (h, s, l): wrap hue mod 360, clamp s and l to [0, 1]."""
    hsl = np.asarray(hsl, dtype=np.float64)
    h = hsl[..., 0] % 360.0
    h = np.where(h == 360.0, 0.0, h)  # tiny negative hues round up to 360.0
    return np.stack([h, _clamp01_array(hsl[..., 1]), _clamp01_array(hsl[..., 2])], axis=-1)


def hsl_to_rgb_array(hsl) -> np.ndarray:
    """hsl_to_rgb over canonical (h, s, l) rows; RGB is clamped to [0, 1]."""
    hsl = np.asarray(hsl, dtype=np.float64)
    h, s, l = hsl[..., 0], hsl[..., 1], hsl[..., 2]
    chroma = (1.0 - np.abs(2.0 * l - 1.0)) * s
    hp = h / 60.0
    x = chroma * (1.0 - np.abs(hp % 2.0 - 1.0))
    m = l - chroma / 2.0
    sextant = np.searchsorted(_SEXTANT_EDGES, hp, side="right")
    shifted = (chroma + m, x + m, m)  # chroma, x or 0, plus m
    rgb = np.empty(hsl.shape)
    for c in range(3):
        pick = _SEXTANT_CHANNELS[:, c].take(sextant)
        rgb[..., c] = np.where(pick == 0, shifted[0], np.where(pick == 1, shifted[1], shifted[2]))
    return np.clip(rgb, 0.0, 1.0, out=rgb)


def _power_where(base, exponent: float, cond, otherwise) -> np.ndarray:
    # base ** exponent where cond holds, else otherwise; pow runs only where needed
    out = np.asarray(otherwise)  # a fresh temporary; 0-d when the inputs are
    np.power(base, exponent, out=out, where=cond)
    return out


def srgb_to_linear_array(rgb) -> np.ndarray:
    """srgb_channel_to_linear on every channel."""
    x = np.asarray(rgb, dtype=np.float64)
    return _power_where((x + 0.055) / 1.055, 2.4, x > 0.04045, x / 12.92)


def linear_rgb_to_lab_array(lin) -> np.ndarray:
    """linear_rgb_to_lab over (r, g, b) rows of linear RGB."""
    lin = np.asarray(lin, dtype=np.float64)
    r, g, b = lin[..., 0], lin[..., 1], lin[..., 2]
    f = []
    for m, w in zip(_M_XYZ, _WHITE):
        t = (m[0] * r + m[1] * g + m[2] * b) / w
        f.append(_power_where(t, 1.0 / 3.0, t > 216.0 / 24389.0, (24389.0 / 27.0 * t + 16.0) / 116.0))
    fx, fy, fz = f
    return np.stack([116.0 * fy - 16.0, 500.0 * (fx - fy), 200.0 * (fy - fz)], axis=-1)


def srgb_to_lab_array(rgb) -> np.ndarray:
    """srgb_to_lab over (r, g, b) rows of nonlinear sRGB."""
    return linear_rgb_to_lab_array(srgb_to_linear_array(rgb))


def _lab_hue_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.where((a == 0.0) & (b == 0.0), 0.0, np.degrees(np.arctan2(b, a)) % 360.0)


def ciede2000_array(x, y) -> np.ndarray:
    """ciede2000 between broadcast rows of (L, a, b), term by term."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    L1, a1, b1 = x[..., 0], x[..., 1], x[..., 2]
    L2, a2, b2 = y[..., 0], y[..., 1], y[..., 2]
    c_bar = (np.hypot(a1, b1) + np.hypot(a2, b2)) / 2.0
    c7 = c_bar ** 7
    g = 0.5 * (1.0 - np.sqrt(c7 / (c7 + 25.0 ** 7)))
    a1p = (1.0 + g) * a1
    a2p = (1.0 + g) * a2
    c1p = np.hypot(a1p, b1)
    c2p = np.hypot(a2p, b2)
    h1p = _lab_hue_array(a1p, b1)
    h2p = _lab_hue_array(a2p, b2)
    achromatic = c1p * c2p == 0.0

    dLp = L2 - L1
    dCp = c2p - c1p
    dhp = h2p - h1p
    dhp = np.where(dhp > 180.0, dhp - 360.0, np.where(dhp < -180.0, dhp + 360.0, dhp))
    dhp = np.where(achromatic, 0.0, dhp)
    dHp = 2.0 * np.sqrt(c1p * c2p) * np.sin(np.radians(dhp) / 2.0)

    Lbp = (L1 + L2) / 2.0
    Cbp = (c1p + c2p) / 2.0
    hsum = h1p + h2p
    hbp = np.where(
        np.abs(h1p - h2p) <= 180.0,
        hsum / 2.0,
        np.where(hsum < 360.0, (hsum + 360.0) / 2.0, (hsum - 360.0) / 2.0),
    )
    hbp = np.where(achromatic, hsum, hbp)

    t = (
        1.0
        - 0.17 * np.cos(np.radians(hbp - 30.0))
        + 0.24 * np.cos(np.radians(2.0 * hbp))
        + 0.32 * np.cos(np.radians(3.0 * hbp + 6.0))
        - 0.20 * np.cos(np.radians(4.0 * hbp - 63.0))
    )
    l50 = (Lbp - 50.0) ** 2
    sL = 1.0 + 0.015 * l50 / np.sqrt(20.0 + l50)
    sC = 1.0 + 0.045 * Cbp
    sH = 1.0 + 0.015 * Cbp * t
    d_theta = 30.0 * np.exp(-(((hbp - 275.0) / 25.0) ** 2))
    cbp7 = Cbp ** 7
    rC = 2.0 * np.sqrt(cbp7 / (cbp7 + 25.0 ** 7))
    rT = -rC * np.sin(np.radians(2.0 * d_theta))

    tL = dLp / sL
    tC = dCp / sC
    tH = dHp / sH
    return np.sqrt(tL * tL + tC * tC + tH * tH + rT * tC * tH)
