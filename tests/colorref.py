"""Per-color reference conversions, written with the math module.

These are the scalar versions of the colorspace array kernels: one color
in, one color out, with every branch spelled out. An RGB color is an
(r, g, b) tuple of floats. The kernel tests compare against them, bit
for bit where a kernel does the same arithmetic elementwise and to
rounding error where numpy's pow, atan2 and exp stand in for the C
library's.
"""

from __future__ import annotations

import math

from latentcolor.colorspace import HslColor, LabColor


# ---------------------------------------------------------------------------
# RGB <-> HSL (hexcone model)
# ---------------------------------------------------------------------------

def clamp01(x: float) -> float:
    """x clamped to [0, 1]; NaN and -0.0 pass through."""
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


def rgb_to_hsl(rgb) -> HslColor:
    """Convert sRGB, each channel clamped to [0, 1] first, to HSL. Achromatic inputs get hue 0 by convention."""
    r, g, b = (clamp01(float(v)) for v in rgb)
    mx = max(r, g, b)
    mn = min(r, g, b)
    l = (mx + mn) / 2.0
    if mx == mn:
        return HslColor(0.0, 0.0, l)
    d = mx - mn
    s = d / (2.0 - mx - mn) if l > 0.5 else d / (mx + mn)
    if mx == r:
        h = 60.0 * (((g - b) / d) % 6.0)
    elif mx == g:
        h = 60.0 * ((b - r) / d + 2.0)
    else:
        h = 60.0 * ((r - g) / d + 4.0)
    return HslColor(h, s, l)


def hsl_to_rgb(c: HslColor) -> tuple[float, float, float]:
    """Convert HSL to sRGB, each channel clamped to [0, 1]."""
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
    return clamp01(r + m), clamp01(g + m), clamp01(b + m)


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
    """Convert linear RGB (D65) to CIELAB; a grey (r = g = b) has a* = b* = 0 exactly."""
    xyz = tuple(m[0] * r + m[1] * g + m[2] * b for m in _M_XYZ)
    fx, fy, fz = (_lab_f(c / w) for c, w in zip(xyz, _WHITE))
    if r == g == b:
        # the formula leaves rounding noise in a* and b*, which CIEDE2000's hue terms amplify
        return LabColor(116.0 * fy - 16.0, 0.0, 0.0)
    return LabColor(116.0 * fy - 16.0, 500.0 * (fx - fy), 200.0 * (fy - fz))


def srgb_to_lab(rgb) -> LabColor:
    """Convert nonlinear sRGB to CIELAB."""
    return linear_rgb_to_lab(*(srgb_channel_to_linear(v) for v in rgb))


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

    # Near 180 degrees apart the last bits of atan2 would pick the branch, so the sign of the
    # unprimed cross product does: dh' wraps where it turns against it (Sharma's |dh'| > 180
    # elsewhere). Antiparallel chroma vectors (exactly complementary hues, cross product 0) take
    # the |dh'| <= 180 branch.
    dLp = y.L - x.L
    dCp = c2p - c1p
    far = False
    if c1p * c2p == 0.0:
        dhp = 0.0
    else:
        dhp = h2p - h1p
        far = abs(dhp) > 90.0 and dhp * (x.a * y.b - x.b * y.a) < 0.0
        if far:
            dhp -= math.copysign(360.0, dhp)
    dHp = 2.0 * math.sqrt(c1p * c2p) * math.sin(math.radians(dhp) / 2.0)

    Lbp = (x.L + y.L) / 2.0
    Cbp = (c1p + c2p) / 2.0
    if c1p * c2p == 0.0:
        hbp = h1p + h2p
    else:
        hsum = h1p + h2p
        if not far:
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
# Hue arithmetic
# ---------------------------------------------------------------------------

def circular_mean_hue(hues, weights) -> float:
    """Circular mean of hues in degrees, each unit vector times its weight, one hue at a time; 0 if they cancel
    (a resultant of at most 1e-12 of the weights' total)."""
    sx = sum(w * math.cos(math.radians(h)) for h, w in zip(hues, weights))
    sy = sum(w * math.sin(math.radians(h)) for h, w in zip(hues, weights))
    if math.hypot(sx, sy) <= 1e-12 * sum(abs(w) for w in weights):
        return 0.0
    h = math.degrees(math.atan2(sy, sx)) % 360.0
    return 0.0 if h == 360.0 else h
