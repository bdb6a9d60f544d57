"""Color types and conversions: sRGB, HSL, CIELAB, CIEDE2000.

Hue is in degrees and wraps to [0, 360); saturation, lightness, and RGB
channels live in [0, 1]. Lab uses the D65 white point with the 2 degree
observer, matching the sRGB primaries.

Each conversion exists once, as an ``*_array`` kernel (plus
``canonical_hsl``) that takes a float array whose last axis holds one
color, such as an (n, 3) block or an (H, W, 3) grid. The frozen color
dataclasses carry single colors at the edges of the API; ``rgb_to_hsl``
gives one HslColor of three sRGB channels, and ``ciede2000`` compares two
LabColors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HslColor",
    "LabColor",
    "parse_hex",
    "rgb_to_hsl",
    "ciede2000",
    "signed_hue_delta",
    "circular_mean_hue",
    "canonical_hsl",
    "rgb_to_hsl_array",
    "hsl_to_rgb_array",
    "srgb_to_linear_array",
    "linear_to_srgb_array",
    "linear_rgb_to_lab_array",
    "ciede2000_array",
]


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


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


def parse_hex(text: str) -> np.ndarray:
    """Parse '#RRGGBB' (one leading '#' optional) into the sRGB channels (r, g, b) / 255."""
    s = text.strip().removeprefix("#")
    if len(s) != 6 or any(c not in "0123456789abcdefABCDEF" for c in s):
        raise ValueError(f"expected 6 hex digits, got {text!r}")
    return np.array([int(s[0:2], 16), int(s[2:4], 16), int(s[4:6], 16)]) / 255.0


def rgb_to_hsl(rgb) -> HslColor:
    """rgb_to_hsl_array on one color's three sRGB channels."""
    return HslColor(*rgb_to_hsl_array(rgb).tolist())


def ciede2000(x: LabColor, y: LabColor) -> float:
    """ciede2000_array between two colors."""
    return float(ciede2000_array((x.L, x.a, x.b), (y.L, y.a, y.b)))


# ---------------------------------------------------------------------------
# Hue arithmetic
# ---------------------------------------------------------------------------

def signed_hue_delta(a: float, b: float) -> float:
    """Minimal signed hue difference a - b, in (-180, 180]."""
    d = (a - b) % 360.0
    if d > 180.0:
        d -= 360.0
    return d


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
# The per-color versions in tests/colorref.py are the reference. On a 64x64
# grid a kernel costs what its numpy passes over the rows cost, so:
# - The HSL kernels (and bicone's decode_raw) use + - * /, floor, abs,
#   comparisons and gathers, and match the reference bit for bit. numpy's
#   float % and searchsorted cost several plain ufuncs each, so they give
#   way to what yields the same bits on the known input range: x + c * (x < 0)
#   for x % c with x > -c, hp - 2 floor(hp / 2) for hp % 2, a count of
#   passed edges for searchsorted, one flat take for the sextant's channels.
# - The transfer, Lab and CIEDE2000 kernels match to 1e-12: numpy's pow,
#   cbrt, atan2, tan and exp may differ from the C library's in the last
#   bits. Lab takes cbrt for t ** (1/3); ciede2000_array takes sqrt(a a + b b)
#   for hypot, products for powers and radians for degrees, and each sine
#   and cosine from a half-angle tangent, as numpy's sin and cos run as
#   scalar loops several times slower than its tan.
# - An (n, 3) op with a (3,) vector runs n inner loops of length 3, and
#   numpy's SIMD loops for atan2, tan and the like fall back to scalar code on
#   a strided column. So the kernels compute on contiguous (3, ...) channel
#   planes, as the read path (observe) keeps its colors; a public *_array
#   function splits the last axis of its (..., 3) colors and restacks.
# - A chain of ops writes in place (+=, out=) over temporaries the kernel made,
#   never over its inputs, with the formula's operations and grouping, so no
#   bit moves. One color's planes are numpy scalars; _over gives them fresh ones.

# IEC 61966-2-1 sRGB to XYZ (D65) matrix rows.
_M_XYZ = (
    (0.4124564, 0.3575761, 0.1804375),
    (0.2126729, 0.7151522, 0.0721750),
    (0.0193339, 0.1191920, 0.9503041),
)
# White point = matrix row sums so that sRGB white maps exactly to L*=100, a*=b*=0.
_WHITE = tuple(sum(row) for row in _M_XYZ)

# hsl_to_rgb_array's sextants: which of (chroma, x, 0) feeds r, g and b
_SEXTANT_CHANNELS = np.array([[0, 1, 2], [1, 0, 2], [2, 0, 1], [2, 1, 0], [1, 2, 0], [0, 2, 1]])


# The adapters move axes by a plain transpose: np.moveaxis gives the same layout at several times
# the per-call cost, which a report on a few colours pays on every kernel call.
def _to_planes(colors) -> np.ndarray:
    """(..., 3) colors as contiguous (3, ...) channel planes."""
    a = np.asarray(colors, dtype=np.float64)
    return np.ascontiguousarray(a.transpose(a.ndim - 1, *range(a.ndim - 1)))


def _from_planes(planes: np.ndarray) -> np.ndarray:
    """(3, ...) channel planes restacked as contiguous (..., 3) colors."""
    return planes.transpose(*range(1, planes.ndim), 0).copy()


def _clamp01_array(x: np.ndarray) -> np.ndarray:
    # keeps NaN and -0.0 as _clamp01 does
    return np.where(x < 0.0, 0.0, np.where(x > 1.0, 1.0, x))


def _canonical(hsl: np.ndarray) -> np.ndarray:
    """canonical_hsl on (3, ...) planes."""
    out = hsl.copy()
    h = out[:1]  # a view also when hsl holds one color
    np.remainder(h, 360.0, out=h, where=~((h > 0.0) & (h < 360.0)))  # zeros too: -0.0 % 360.0 is +0.0
    h[h == 360.0] = 0.0  # tiny negative hues round up to 360.0
    out[1:] = _clamp01_array(out[1:])
    return out


def canonical_hsl(hsl) -> np.ndarray:
    """What HslColor does to each (h, s, l): wrap hue mod 360, clamp s and l to [0, 1]."""
    return _from_planes(_canonical(_to_planes(hsl)))


def _dot3(cols, v) -> np.ndarray:
    # cols[0] v[0] + cols[1] v[1] + cols[2] v[2], written out so that a row does not depend on the batch size
    out = cols[0] * v[0]
    out += cols[1] * v[1]
    out += cols[2] * v[2]
    return out


def _over(t):
    # out=t over the kernel's own temporary t; None (a new scalar) for one color's scalar, cheaper than any array
    return t if t.ndim else None


def _hsl_to_rgb(hsl: np.ndarray) -> np.ndarray:
    """hsl_to_rgb_array on (3, ...) planes."""
    h, s, l = hsl
    cand = np.empty(hsl.shape)  # what each channel picks from: chroma + m, x + m and m
    chroma = np.multiply(l, 2.0, out=_over(cand[0]))  # chroma = (1 - |2 l - 1|) s
    chroma -= 1.0
    chroma = np.subtract(1.0, np.abs(chroma, out=_over(chroma)), out=_over(chroma))
    chroma *= s
    hp = h / 60.0
    x = np.floor(np.divide(hp, 2.0, out=_over(cand[1])), out=_over(cand[1]))  # x = chroma (1 - |hp mod 2 - 1|)
    x *= 2.0  # with hp mod 2 = hp - 2 floor(hp / 2)
    x = np.subtract(hp, x, out=_over(x))
    x -= 1.0
    x = np.subtract(1.0, np.abs(x, out=_over(x)), out=_over(x))
    x *= chroma
    m = np.subtract(l, np.divide(chroma, 2.0, out=_over(cand[2])), out=_over(cand[2]))  # m = l - chroma / 2
    chroma += m
    x += m
    cand[0], cand[1], cand[2] = chroma, x, m  # stores one color's scalars; array planes are in cand already
    hp = np.fmin(hp, 5.0, out=_over(hp))
    sextant = np.fmax(hp, 0.0, out=_over(hp)).astype(np.intp).reshape(-1)  # NaN gives 5, the last sextant
    # each channel takes chroma, x or 0, plus m, by one flat take over the three candidate planes
    picks = (_SEXTANT_CHANNELS.T * sextant.size).take(sextant, axis=1)
    picks += np.arange(sextant.size)
    rgb = cand.take(picks).reshape(hsl.shape)
    return np.clip(rgb, 0.0, 1.0, out=rgb)


def hsl_to_rgb_array(hsl) -> np.ndarray:
    """sRGB of canonical (h, s, l) rows in the hexcone model; RGB is clamped to [0, 1]."""
    return _from_planes(_hsl_to_rgb(_to_planes(hsl)))


def rgb_to_hsl_array(rgb) -> np.ndarray:
    """Canonical (h, s, l) of sRGB rows, each channel clamped to [0, 1] first; greys get h = s = 0."""
    rgb = _clamp01_array(np.asarray(rgb, dtype=np.float64))
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    # the first of equal channels wins, as in max() and min(): it keeps a -0.0 in l
    mx = np.where(g > r, g, r)
    mx = np.where(b > mx, b, mx)
    mn = np.where(g < r, g, r)
    mn = np.where(b < mn, b, mn)
    l = (mx + mn) / 2.0
    d = mx - mn
    grey = mx == mn
    with np.errstate(divide="ignore", invalid="ignore"):  # greys divide by d = 0
        s = d / np.where(l > 0.5, 2.0 - mx - mn, mx + mn)
        hr = (g - b) / d
        hp = np.where(mx == r, hr + 6.0 * (hr < 0.0), np.where(mx == g, (b - r) / d + 2.0, (r - g) / d + 4.0))
    h = 60.0 * hp
    h = np.where(grey | (h == 360.0), 0.0, h)  # a hue that rounds up to 360 wraps to 0
    return np.stack([h, np.where(grey, 0.0, _clamp01_array(s)), l], axis=-1)


def srgb_to_linear_array(rgb) -> np.ndarray:
    """Undo the sRGB transfer function on every channel."""
    x = np.asarray(rgb, dtype=np.float64)
    lin = np.asarray(x / 12.92)  # 0-d when x is
    np.power((x + 0.055) / 1.055, 2.4, out=lin, where=x > 0.04045)  # pow only where it is needed
    return lin


def linear_to_srgb_array(lin) -> np.ndarray:
    """Apply the sRGB transfer function to every linear channel."""
    x = np.asarray(lin, dtype=np.float64)
    above = x > 0.0031308
    y = np.asarray(12.92 * x)  # 0-d when x is
    np.power(x, 1.0 / 2.4, out=y, where=above)  # pow only where it is needed
    return np.where(above, 1.055 * y - 0.055, y)


def _linear_to_lab(lin: np.ndarray) -> np.ndarray:
    """linear_rgb_to_lab_array on (3, ...) planes."""
    r, g, b = lin
    lab = np.empty(lin.shape)  # L*, a* and b*, made in place from f(Y), f(X) and f(Z)
    f = []
    for k, m, w in zip((1, 0, 2), _M_XYZ, _WHITE):
        t = _dot3(lin, m)  # (m0 r + m1 g + m2 b) / w
        t /= w
        # f = (24389 / 27 t + 16) / 116, or the CIE 1976 cube root above the toe at (6/29)^3
        ft = np.multiply(t, 24389.0 / 27.0, out=_over(lab[k]))
        ft += 16.0
        ft /= 116.0
        ft = np.asarray(ft)  # 0-d for one color, and [()] makes that a scalar again
        np.cbrt(t, out=ft, where=t > 216.0 / 24389.0)
        f.append(ft[()])
    fx, fy, fz = f
    fx -= fy  # a* = 500 (fx - fy)
    fx *= 500.0
    fz = np.subtract(fy, fz, out=_over(fz))  # b* = 200 (fy - fz)
    fz *= 200.0
    fy *= 116.0  # L* = 116 fy - 16
    fy -= 16.0
    lab[0], lab[1], lab[2] = fy, fx, fz  # stores one color's values; array planes are in lab already
    # the formula leaves rounding noise in a grey's a* and b*, which CIEDE2000's hue terms amplify
    np.copyto(lab[1:], 0.0, where=(r == g) & (g == b))
    return lab


def linear_rgb_to_lab_array(lin) -> np.ndarray:
    """CIELAB of (r, g, b) rows of linear RGB (D65); greys get a* = b* = 0 exactly."""
    return _from_planes(_linear_to_lab(_to_planes(lin)))


# CIEDE2000's T = 1 - 0.17 cos(h - 30) + 0.24 cos(2h) + 0.32 cos(3h + 6) - 0.20 cos(4h - 63) sums
# a_k cos(kh) + b_k sin(kh), k = 1..4, with a_k = w cos(phi), b_k = -w sin(phi). With c = cos h, the
# multiple-angle identities give cos(kh) = c, 2c^2 - 1, 4c^3 - 3c, 8c^4 - 8c^2 + 1 and
# sin(kh) / sin(h) = 1, 2c, 4c^2 - 1, 8c^3 - 4c, so T = P(c) + sin(h) Q(c).
_A, _B = zip(*((w * math.cos(math.radians(p)), -w * math.sin(math.radians(p)))
               for w, p in ((-0.17, -30.0), (0.24, 0.0), (0.32, 6.0), (-0.20, -63.0))))
_T_COS = (1.0 - _A[1] + _A[3], _A[0] - 3.0 * _A[2], 2.0 * _A[1] - 8.0 * _A[3], 4.0 * _A[2], 8.0 * _A[3])
_T_SIN = (_B[0] - _B[2], 2.0 * _B[1] - 4.0 * _B[3], 4.0 * _B[2], 8.0 * _B[3])
# the blue-region rotation's Gaussian in hue: centre 275 degrees, width 25 degrees
_ROT_CENTRE, _ROT_WIDTH = math.radians(275.0), math.radians(25.0)
_TAU = 2.0 * math.pi


def _ciede_t(hbp: np.ndarray) -> np.ndarray:
    """CIEDE2000's T term at mean hue hbp in radians."""
    u = np.tan(hbp / 2.0)  # cos h = (1 - u^2) / (1 + u^2), sin h = 2u / (1 + u^2)
    uu = u * u
    w = 1.0 / (1.0 + uu)
    c, a, b = (1.0 - uu) * w, _T_COS, _T_SIN
    p = (((a[4] * c + a[3]) * c + a[2]) * c + a[1]) * c + a[0]
    q = ((b[3] * c + b[2]) * c + b[1]) * c + b[0]
    return p + (2.0 * u * w) * q


def ciede2000_array(x, y) -> np.ndarray:
    """CIEDE2000 between broadcast rows of (L, a, b), with the blue-region hue rotation term.

    Matches the published verification dataset to 1e-4.
    """
    return _ciede2000(_to_planes(x), _to_planes(y))


def _chroma(a: np.ndarray, bb: np.ndarray) -> np.ndarray:
    """sqrt(a a + bb), written over a fresh a a."""
    t = a * a
    t += bb
    return np.sqrt(t, out=_over(t))


def _rc(c: np.ndarray) -> np.ndarray:
    """sqrt(c^7 / (c^7 + 25^7)), with c^7 as (c c c)^2 c: ** 7 is a slow pow."""
    p = c * c
    p *= c
    p *= p
    p *= c
    p /= p + 25.0 ** 7
    return np.sqrt(p, out=_over(p))


def _ciede2000(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """ciede2000_array between broadcast (3, ...) planes of (L, a, b)."""
    L1, a1, b1 = x
    L2, a2, b2 = y
    bb1, bb2 = b1 * b1, b2 * b2
    c_bar = _chroma(a1, bb1) + _chroma(a2, bb2)  # the broadcast shape
    c_bar /= 2.0
    g1 = _rc(c_bar)  # 1 + G = 1.5 - 0.5 rc(c_bar)
    g1 = np.subtract(1.5, np.multiply(g1, 0.5, out=_over(g1)), out=_over(g1))
    a1p, a2p = g1 * a1, g1
    a2p *= a2
    c1p, c2p = _chroma(a1p, bb1), _chroma(a2p, bb2)
    h1p, h2p = np.arctan2(b1, a1p), np.arctan2(b2, a2p)  # hues in radians, moved into [0, 2 pi]
    h1p += _TAU * (h1p < 0.0)
    h2p += _TAU * (h2p < 0.0)
    # Where a color has no chroma, dH' is 0. The mean hue, set to h1' + h2' there, then has no
    # effect: it enters only through S_H and R_T, and both scale dH'. So no hue needs its own case.
    dhp, hsum = h2p - h1p, h1p
    hsum += h2p
    # dh' wraps by 2 pi, and the mean hue crosses hue 0, where dh' turns against a1 b2 - b1 a2. Near pi
    # atan2's last bits cannot tell the side, while that sign has the same bits in any implementation.
    # Antiparallel chroma (cross product 0) takes the plain branch; |dh'| <= pi / 2 never wraps.
    cross = a1 * b2
    cross -= b1 * a2
    cross *= dhp
    far = np.abs(dhp) > np.pi / 2.0
    far &= cross < 0.0
    # v = tan(dh' / 4): sin(dh' / 2) = 2v / (1 + v^2); wrapping dh' by 2 pi flips v's sign
    v = np.tan(np.divide(dhp, 4.0, out=_over(dhp)), out=_over(dhp))
    dHp = c1p * c2p  # dH' = (far ? -4 : 4) sqrt(c1' c2') v / (1 + v^2)
    dHp = np.sqrt(dHp, out=_over(dHp))
    dHp *= np.where(far, -4.0, 4.0)
    dHp *= v
    v *= v
    v += 1.0
    dHp /= v
    hbp = np.where(hsum < _TAU, _TAU, -_TAU)[()]  # a 0-d where() for one color gives a scalar
    hbp *= far  # hbp = (h1' + h2' + far (h1' + h2' < 2 pi ? 2 pi : -2 pi)) / 2
    hbp += hsum
    hbp /= 2.0

    Lbp = (L1 + L2) / 2.0
    Cbp = (c1p + c2p) / 2.0
    l50 = (Lbp - 50.0) ** 2
    sL = 1.0 + 0.015 * l50 / np.sqrt(20.0 + l50)
    sC = 1.0 + 0.045 * Cbp
    sH = 1.0 + 0.015 * Cbp * _ciede_t(hbp)
    # rT = -rC sin(2 d_theta) with d_theta = 30 degrees exp(-((hbp - 275) / 25)^2), from w = tan(d_theta)
    w = np.tan(math.pi / 6.0 * np.exp(-(((hbp - _ROT_CENTRE) / _ROT_WIDTH) ** 2)))
    rT = -4.0 * _rc(Cbp) * w / (1.0 + w * w)
    tL = (L2 - L1) / sL
    tC = (c2p - c1p) / sC
    tH = dHp / sH
    return np.sqrt(tL * tL + tC * tC + (tH + rT * tC) * tH)
