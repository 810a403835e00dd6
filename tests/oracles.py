"""Quadrature oracles of the shock zone's scalar g- and h-functions.

``u_region3`` reads only their limits at infinity (``region3.g0_limit`` and
``region3.h1_limit``, in closed form); these evaluate g and h themselves
anywhere on the first sheet, so that the tests can check the jump relations,
the decay and the limits against them.
"""

import math

import numpy as np

from mchasy.errors import BoundaryAmbiguityError
from mchasy.numerics import quad, quad_band
from mchasy.region3 import _TIGHT, ShockGeometry, _j_band, _j_gap, _w_sheet1


def _w_abs(z, a, b):
    return np.sqrt(np.abs(z * z - a * a) * np.abs(z * z - b * b))


def _seg_w(a, b, lo, hi) -> float:
    """Positive integral of |w| over [lo, hi]."""
    return float(np.real(quad_band(
        lambda z: np.sqrt((z - lo) * (hi - z)) * _w_abs(z, a, b), lo, hi, _TIGHT).value))


def _sided(k: complex, geom: ShockGeometry, side: str, f) -> complex:
    # three-point Richardson continuation onto the cut from the chosen side
    d = 1e-3 * (geom.b - geom.a) * (1.0 if side == "+" else -1.0)
    f1, f2, f3 = f(k + 1j * d), f(k + 0.5j * d), f(k + 0.25j * d)
    return (8.0 * f3 - 6.0 * f2 + f1) / 3.0


def g_eval(geom: ShockGeometry, k, side: str | None = None) -> complex:
    """g(k) = -3q * int_b^k w + B1/4 on the first sheet.

    Real k in [-b, b] lies on the jump contour and needs ``side``; those
    boundary values come from exact one-sided segment reductions.
    """
    a, b, q = geom.a, geom.b, geom.q
    k = complex(k)
    x, y = k.real, k.imag
    if y != 0.0:
        dz = k - b

        def f(sig):
            z = b + dz * sig * sig
            return 2.0 * sig * dz * _w_sheet1(z, a, b)

        body = complex(quad(f, 0.0, 1.0, _TIGHT).value)
        return -3.0 * q * body + geom.B1 / 4.0
    if x >= b:
        return -3.0 * q * _seg_w(a, b, b, x) + geom.B1 / 4.0
    if x <= -b:
        # upper crossing: the two band legs contribute -+ i*J_band and cancel
        body = _j_gap(a, b) - _seg_w(a, b, x, -b)
        return -3.0 * q * body + geom.B1 / 4.0
    if side not in ("+", "-"):
        raise BoundaryAmbiguityError("g on [-b, b] needs side='+'/'-'")
    sgn = 1.0 if side == "+" else -1.0
    if x >= a:          # on (a, b)
        return sgn * 3j * q * _seg_w(a, b, x, b) + geom.B1 / 4.0
    if x > -a:          # on the gap: values differ by the full band period
        body = -sgn * 1j * _j_band(a, b) + _seg_w(a, b, x, a)
        return -3.0 * q * body + geom.B1 / 4.0
    # on (-b, -a)
    body = -sgn * 1j * _j_band(a, b) + _j_gap(a, b) \
        + sgn * 1j * _seg_w(a, b, x, -a)
    return -3.0 * q * body + geom.B1 / 4.0


def h_eval(geom: ShockGeometry, k, side: str | None = None) -> complex:
    """Auxiliary scalar h(k); O(1/k) at infinity, log-singular at 0.

    The whole segment [-b, b] is a jump contour of h, so real k there needs
    ``side``; the boundary value is obtained by short Richardson continuation
    from the requested half plane.
    """
    a, b, d0, C_R = geom.a, geom.b, geom.Delta0, geom.C_R
    k = complex(k)
    if k.imag == 0.0 and abs(k.real) <= b:
        if side not in ("+", "-"):
            raise BoundaryAmbiguityError("h on [-b, b] needs side='+'/'-'")
        return _sided(k, geom, side, lambda z: h_eval(geom, z))

    def f_band_right(z):
        return 1.0 / ((z - k) * np.sqrt((z + a) * (z + b)))

    def f_band_left(z):
        return 1.0 / ((z - k) * np.sqrt((a - z) * (b - z)))

    i_right = -1j * d0 * quad_band(f_band_right, a, b, _TIGHT).value
    i_left = -1j * d0 * quad_band(f_band_left, -b, -a, _TIGHT).value

    def f_gap(th):
        z = a * math.sin(th)
        lg = math.log(C_R) + 2.0 * math.log(max(abs(z), 1e-300))
        return lg / ((z - k) * math.sqrt(b * b - z * z))

    fv = np.vectorize(f_gap)
    # split at the log singularity so it is never a quadrature node
    i_gap = -1j * (complex(quad(fv, -0.5 * math.pi, 0.0, _TIGHT).value)
                   + complex(quad(fv, 0.0, 0.5 * math.pi, _TIGHT).value))
    return _w_sheet1(k, a, b) / (2j * math.pi) * (i_right + i_left + i_gap)
