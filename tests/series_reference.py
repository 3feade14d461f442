"""Pure-Python reference for the slice-series engine.

The loop-over-Quaternion-objects algorithms the array engine in
``qspec.sliceseries`` replaced, kept here so that tests can compare the
two.  They read a series only through its public fields (``center``,
``coefficients``) and return plain coefficients, values and numbers.
"""

from __future__ import annotations

import math

from qspec.qlinalg import QVector
from qspec.quat import SLICE_I, SLICE_J, SLICE_K, Quaternion, SliceUnit, slice_compose


def _is_vector(c) -> bool:
    return isinstance(c, QVector)


def _norm(c) -> float:
    return c.norm() if _is_vector(c) else abs(c)


def _right_mul(c, q: Quaternion):
    return c.times(q) if _is_vector(c) else c * q


def _zero(c):
    return QVector.zeros(c.n) if _is_vector(c) else Quaternion()


def _left_mul(q: Quaternion, v: QVector) -> QVector:
    """Entrywise left multiplication q * v_k: a scalar coefficient acting
    on a vector one (basis dependent)."""
    return QVector.from_quaternions([q * v.entry(k) for k in range(v.n)])


def slice_decompose(q: Quaternion) -> tuple[float, float, SliceUnit | None]:
    """Split q = x + y * I with y >= 0; a real q has no preferred axis and
    gives (w, 0.0, None)."""
    y = q.imag_norm()
    if y == 0.0:
        return (q.w, 0.0, None)
    return (q.w, y, SliceUnit(q.x / y, q.y / y, q.z / y))


def sigma_radius(coefficients) -> float:
    """The root test of ``sliceseries.sigma_radius``, one coefficient object
    at a time: 1 / max |a_n|^(1/n) over the second half."""
    mags = [_norm(c) for c in coefficients]
    inv = 0.0
    for n in range(max(1, int(len(mags) * 0.5)), len(mags)):
        if mags[n] > 0.0:
            inv = max(inv, mags[n] ** (1.0 / n))
    return math.inf if inv == 0.0 else 1.0 / inv


def monomial_coefficients(f) -> list:
    """C_m with f(q) = sum C_m q^m, one star convolution at a time."""
    if f.center == Quaternion():
        return list(f.coefficients)
    minus_p = -f.center
    out = [_zero(c) for c in f.coefficients]
    power = [Quaternion(1.0)]
    for a_n in f.coefficients:
        for m, b in enumerate(power):
            out[m] = out[m] + _right_mul(a_n, b)
        # convolve with (-p, 1): new[m] = power[m] * (-p) + power[m-1]
        power = ([power[0] * minus_p]
                 + [power[m] * minus_p + power[m - 1] for m in range(1, len(power))]
                 + [power[-1]])
    return out


def sum_monomials(mono: list, q: Quaternion):
    """sum_m C_m q^m, accumulated term by term."""
    acc = _zero(mono[0])
    power = Quaternion(1.0)
    for c_m in mono:
        acc = acc + _right_mul(c_m, power)
        power = power * q
    return acc


def star_coefficients(f, g) -> list:
    n = len(f.coefficients) + len(g.coefficients) - 1
    vec = next((c for c in (f.coefficients[0], g.coefficients[0]) if _is_vector(c)), None)
    coeffs = [_zero(vec) if vec is not None else Quaternion()] * n
    for k, a in enumerate(f.coefficients):
        for l, b in enumerate(g.coefficients):
            if _is_vector(a):
                term = a.times(b)
            elif _is_vector(b):
                term = _left_mul(a, b)
            else:
                term = a * b
            coeffs[k + l] = coeffs[k + l] + term
    return coeffs


def derivative_coefficients(f) -> list:
    if len(f.coefficients) == 1:
        return [_zero(f.coefficients[0])]
    return [a.scale(float(n)) if _is_vector(a) else a * float(n)
            for n, a in enumerate(f.coefficients[1:], start=1)]


def cr_residual(evaluate_at, points, h: float = 1e-4) -> float:
    worst = 0.0
    for q in points:
        _, _, unit = slice_decompose(q)
        if unit is None:
            unit = SLICE_I
        iq = slice_compose(0.0, 1.0, unit)
        step = iq * h
        fxp, fxm = evaluate_at(q + Quaternion(h)), evaluate_at(q - Quaternion(h))
        fyp, fym = evaluate_at(q + step), evaluate_at(q - step)
        if _is_vector(fxp):
            dx = (fxp - fxm).scale(0.5 / h)
            dy = (fyp - fym).scale(0.5 / h)
            worst = max(worst, (dx + dy.times(iq)).scale(0.5).norm())
        else:
            dx = (fxp - fxm) * (0.5 / h)
            dy = (fyp - fym) * (0.5 / h)
            worst = max(worst, abs((dx + dy * iq) * 0.5))
    return worst


def slice_samples(center: Quaternion, r: float) -> list:
    s3 = 1.0 / math.sqrt(3.0)
    out = [center]
    for unit in (SLICE_I, SLICE_J, SLICE_K, SliceUnit(s3, s3, s3)):
        for frac in (0.25, 0.5, 0.75, 1.0):
            for k in range(5):
                theta = math.pi * k / 4.0
                out.append(center + slice_compose(frac * r * math.cos(theta),
                                                  frac * r * math.sin(theta), unit))
    return out


def h_metric(evaluate_f, evaluate_g, center: Quaternion, radii) -> float:
    total = 0.0
    for n, r in enumerate(radii, start=1):
        s = 0.0
        for q in slice_samples(center, r):
            s = max(s, _norm(evaluate_f(q) - evaluate_g(q)))
        total += 2.0 ** (-n) * s / (1.0 + s)
    return total
