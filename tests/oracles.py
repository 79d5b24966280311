"""Slow reference computations that the package replaced with closed forms.

Each oracle computes a quantity the package also computes, by an
independent route: the polygon radius by bisection on the interior angle,
the polygon area by quadrature, and the relation Jacobian by central
finite differences (with its rank from the singular values).
"""
import cmath
import math

import numpy as np

from fuchsian.polygons import (
    HyperbolicPolygon,
    _triangle_angle,
    _vertices_at_radius,
    side_pairings,
)
from fuchsian.solver import coords_from_rep, matrices_from_values

FD_STEP = 1e-6


def bisection_radius(g: int) -> float:
    """Disk radius of the regular 4g-gon with angle sum 2*pi, by bisection.

    The interior angle of the regular n-gon decreases monotonically from its
    flat value pi - 2*pi/n toward 0 as the circumradius grows, so the
    bracket is certified.
    """
    n = 4 * g
    target = 2.0 * math.pi / n

    def angle_at(r: float) -> float:
        vs = _vertices_at_radius(r, n)
        return _triangle_angle(vs[1], vs[0], vs[2])

    lo, hi = 1e-3, 1.0 - 1e-12  # angle(lo) ~ flat value > target > angle(hi) ~ 0
    while hi - lo > 1e-16:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # bracket has collapsed to adjacent doubles
        if angle_at(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bisection_rep(g: int):
    """Side pairings of the regular 4g-gon built at the bisection radius."""
    vertices = _vertices_at_radius(bisection_radius(g), 4 * g)
    return side_pairings(HyperbolicPolygon(tuple(vertices), g))


def _batched_gap(vals: np.ndarray) -> np.ndarray:
    # the relation product with numpy inverses, batched over leading axes
    mats = matrices_from_values(vals)
    P = np.eye(2)
    for j in range(mats.shape[-3] // 2):
        A, B = mats[..., 2 * j, :, :], mats[..., 2 * j + 1, :, :]
        P = P @ A @ B @ np.linalg.inv(A) @ np.linalg.inv(B)
    return np.stack([P[..., 0, 0] - 1.0, P[..., 0, 1], P[..., 1, 0]], axis=-1)


def fd_relation_jacobian(vals, step: float = FD_STEP) -> np.ndarray:
    """Central-difference Jacobian of the relation gap, shape (3, 6g)."""
    vals = np.asarray(vals, dtype=float)
    n = vals.size
    eye = np.eye(n) * step
    flat = vals.reshape(n)
    batch = np.concatenate([flat + eye, flat - eye]).reshape(2 * n, *vals.shape)
    gaps = _batched_gap(batch)
    return ((gaps[:n] - gaps[n:]) / (2.0 * step)).T


def fd_svd_rank(r, rel_cutoff: float = 1e-6, noise_floor: float = 1e-8) -> int:
    """Numerical rank of the central-difference relation Jacobian.

    Singular values below the finite-difference noise floor count as zero
    even when they dominate sigma_max (at the trivial representation).  The
    relative cutoff misreads polygon representations from g = 17 on, where
    the columns are scaled by up to g^4.
    """
    J = fd_relation_jacobian(coords_from_rep(r).values)
    sigma = np.linalg.svd(J, compute_uv=False)
    cutoff = max(rel_cutoff * float(sigma.max(initial=0.0)), noise_floor)
    return int(np.sum(sigma > cutoff))


def _to_disk(z: complex) -> complex:
    return (z - 1j) / (z + 1j)


def _orthocircle_center(w1: complex, w2: complex) -> "complex | None":
    # circle through w1, w2 orthogonal to the unit circle: |C|^2 = R^2 + 1
    det = 2.0 * (w1.real * w2.imag - w1.imag * w2.real)
    if abs(det) < 1e-13:
        return None  # the geodesic is a diameter
    r1 = abs(w1) ** 2 + 1.0
    r2 = abs(w2) ** 2 + 1.0
    cx = (r1 * w2.imag - r2 * w1.imag) / det
    cy = (r2 * w1.real - r1 * w2.real) / det
    return complex(cx, cy)


def _simpson(f, n: int) -> float:
    # composite Simpson on [0, 1]; n intervals, forced even
    if n % 2:
        n += 1
    h = 1.0 / n
    total = f(0.0) + f(1.0)
    total += 4.0 * sum(f((2 * i + 1) * h) for i in range(n // 2))
    total += 2.0 * sum(f(2 * i * h) for i in range(1, n // 2))
    return total * h / 3.0


def polygon_area_numeric(p, subdiv: int = 2000) -> float:
    """Quadrature oracle for the area, independent of the angle-defect formula.

    Works in the disk model recentered at the vertex mean: the polygon is
    starlike there, so it splits into the triangles (0, w_k, w_{k+1}) and
    each triangle is an angular sector bounded by its side's geodesic circle.
    The radial integral of the area form has the closed form
    2/(1 - rho^2) - 2, leaving one angular quadrature per side.
    """
    vertices = p.vertices if isinstance(p, HyperbolicPolygon) else tuple(p)
    disk = [_to_disk(v.z) for v in vertices]
    m = sum(disk) / len(disk)
    u = [(w - m) / (1.0 - m.conjugate() * w) for w in disk]

    total = 0.0
    n = len(u)
    for k in range(n):
        w1, w2 = u[k], u[(k + 1) % n]
        th1 = cmath.phase(w1)
        dth = (cmath.phase(w2) - th1 + math.pi) % (2.0 * math.pi) - math.pi
        if abs(dth) < 1e-14:
            continue
        C = _orthocircle_center(w1, w2)
        if C is None:
            continue  # degenerate sector through the center: zero area

        def sector(t: float) -> float:
            phi = th1 + t * dth
            beta = C.real * math.cos(phi) + C.imag * math.sin(phi)
            rho = beta - math.sqrt(max(beta * beta - 1.0, 0.0))
            return 2.0 / (1.0 - rho * rho) - 2.0

        total += dth * _simpson(sector, subdiv)
    return total
