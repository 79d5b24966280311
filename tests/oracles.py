"""Slow reference computations that the package replaced with closed forms.

Each oracle computes a quantity the package also computes, by an
independent route: the polygon radius by bisection on the interior angle,
the polygon area by quadrature, the relation Jacobian by central finite
differences (with its rank from the singular values), the Toledo
invariant by transporting a float winding through the cover products, and
the hyperbolic distance by the length of a fine polyline, and the Toledo
invariant a second time as the area of the developed relation polygon,
which shares no code with the cover.  Six are former
implementations kept for comparison: the Euler cocycle carry measured by
arguments (three atan2s and the phase of j(m1, .) moved from i to m2.i),
which cover replaced by a test on the signs of c and d; the relation
Jacobian by the product rule, six 2x2 sandwiches per generator, which
solver replaced by closed-form columns through sl(2,R) read off the kept
word; the Toledo invariant with
every lift on its own branch, a loop over the word reps.toledo winds on the
pair kernels _cmul and _cinv kept here, which reps.toledo replaced by the
principal lift's carries; the regular
polygon built on HPoint objects, with three distances per interior angle,
which polygons replaced by the tuple kernels and must match bit for bit
in its vertices, and whose law-of-cosines angles the Cayley arguments of
polygons._turns replaced within a stated bound;
and its side pairings found by a two-point carrier on Mat2 objects (Mat2 @,
rotation, mobius_act, hyp_distance), in the polygon's centre frame, which
polygons replaced by a closed form in the vertex frame.  The closed form
matches the carrier up to sign after the frame map, and the carrier's
centre-frame words stay the input of the kernel pins and the float
transport oracle.  The rep text with each entry written by its own
format(x, ".17g"), which repfile.format_rep replaced by one %-format per
record and must match byte for byte.  The rest are test-only helpers:
points along a geodesic (the distance oracle's polyline, and the side
midpoints the pairing tests compare), and for euclidean the displacement of a lattice
commutator over sample points and the length of a Euclidean polyline.
The sphere sizes of the surface group count the tiling's orbit, level by
level.
"""
import cmath
import math

import numpy as np

from fuchsian import solver
from fuchsian.cover import _cocycle, _phi
from fuchsian.halfplane import (
    DegenerateDenominator,
    HPoint,
    Mat2,
    _inv,
    _mul,
    frobenius_distance,
    hyp_distance,
    j_cocycle,
    mobius_act,
    rotation,
)
from fuchsian.polygons import (
    PAIRING_TOL,
    HyperbolicPolygon,
    PairingFailed,
    _from_disk,
    _vertices_at_radius,
)
from fuchsian.reps import Representation, ToledoResult
from fuchsian.solver import coords_from_rep

FD_STEP = 1e-6
EXP_TOL = 1e-9  # |exp(phi(i)) - j(A,i)| the float transport allows, relative above |j| = 1


def _triangle_angle(at: HPoint, p: HPoint, q: HPoint) -> float:
    """Angle at `at` in the geodesic triangle (at, p, q), by the law of cosines."""
    a = hyp_distance(at, p)
    b = hyp_distance(at, q)
    c = hyp_distance(p, q)
    num = math.cosh(a) * math.cosh(b) - math.cosh(c)
    den = math.sinh(a) * math.sinh(b)
    return math.acos(max(-1.0, min(1.0, num / den)))


def object_vertices(r: float, n: int) -> list[HPoint]:
    """The n vertices at disk radius r, each built by the checked HPoint constructor."""
    return [
        HPoint.from_complex(_from_disk(r * cmath.exp(2j * math.pi * k / n)))
        for k in range(n)
    ]


def per_vertex_interior_angles(vertices) -> list[float]:
    """Interior angle at each vertex, each triangle measured on its own."""
    n = len(vertices)
    return [
        _triangle_angle(vertices[k], vertices[k - 1], vertices[(k + 1) % n])
        for k in range(n)
    ]


def _move_to_i(p: HPoint) -> Mat2:
    # z -> (z - x)/y as a determinant-one matrix
    s = math.sqrt(p.y)
    return Mat2(1.0 / s, -p.x / s, 0.0, s)


def _complex_act(M: Mat2, z: complex) -> complex:
    return (M.a * z + M.b) / (M.c * z + M.d)


def _object_carrier(p1: HPoint, p2: HPoint, q1: HPoint, q2: HPoint) -> Mat2:
    Cp = _move_to_i(p1)
    Cq = _move_to_i(q1)
    wp = _complex_act(Cp, p2.z)
    wq = _complex_act(Cq, q2.z)
    alpha = cmath.phase((wq - 1j) / (wq + 1j)) - cmath.phase((wp - 1j) / (wp + 1j))
    return Cq.inv() @ rotation(-0.5 * alpha) @ Cp


def _object_certify(M: Mat2, p1: HPoint, p2: HPoint, q1: HPoint, q2: HPoint) -> None:
    err = max(
        hyp_distance(mobius_act(M, p1), q1),
        hyp_distance(mobius_act(M, p2), q2),
    )
    if err > PAIRING_TOL:
        raise PairingFailed(
            f"pairing misses its target side by {err:.3e} (tol {PAIRING_TOL:.1e})"
        )


def object_side_pairings(p: HyperbolicPolygon) -> Representation:
    """The side pairings of polygons.side_pairings, in the centre frame.

    Each pairing is the two-point carrier of its source side onto its
    target side: both sides are swept to i and the rotation between them is
    read off in the disk.  Same labels and order as polygons.side_pairings.
    """
    vs = p.vertices
    n = len(vs)
    gens_a: list[Mat2] = []
    gens_b: list[Mat2] = []
    for j in range(p.genus):
        m = 4 * j
        a_src = (vs[(m + 2) % n], vs[(m + 3) % n])
        a_tgt = (vs[(m + 1) % n], vs[m % n])
        b_src = (vs[(m + 1) % n], vs[(m + 2) % n])
        b_tgt = (vs[(m + 4) % n], vs[(m + 3) % n])
        A = _object_carrier(*a_src, *a_tgt)
        B = _object_carrier(*b_src, *b_tgt)
        _object_certify(A, *a_src, *a_tgt)
        _object_certify(B, *b_src, *b_tgt)
        gens_a.append(A)
        gens_b.append(B)
    return Representation(p.genus, tuple(gens_a), tuple(gens_b))


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
    """Carrier side pairings of the regular 4g-gon built at the bisection radius."""
    vertices = _vertices_at_radius(bisection_radius(g), 4 * g)
    return object_side_pairings(HyperbolicPolygon(tuple(vertices), g))


def _batched_matrices(vals: np.ndarray) -> np.ndarray:
    # rotation(theta) diag(e^s, e^-s) ((1, u), (0, 1)), batched over leading axes
    th, s, u = np.moveaxis(vals, -1, 0)
    one, zero, e = np.ones_like(s), np.zeros_like(s), np.exp(s)

    def stack(a, b, c, d):
        return np.stack([np.stack([a, b], -1), np.stack([c, d], -1)], -2)

    rot = stack(np.cos(th), -np.sin(th), np.sin(th), np.cos(th))
    return rot @ stack(e, zero, zero, 1.0 / e) @ stack(one, u, zero, one)


def _batched_gap(vals: np.ndarray) -> np.ndarray:
    # the relation product with numpy inverses, batched over leading axes
    mats = _batched_matrices(vals)
    P = np.eye(2)
    for j in range(mats.shape[-3] // 2):
        A, B = mats[..., 2 * j, :, :], mats[..., 2 * j + 1, :, :]
        P = P @ A @ B @ np.linalg.inv(A) @ np.linalg.inv(B)
    return np.stack([P[..., 0, 0] - 1.0, P[..., 0, 1], P[..., 1, 0]], axis=-1)


def fd_relation_jacobian(rows, step: float = FD_STEP) -> np.ndarray:
    """Central-difference Jacobian of the relation gap at 2g coordinate rows, shape (3, 6g)."""
    vals = np.asarray(rows, dtype=float)
    n = vals.size
    eye = np.eye(n) * step
    flat = vals.reshape(n)
    batch = np.concatenate([flat + eye, flat - eye]).reshape(2 * n, *vals.shape)
    gaps = _batched_gap(batch)
    return ((gaps[:n] - gaps[n:]) / (2.0 * step)).T


def _sandwich(Q: tuple, X: tuple, S: tuple) -> tuple:
    """Entries (00, 01, 10) of Q X S."""
    q0, q1, q2, q3 = Q
    x0, x1, x2, x3 = X
    t0, t1 = q0 * x0 + q1 * x2, q0 * x1 + q1 * x3
    t2, t3 = q2 * x0 + q3 * x2, q2 * x1 + q3 * x3
    s0, s1, s2, s3 = S
    return (t0 * s0 + t1 * s2, t0 * s1 + t1 * s3, t2 * s0 + t3 * s2)


def product_rule_jacobian(rows) -> np.ndarray:
    """The relation Jacobian by the product rule at 2g coordinate rows, shape (3, 6g).

    With prefix Q_k = L_1...L_{k-1} and suffix S_k = L_{k+1}...L_{4g}, a
    generator M at letter k with its inverse at letter k' moves the product
    by Q_k dM S_k + Q_{k'} adj(dM) S_{k'}: the adjugate is linear and is the
    inverse on det = 1.  dM is the derivative of the factorization, formed
    entry by entry.
    """
    def adj(m):
        return (m[3], -m[1], -m[2], m[0])

    mats = [solver._matrix(*row) for row in rows]
    word = []
    for A, B in zip(mats[0::2], mats[1::2]):
        word += (A, B, adj(A), adj(B))
    eye = (1.0, 0.0, 0.0, 1.0)
    pre = [eye]
    for L in word:
        pre.append(_mul(pre[-1], L))
    suf = [eye]
    for L in reversed(word):
        suf.append(_mul(L, suf[-1]))
    suf.reverse()  # suf[k] = L_k ... L_last, so S_k is suf[k + 1]
    cols = []
    for i, (th, s, u) in enumerate(rows):
        k = 4 * (i // 2) + i % 2
        e = math.exp(s)
        c, sn = math.cos(th), math.sin(th)
        ce, se = c * e, sn * e
        d_th = (-se, -se * u - c / e, ce, ce * u - sn / e)
        d_s = (ce, ce * u + sn / e, se, se * u - c / e)
        d_u = (0.0, ce, 0.0, se)
        for dM in (d_th, d_s, d_u):
            x = _sandwich(pre[k], dM, suf[k + 1])
            y = _sandwich(pre[k + 2], adj(dM), suf[k + 3])
            cols.append((x[0] + y[0], x[1] + y[1], x[2] + y[2]))
    return np.array(cols).T


def fd_svd_rank(r, rel_cutoff: float = 1e-6, noise_floor: float = 1e-8) -> int:
    """Numerical rank of the central-difference relation Jacobian.

    Singular values below the finite-difference noise floor count as zero
    even when they dominate sigma_max (at the trivial representation).  The
    relative cutoff misreads polygon representations from g = 17 on, where
    the columns are scaled by up to g^4.
    """
    J = fd_relation_jacobian(coords_from_rep(r))
    sigma = np.linalg.svd(J, compute_uv=False)
    cutoff = max(rel_cutoff * float(sigma.max(initial=0.0)), noise_floor)
    return int(np.sum(sigma > cutoff))


def _along_geodesic(z: HPoint, w: HPoint, fractions) -> list[HPoint]:
    # Send z to the disk center (w goes to v), take the points on the diameter
    # [0, v] at the given fractions of the hyperbolic distance, and map back.
    # Unlike the circle through z and w, this stays well conditioned when the
    # geodesic is nearly vertical.
    zc, wc = z.z, w.z
    v = (wc - zc) / (wc - zc.conjugate())
    r = abs(v)
    d = math.atanh(r)
    out = []
    for s in fractions:
        v_s = v * (math.tanh(s * d) / r)
        back = (zc - zc.conjugate() * v_s) / (1.0 - v_s)
        out.append(HPoint(back.real, back.imag))
    return out


def geodesic_points(z: HPoint, w: HPoint, n: int) -> list[HPoint]:
    """n+1 points along the geodesic from z to w, equally spaced in distance."""
    if n < 1:
        raise ValueError("need at least one segment")
    if z == w:
        return [z] * (n + 1)
    return _along_geodesic(z, w, (k / n for k in range(n + 1)))


def geodesic_midpoint(z: HPoint, w: HPoint) -> HPoint:
    """Point at equal distance from z and w on the geodesic between them."""
    if z == w:
        return z
    return _along_geodesic(z, w, (0.5,))[0]


def path_length(points: "list | tuple") -> float:
    """Length of a polyline: each chord weighted by the geometric mean height.

    The oracle for hyp_distance, on the polyline through geodesic_points.

    This is the midpoint-rule discretization of the arc length integral; it
    converges to the true length of the traced curve as the polyline refines.
    """
    if len(points) < 2:
        raise ValueError("need at least two points")
    total = 0.0
    for z, w in zip(points, points[1:]):
        chord = math.hypot(w.x - z.x, w.y - z.y)
        total += chord / math.sqrt(z.y * w.y)
    return total


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


def _check_phi(m: tuple, phi: complex) -> None:
    j = j_cocycle(m, (0.0, 1.0))
    if abs(cmath.exp(phi) - j) > EXP_TOL * max(1.0, abs(j)):
        raise ValueError(f"phi(i) = {phi} is not a logarithm of j(A, i) = {j}")


def _rebased(m: tuple, phi: complex) -> tuple:
    # reset the real part to log|j(A, i)|; the imaginary part is the payload
    phi = complex(math.log(abs(j_cocycle(m, (0.0, 1.0)))), phi.imag)
    _check_phi(m, phi)
    return m, phi


def _phi_at(m: tuple, phi: complex, x: float, y: float) -> complex:
    return phi + cmath.log(j_cocycle(m, (x, y)) / j_cocycle(m, (0.0, 1.0)))


def _transport_lift(M, k: int) -> tuple:
    return M, cmath.log(j_cocycle(M, (0.0, 1.0))) + complex(0.0, 2.0 * math.pi * k)


def _transport_mul(e1: tuple, e2: tuple) -> tuple:
    (m1, phi1), (m2, phi2) = e1, e2
    x, y = mobius_act(m2, (0.0, 1.0))
    return _rebased(_mul(m1, m2), _phi_at(m1, phi1, x, y) + phi2)


def _transport_inv(e: tuple) -> tuple:
    m, phi = e
    m_inv = _inv(m)
    x, y = mobius_act(m_inv, (0.0, 1.0))
    return _rebased(m_inv, -_phi_at(m, phi, x, y))


def atan2_cocycle(m1: tuple, m2: tuple, m: tuple) -> float:
    """The Euler cocycle of m1 m2 = m in turns, before rounding.

    (Arg j(m1,i) + Arg[j(m1,m2.i)/j(m1,i)] + Arg j(m2,i) - Arg j(m,i)) / 2pi,
    each argument principal as math.atan2 and cmath.phase read a signed zero.
    Where m2 moves i past the action's DEN_TOL guard, j(m1, m2.i) comes from
    the cocycle identity j(m1, m2.i) = j(m, i) / j(m2, i) instead.
    """
    try:
        x, y = mobius_act(m2, (0.0, 1.0))
        j1 = j_cocycle(m1, (x, y))
    except DegenerateDenominator:
        j1 = complex(m[3], m[2]) / complex(m2[3], m2[2])
    increment = cmath.phase(j1 / complex(m1[3], m1[2]))
    args = math.atan2(m1[2], m1[3]) + increment + math.atan2(m2[2], m2[3]) - math.atan2(m[2], m[3])
    return args / (2.0 * math.pi)


def transport_toledo_raw(r, branches=None) -> float:
    """Im phi(i) / pi of the lifted relation word, the winding carried as a float.

    Each element is (entries, phi(i)); a product transports the first
    factor's branch along the second factor's action and re-checks
    exp(phi(i)) = j(A, i) to EXP_TOL.  The word and its association order
    are those of reps.toledo: the letters A_1, B_1, A_1^-1, B_1^-1, ...
    multiplied left to right onto the lift of I.
    """
    if branches is None:
        branches = (0,) * (2 * r.genus)
    total = _transport_lift(Mat2.identity(), 0)
    for i, (A, B) in enumerate(zip(r.gens_a, r.gens_b)):
        ta = _transport_lift(A, branches[2 * i])
        tb = _transport_lift(B, branches[2 * i + 1])
        for letter in (ta, tb, _transport_inv(ta), _transport_inv(tb)):
            total = _transport_mul(total, letter)
    return total[1].imag / math.pi


def _cmul(e1: tuple, e2: tuple) -> tuple:
    """The cover product on (entries, n) pairs, the matrix product unchecked."""
    (m1, n1), (m2, n2) = e1, e2
    m = _mul(m1, m2)
    return m, n1 + n2 + _cocycle(m1, m2, m)


def _cinv(e: tuple) -> tuple:
    """The cover inverse on an (entries, n) pair: (A, n)(A^-1, -n) = (I, 0)."""
    return _inv(e[0]), -e[1]


def per_branch_toledo(r, branches=None) -> ToledoResult:
    """The Toledo invariant with each generator lifted on its own branch.

    Lifts A_1, B_1, ..., A_g, B_g on branches[0], ..., branches[2g - 1] (all
    0 when None), multiplies the letters A_1, B_1, A_1^-1, B_1^-1, ... left
    to right onto the lift of I with the cover kernels, the association
    order of reps.toledo, and rounds to the lattice as it does.  The
    relation and the distance to the lattice are not checked.
    """
    if branches is None:
        branches = (0,) * (2 * r.genus)
    total = ((1.0, 0.0, 0.0, 1.0), 0)
    for i, (A, B) in enumerate(zip(r.gens_a, r.gens_b)):
        ta = (A, branches[2 * i])
        tb = (B, branches[2 * i + 1])
        for letter in (ta, tb, _cinv(ta), _cinv(tb)):
            total = _cmul(total, letter)
    m, phi = total[0], _phi(total)
    dist_plus = frobenius_distance(m, (1.0, 0.0, 0.0, 1.0))
    dist_minus = frobenius_distance(m, (-1.0, -0.0, -0.0, -1.0))
    psl_only = dist_minus < dist_plus
    raw = phi.imag / math.pi
    value = round(raw) if psl_only else 2 * round(raw / 2.0)
    return ToledoResult(int(value), raw, abs(raw - value), min(dist_plus, dist_minus), psl_only)


def _triangle_area(w2: complex, w3: complex) -> float:
    # signed area of the geodesic triangle (0, w2, w3) in the unit disk,
    # curvature -1; positive when 0, w2, w3 run counterclockwise
    return -2.0 * cmath.phase(1.0 - w2.conjugate() * w3)


def area_toledo(r, p: complex = 1j) -> float:
    """The Toledo invariant as the area of the developed relation polygon / 2pi.

    Its vertices are P_k.p for the partial products P_0 = I, ..., P_4g of
    the relation word that reps keeps (r._relation), and the fan from
    P_0.p = p gives 2 pi tau = sum_{k=1}^{4g-2} area(p, P_k.p, P_{k+1}.p)
    (Goldman 1988; Toledo 1989).  Each triangle is taken to the disk by
    w = (z - p)/(z - conj p), which sends p to 0, and measured in closed
    form.  No cover element, branch or Euler cocycle is involved: the only
    shared input is the word's partial products, acted on p in complex
    arithmetic.
    """
    ws = []
    for a, b, c, d in r._relation[1][1:-1]:
        z = (a * p + b) / (c * p + d)
        ws.append((z - p) / (z - p.conjugate()))
    return sum(_triangle_area(w2, w3) for w2, w3 in zip(ws, ws[1:])) / (2.0 * math.pi)


def _default_sample(span: float = 10.0, per_axis: int = 5) -> list:
    step = 2.0 * span / (per_axis - 1)
    return [
        (-span + i * step, -span + j * step)
        for i in range(per_axis)
        for j in range(per_axis)
    ]


def commutator_check(L, points=None) -> float:
    """Max displacement of A B A^-1 B^-1 over sample points; 0 up to rounding."""
    if points is None:
        points = _default_sample()
    worst = 0.0
    for p in points:
        x, y = p
        x, y = x + L.a[0], y + L.a[1]
        x, y = x + L.b[0], y + L.b[1]
        x, y = x - L.a[0], y - L.a[1]
        x, y = x - L.b[0], y - L.b[1]
        worst = max(worst, math.hypot(x - p[0], y - p[1]))
    return worst


def euclid_path_length(points: list) -> float:
    if len(points) < 2:
        raise ValueError("need at least two points")
    return sum(
        math.hypot(q[0] - p[0], q[1] - p[1]) for p, q in zip(points, points[1:])
    )


def per_field_format_rep(r, meta=None) -> str:
    """repfile's text with each entry formatted on its own, by format(x, ".17g")."""
    lines = [f"genus {r.genus}"]
    for key, gens in (("A", r.gens_a), ("B", r.gens_b)):
        lines += [" ".join([key, *(format(x, ".17g") for x in M)]) for M in gens]
    lines += [f"meta {m}" for m in meta or []]
    return "\n".join(lines) + "\n"


def surface_group_sphere_sizes(genus: int, depth: int) -> list[int]:
    """s_0..s_depth, the elements of word length n in the genus-g surface
    group's standard generators and their inverses:
    sum s_n x^n = (1 + 2x + ... + 2x^(2g-1) + x^(2g)) / (1 + (2 - 4g)(x + ... + x^(2g-1)) + x^(2g))
    (Cannon, Geom. Dedicata 16, 1984; Floyd-Plotnick, Invent. Math. 88, 1987)."""
    top = 2 * genus
    num = [1] + [2] * (top - 1) + [1]
    den = [1] + [2 - 4 * genus] * (top - 1) + [1]
    s = []
    for n in range(depth + 1):
        tail = sum(den[k] * s[n - k] for k in range(1, min(n, top) + 1))
        s.append((num[n] if n <= top else 0) - tail)
    return s
