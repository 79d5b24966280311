"""Regular hyperbolic 4g-gons and their side-pairing generators.

For genus g >= 2 there is a regular 4g-gon whose interior angles sum to
2*pi; gluing its sides in the pattern a1 b1 a1' b1' a2 b2 a2' b2' ...
(primes are reversed traversals, read counterclockwise) produces a closed
genus-g surface, and the gluing isometries generate a Fuchsian group.  The
polygon is built in the unit-disk model, where the regular polygon around 0
is rotationally symmetric, and transported to the half-plane around i.  The
same symmetry gives each side pairing in closed form.

The circumradius R has a closed form: the regular n-gon with interior angle
alpha has cosh R = cot(alpha/2) cot(pi/n), which for n = 4g and
alpha = 2*pi/n is cot^2(pi/(4g)) (Beardon, The Geometry of Discrete Groups,
GTM 91).  The vertices sit at disk radius tanh(R/2).

The interior angle at a vertex z with neighbours u and w is the Cayley
argument arg (u - z)(w - conj z) / ((u - conj z)(w - z)), since the map
v -> (v - z)/(v - conj z) is conformal and sends geodesics from z to radii;
it is positive where the list turns counterclockwise, as a polygon must at
every vertex, and within 7.1e-12, relative, of the law of cosines.

The construction runs on halfplane's operations, which take the HPoint
vertices as the (x, y) pairs they are; each generator is formed as an entry
4-tuple, checked once by _renorm and wrapped as a Mat2 unchecked.
"""
from __future__ import annotations

import cmath
import math

from . import _value_type
from .halfplane import Mat2, _check_point, _mat, _point, _renorm, hyp_distance, mobius_act
from .reps import Representation

ANGLE_TOL = 1e-8    # polygon validity: equal angles, sum 2*pi
PAIRING_TOL = 1e-6  # certification of side-onto-side mapping


class GenusTooSmall(ValueError):
    """No hyperbolic 4g-gon with angle sum 2*pi exists for g < 2."""


class PairingFailed(RuntimeError):
    """A constructed pairing does not carry its source side onto its target."""


def _from_disk(w: complex) -> complex:
    return 1j * (1.0 + w) / (1.0 - w)


class HyperbolicPolygon(_value_type("HyperbolicPolygon", "vertices genus")):
    """Cyclic vertex list of a regular-candidate 4g-gon, counterclockwise.

    Construction checks each vertex as an HPoint from its (x, y) pair, so a
    non-finite vertex or one with y <= 0 raises ValueError, then checks the
    signed angles: all agree within ANGLE_TOL and add up to 2*pi within
    ANGLE_TOL, so a list that turns clockwise anywhere is refused.
    """

    __slots__ = ()

    def __new__(cls, vertices, genus: int) -> "HyperbolicPolygon":
        vertices = tuple(_point(_check_point(v)) for v in vertices)
        if genus < 2:
            raise GenusTooSmall(f"genus must be >= 2, got {genus}")
        if len(vertices) != 4 * genus:
            raise ValueError(f"genus {genus} needs {4 * genus} vertices, got {len(vertices)}")
        angles = list(_turns(vertices))
        if max(angles) - min(angles) > ANGLE_TOL:
            raise ValueError("interior angles are not all equal")
        if not abs(sum(angles) - 2.0 * math.pi) <= ANGLE_TOL:  # also refuses NaN
            raise ValueError(f"interior angles sum to {sum(angles)!r}, not 2*pi")
        return tuple.__new__(cls, (vertices, genus))


def _turns(vertices):
    """Signed interior angles in (-pi, pi], one Cayley argument each (see interior_angles)."""
    zs = [complex(x, y) for x, y in vertices]
    for k, (u, z, w) in enumerate(zip(zs[-1:] + zs[:-1], zs, zs[1:] + zs[:1])):
        zc = z.conjugate()
        den = (u - zc) * (w - z)
        if not den:
            raise ValueError(f"side {k}, from vertex {k} to vertex {(k + 1) % len(zs)}, has length zero")
        yield cmath.phase((u - z) * (w - zc) / den)


def interior_angles(vertices) -> list[float]:
    """Unsigned interior angle at each vertex, in [0, pi]; valid for convex lists.

    |arg (u - z)(w - conj z) / ((u - conj z)(w - z))| at vertex z with
    neighbours u and w; the argument is positive where the list turns
    counterclockwise, so a clockwise list gets its reverse's angles.  Within
    7.1e-12, relative, of the law of cosines on the regular 4g-gons up to
    g = 150.  ValueError naming the first side whose vertices coincide.
    """
    return [abs(t) for t in _turns(vertices)]


def _vertices_at_radius(r: float, n: int) -> list[tuple]:
    """The n vertices as (x, y) pairs, unchecked: HyperbolicPolygon checks each one."""
    zs = (_from_disk(r * cmath.exp(2j * math.pi * k / n)) for k in range(n))
    return [(z.real, z.imag) for z in zs]


def _disk_radius(g: int) -> float:
    """tanh(R/2) for the regular 4g-gon, where cosh R = cot^2(pi/(4g))."""
    cot = 1.0 / math.tan(math.pi / (4 * g))
    return math.tanh(0.5 * math.acosh(cot * cot))


def regular_polygon(g: int) -> HyperbolicPolygon:
    """The regular 4g-gon centered at i with interior angle 2*pi/(4g)."""
    if g < 2:
        raise GenusTooSmall(
            f"genus {g}: angle sum 2*pi needs area (4g-4)*pi > 0, so g >= 2"
        )
    return HyperbolicPolygon(_vertices_at_radius(_disk_radius(g), 4 * g), g)


def polygon_area(p) -> float:
    """Angle-defect area: (n - 2)*pi minus the sum of interior angles.

    This is the area in the curvature -1 metric |dz|/y.  For the regular
    4g-gon with angle sum 2*pi it is 2*pi*(2g - 2) (Gauss-Bonnet).
    """
    vertices = p.vertices if isinstance(p, HyperbolicPolygon) else tuple(p)
    return (len(vertices) - 2) * math.pi - sum(interior_angles(vertices))


def _frame_height(p: HyperbolicPolygon) -> float:
    """Im of vertex 0, on the imaginary axis; side_pairings' frame is z -> z / it."""
    return p.vertices[0].y


def side_pairings(p: HyperbolicPolygon) -> Representation:
    """Side-pairing translations of the labeled polygon, in the vertex frame.

    Sides run from vertex k to k+1 and are labeled a1 b1 a1' b1' a2 ...
    counterclockwise.  The generator for a_{j+1} carries the a' side onto the
    a side, the one for b_{j+1} carries the b side onto the b' side, both
    head-to-tail against the boundary orientation.  In vertices, with m = 4j:

        A_{j+1}: V_{m+2} -> V_{m+1},  V_{m+3} -> V_m
        B_{j+1}: V_{m+1} -> V_{m+4},  V_{m+2} -> V_{m+3}

    Chasing the single vertex class around with these maps reproduces the
    word [A_1,B_1]...[A_g,B_g], which is why the commutator relation closes
    at +I when the interior angles sum to 2*pi.

    Side k has its midpoint at disk angle theta_k = (2k+1)*pi/(4g) and at the
    inradius h, cosh h = cot(pi/(4g)), from the centre (Beardon, GTM 91), so
    the pairing of side s onto side t, reversed, is the closed form
    rot(-theta_t/2) diag(e^h, e^-h) rot(theta_s/2 - pi/2).  It is emitted in
    the vertex frame z -> z / Im(vertex 0), where the word's product after
    each commutator is a rotation about i (in the centre frame its entries
    grow like g^2 and the word misses REL_TOL first at g = 41 and at every
    g from 52), and certified against the vertices in that frame.
    The closed forms pair only the polygon regular_polygon(g) returns; on any
    other valid HyperbolicPolygon (rotated or moved) _certify raises
    PairingFailed.
    """
    g = p.genus
    n = 4 * g
    y0 = _frame_height(p)
    vs = [(v.x / y0, v.y / y0) for v in p.vertices]
    cot = 1.0 / math.tan(math.pi / n)
    e = cot + math.sqrt((cot - 1.0) * (cot + 1.0))  # e^h

    def pairing(s: int, t: int) -> tuple:
        phi, psi = (2 * s + 1) * math.pi / (2 * n), (2 * t + 1) * math.pi / (2 * n)
        cf, sf, cp, sp = math.cos(phi), math.sin(phi), math.cos(psi), math.sin(psi)
        a = cp * e * sf - sp * cf / e
        b = cp * e * cf + sp * sf / e
        c = -sp * e * sf - cp * cf / e
        d = -sp * e * cf + cp * sf / e
        return _renorm(a, b / y0, c * y0, d)

    gens_a: list[Mat2] = []
    gens_b: list[Mat2] = []
    for j in range(g):
        m = 4 * j
        A = pairing(m + 2, m)
        B = pairing(m + 1, m + 3)
        _certify(A, vs[m + 2], vs[m + 3], vs[m + 1], vs[m])
        _certify(B, vs[m + 1], vs[m + 2], vs[(m + 4) % n], vs[m + 3])
        gens_a.append(_mat(A))
        gens_b.append(_mat(B))
    return Representation(g, tuple(gens_a), tuple(gens_b))


def _certify(m: tuple, p1: tuple, p2: tuple, q1: tuple, q2: tuple) -> None:
    err = max(
        hyp_distance(mobius_act(m, p1), q1),
        hyp_distance(mobius_act(m, p2), q2),
    )
    if err > PAIRING_TOL:
        raise PairingFailed(
            f"pairing misses its target side by {err:.3e} (tol {PAIRING_TOL:.1e})"
        )
