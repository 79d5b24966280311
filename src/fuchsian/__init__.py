"""Hyperbolic half-plane isometries, the universal cover of SL(2,R), and
Toledo invariants of surface-group representations.

The names below are loaded on first use (PEP 562): `import fuchsian` runs
no submodule, and `fuchsian.toledo` imports `fuchsian.reps` the first time
it is read.
"""
from collections import namedtuple
from importlib import import_module

_EXPORTS = {
    "halfplane": "Classification DegenerateDenominator HPoint IsometryClass Mat2 NonPositiveScale "
                 "classify classify_detailed frobenius_distance hyp_distance j_cocycle mobius_act "
                 "rotation scaling",
    "cover": "CoverElement KernelValue NotInKernel cover_inv cover_mul kernel_value lift phi_at",
    "reps": "NonIntegral RelationViolated Representation ToledoResult goldman_fuchsian_test "
            "reflect_conjugate relation_product relation_residual toledo",
    "polygons": "GenusTooSmall HyperbolicPolygon PairingFailed interior_angles polygon_area "
                "regular_polygon side_pairings",
    "euclidean": "LatticeGroup reduce_point",
    "repfile": "format_rep parse_rep read_rep_file write_rep_file",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
# the submodules are exported too, as the eager imports bound them
__all__ = [*_EXPORTS, *_MODULE_OF]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later reads skip __getattr__
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})


def _value_type(name: str, fields: str) -> type:
    """Named tuple for the value types: no tuple + or * (a type may define * as
    its law), and no _make or _replace, which skip the checks in __new__."""
    base = namedtuple(name, fields)
    base.__add__ = base.__mul__ = base.__rmul__ = base._make = base._replace = None
    return base
