"""The package's public names, loaded on first use (PEP 562)."""
import sys

import pytest

import fuchsian

# what `fuchsian/__init__` exported when it imported every module eagerly
EAGER_EXPORTS = {
    "halfplane": [
        "Classification", "DegenerateDenominator", "HPoint", "IsometryClass", "Mat2",
        "NonPositiveScale", "classify", "classify_detailed", "frobenius_distance",
        "hyp_distance", "j_cocycle", "mobius_act", "rotation", "scaling",
    ],
    "cover": [
        "CoverElement", "KernelValue", "NotInKernel", "cover_inv", "cover_mul",
        "kernel_value", "lift", "phi_at",
    ],
    "reps": [
        "NonIntegral", "RelationViolated", "Representation", "ToledoResult",
        "goldman_fuchsian_test", "reflect_conjugate", "relation_product",
        "relation_residual", "toledo",
    ],
    "polygons": [
        "GenusTooSmall", "HyperbolicPolygon", "PairingFailed", "interior_angles",
        "polygon_area", "regular_polygon", "side_pairings",
    ],
    "euclidean": ["LatticeGroup", "reduce_point"],
    "repfile": ["format_rep", "parse_rep", "read_rep_file", "write_rep_file"],
}


def test_every_eager_export_is_the_module_object():
    for module, names in EAGER_EXPORTS.items():
        for name in (module, *names):
            assert name in dir(fuchsian) and name in fuchsian.__all__, name
            value = getattr(fuchsian, name)
            source = sys.modules[f"fuchsian.{module}"]
            assert value is (source if name == module else getattr(source, name)), name


def test_star_import_and_unknown_names():
    namespace = {}
    exec("from fuchsian import *", namespace)
    assert namespace["toledo"] is fuchsian.reps.toledo
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(fuchsian.__all__)
    assert fuchsian.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        fuchsian.no_such_name
