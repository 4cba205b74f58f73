"""Exact-arithmetic toolkit for trifocal tensors.

Submodules cover exact linear algebra, the 3x3x3 tensor type and its rank
invariants, the camera parametrization, sparse polynomials in the 27
tensor coordinates, symmetric-group / GL(3) representation theory, graded
ideal computations, and the orbit catalog with the membership test.
"""

from .cameras import Camera, CameraTriple, trifocal_from_cameras
from .orbits import catalog, classify_component, is_trifocal, signature
from .tensor import Tensor333, frank, prank

__version__ = "0.1.0"

__all__ = [
    "Camera", "CameraTriple", "Tensor333", "catalog", "classify_component",
    "frank", "is_trifocal", "prank", "signature", "trifocal_from_cameras",
]
