"""Exact counting of affine-equivalence classes of q-ary functions and of
Reed-Muller quotient codes, by Burnside sums over explicit conjugacy-class
data of the affine linear group, cross-validated by brute-force oracles."""

from .compound import asymptotic_report
from .conjugacy import ClassIndex, PartitionTuple, compute_D, enumerate_classes
from .formulas import centralizer_order, count_function_classes, element_order, orbit_exponent
from .linalg import AffineMap, GFMatrix
from .numtheory import PrimePower, agl_group_order
from .partitions import enumerate_partitions
from .reps import build_representative, irreducibles_of_order, verify_class
from .rm import RMQuotientBasis, theta

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "ClassIndex",
    "GFMatrix",
    "PartitionTuple",
    "PrimePower",
    "RMQuotientBasis",
    "agl_group_order",
    "asymptotic_report",
    "build_representative",
    "centralizer_order",
    "compute_D",
    "count_function_classes",
    "element_order",
    "enumerate_classes",
    "enumerate_partitions",
    "irreducibles_of_order",
    "orbit_exponent",
    "theta",
    "verify_class",
]
