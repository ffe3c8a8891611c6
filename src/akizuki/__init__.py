"""Exact arithmetic in a finite-precision model of Akizuki's local domain.

The library implements truncated power series over exact coefficient
fields; the normal-form arithmetic of the local ring C_M = A[w, g_0, g_1,
...]_M with w = t(z - a_0); generalized-fraction classes in its top local
cohomology; residue maps into K/A; the induced local duality isomorphism
together with its explicit inverse; and the completed ring presented as
A^[X]/(X + t(z - a_0))^2.
"""

from .cohomology import CohomologyClass
from .config import RingSettings, default_ring, parse_field_spec
from .duality import CompletionElement, ContinuousHom, ResiduePair, extract_pair
from .errors import (
    AlgebraError,
    ExactDivisionError,
    InstanceError,
    NotInvertibleError,
    ParseError,
    PrecisionError,
)
from .expressions import (
    Atom,
    BinOp,
    Gen,
    Neg,
    Num,
    Pow,
    eval_nf,
    parse_expression,
)
from .fields import PrimeField, RationalField
from .literals import (
    parse_comp,
    parse_gf,
    parse_hom,
    parse_pair,
    parse_series,
    parse_tail,
)
from .ring import MINIMAL, AkizukiRing, NormalForm
from .series import LaurentTail, TruncatedSeries

__version__ = "0.1.0"

__all__ = [
    "AkizukiRing",
    "AlgebraError",
    "Atom",
    "BinOp",
    "CohomologyClass",
    "CompletionElement",
    "ContinuousHom",
    "ExactDivisionError",
    "Gen",
    "InstanceError",
    "LaurentTail",
    "MINIMAL",
    "Neg",
    "NormalForm",
    "NotInvertibleError",
    "Num",
    "ParseError",
    "Pow",
    "PrecisionError",
    "PrimeField",
    "RationalField",
    "ResiduePair",
    "RingSettings",
    "TruncatedSeries",
    "default_ring",
    "eval_nf",
    "extract_pair",
    "parse_comp",
    "parse_expression",
    "parse_field_spec",
    "parse_gf",
    "parse_hom",
    "parse_pair",
    "parse_series",
    "parse_tail",
]
