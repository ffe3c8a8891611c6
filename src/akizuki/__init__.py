"""Exact arithmetic in a finite-precision model of Akizuki's local domain.

The library implements truncated power series over exact coefficient
fields; the normal-form arithmetic of the local ring C_M = A[w, g_0, g_1,
...]_M with w = t(z - a_0); generalized-fraction classes in its top local
cohomology; residue maps into K/A; the induced local duality isomorphism
together with its explicit inverse; and the completed ring presented as
A^[X]/(X + t(z - a_0))^2.

Only ``errors`` loads with the package: every other name and submodule
loads its module on first access (PEP 562), so a caller compiles only the
layers it uses.
"""

import importlib

from . import errors

__version__ = "0.1.0"

# Each submodule the package exposes, with the names it exports.
_EXPORTS = {
    "cohomology": ("CohomologyClass",),
    "config": ("RingSettings", "default_ring", "parse_field_spec"),
    "duality": ("CompletionElement", "ContinuousHom", "ResiduePair", "extract_pair"),
    "errors": (
        "AlgebraError", "ExactDivisionError", "InstanceError",
        "NotInvertibleError", "ParseError", "PrecisionError",
    ),
    "expressions": (
        "Atom", "BinOp", "Gen", "Neg", "Num", "Pow", "eval_nf", "parse_expression",
    ),
    "fields": ("PrimeField", "RationalField"),
    "literals": (
        "parse_comp", "parse_gf", "parse_hom", "parse_pair", "parse_series", "parse_tail",
    ),
    "ring": ("MINIMAL", "AkizukiRing", "NormalForm"),
    "series": ("LaurentTail", "TruncatedSeries"),
    "value": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_HOME})
