"""Witt vectors, ramification analysis, and cyclic p-algebra symbols
over Laurent series fields k((t)) in characteristic p.

The package computes with truncated Witt vectors through their exact
universal polynomials, reduces Artin-Schreier(-Witt) data modulo
coboundaries to decide how the attached cyclic extension ramifies, and
rewrites Brauer symbols [omega, b) with self-certifying traces.  The
headline constructions convert between totally ramified cyclic maximal
subfields and purely inseparable ones in both directions.
"""

import importlib

from . import (
    brauer,
    coeff,
    errors,
    extension,
    grammar,
    newton,
    sampling,
    theorems,
    valued,
    witt,
)
from .brauer import (
    BrauerSymbol,
    RewriteOutcome,
    RewriteTrace,
    is_split_quick,
    lemma53_split,
    lemma54_rewrite,
    normalize_symbol,
)
from .coeff import FieldKind, FieldSpec, ResidueElem
from .extension import (
    Classification,
    CyclicExtDesc,
    ExtensionElem,
    RamReport,
    as_reduce,
    classify_deg_p,
    classify_len2,
    newton_valuations,
    norm_element,
)
from .grammar import (
    parse_element,
    parse_laurent,
    parse_symbol,
    parse_witt,
    render_laurent,
    render_symbol,
    render_witt,
)
from .theorems import (
    InsepNormalForm,
    SubfieldWitness,
    build_disjoint_division_pair,
    conjecture_roundtrip,
    cyclic_to_insep,
    division_certificate,
    insep_normal_form,
    insep_to_cyclic_p,
    insep_to_cyclic_p2,
    insep_to_cyclic_perfect,
)
from .valued import DEFAULT_PRECISION, LaurentElem
from .witt import (
    WittVector,
    artin_schreier_map,
    frobenius_twist,
    lemma54_closed_form,
    witt_add,
    witt_neg,
    witt_sub,
)

__version__ = "0.1.0"


def __getattr__(name):
    # cli is imported on first use, so that `python -m wittram.cli` does not
    # find it already imported by the package.
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BrauerSymbol",
    "Classification",
    "CyclicExtDesc",
    "DEFAULT_PRECISION",
    "ExtensionElem",
    "FieldKind",
    "FieldSpec",
    "InsepNormalForm",
    "LaurentElem",
    "RamReport",
    "ResidueElem",
    "RewriteOutcome",
    "RewriteTrace",
    "SubfieldWitness",
    "WittVector",
    "artin_schreier_map",
    "as_reduce",
    "brauer",
    "build_disjoint_division_pair",
    "classify_deg_p",
    "classify_len2",
    "cli",
    "coeff",
    "conjecture_roundtrip",
    "cyclic_to_insep",
    "division_certificate",
    "errors",
    "extension",
    "frobenius_twist",
    "grammar",
    "insep_normal_form",
    "insep_to_cyclic_p",
    "insep_to_cyclic_p2",
    "insep_to_cyclic_perfect",
    "is_split_quick",
    "lemma53_split",
    "lemma54_closed_form",
    "lemma54_rewrite",
    "newton",
    "newton_valuations",
    "norm_element",
    "normalize_symbol",
    "parse_element",
    "parse_laurent",
    "parse_symbol",
    "parse_witt",
    "render_laurent",
    "render_symbol",
    "render_witt",
    "sampling",
    "theorems",
    "valued",
    "witt",
    "witt_add",
    "witt_neg",
    "witt_sub",
]
