"""Exact Yang-Baxter bases of type-A Hecke algebras.

The package computes, over an exact rational-function field:

* the six classical operator families on the polynomial ring,
* Yang-Baxter bases of the corresponding Hecke algebras (by recursion and by
  Rothe-diagram factorization), their bilinear form and orthogonality,
* double Schubert and Grothendieck polynomial tables, and the transition
  checks identifying Yang-Baxter coefficients with their specializations.

Results are plain containers: a table is a dict from mu to its polynomial,
a transition driver's result the set of table entries it found wrong (and
its report), and a Rothe diagram the tuple of its boxes.  ``AlgebraSpec``
and ``RotheBox`` are named tuples and a check report is a plain object, so
``import ybhecke`` loads no introspection module (``dataclasses``,
``inspect``, ``ast``, ``dis``, ``tokenize``).

Everything is exact; there is no floating point anywhere.
"""

from .errors import YBHeckeError
from .hecke import (
    AlgebraSpec,
    HeckeElement,
    algebra,
    basis_element,
    delta,
    elementary_factor,
    expand_in_yb,
    gram_matrix,
    iter_yb_basis,
    pairing,
    permuted_spectral,
    phi,
    symbolic_spectral,
    unit,
    yb_basis,
    yb_element,
    yb_element_rothe,
)
from .permutations import Permutation, all_permutations, all_reduced_words, rothe_diagram
from .poly import (
    LaurentPoly,
    RationalFunction,
    lowest_homogeneous_component,
    substitute,
)
from .schubert import (
    grothendieck_table,
    schubert_table,
    specialize_double,
    verify_grothendieck_transition,
    verify_schubert_transition,
    yang_coefficients,
)
from .serialize import parse_poly, parse_scalar

__version__ = "0.1.0"

__all__ = [
    "AlgebraSpec",
    "HeckeElement",
    "LaurentPoly",
    "Permutation",
    "RationalFunction",
    "YBHeckeError",
    "algebra",
    "all_permutations",
    "all_reduced_words",
    "basis_element",
    "delta",
    "elementary_factor",
    "expand_in_yb",
    "gram_matrix",
    "grothendieck_table",
    "iter_yb_basis",
    "lowest_homogeneous_component",
    "pairing",
    "parse_poly",
    "parse_scalar",
    "permuted_spectral",
    "phi",
    "rothe_diagram",
    "schubert_table",
    "specialize_double",
    "substitute",
    "symbolic_spectral",
    "unit",
    "verify_grothendieck_transition",
    "verify_schubert_transition",
    "yang_coefficients",
    "yb_basis",
    "yb_element",
    "yb_element_rothe",
]
