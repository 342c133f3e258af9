"""algforge: exact symbolic algebra for multilinear identity systems.

Subpackages:

* ``core``        polynomials over planar operation trees, substitution,
                  polarization, rewrite rules
* ``parsing``     the expression grammar, identity files, compact products
* ``kp``          the variant-operation transform (Parts 1 and 2)
* ``consequence`` monomial bases, instance spans, certificates, kernels
* ``leibniz``     the free Leibniz algebra in tensor-word normal form
* ``rightcomm``   straightening and the permuted-associator expansions
* ``systems``     structure-constant tables, envelopes, quadratic systems
* ``fixtures``    the named identity corpus and transcribed goldens
* ``checks``      the replay scenarios behind the acceptance suite
* ``cli``         the ``forge`` command line front end
"""

from .core import (
    AlgebraError,
    ArityError,
    CyclicRules,
    Identity,
    Monomial,
    OpSymbol,
    Polynomial,
    RewriteRule,
    Variable,
    VariableClash,
    apply_op,
    apply_rules,
    normalize_scalar,
    polarize,
    relabel,
    rename_ops,
    rule_from_identity,
    substitute,
    variables,
)
from .parsing import ParseError, Signature, format_polynomial, parse, parse_file

__all__ = [
    "AlgebraError",
    "ArityError",
    "CyclicRules",
    "Identity",
    "Monomial",
    "OpSymbol",
    "ParseError",
    "Polynomial",
    "RewriteRule",
    "Signature",
    "Variable",
    "VariableClash",
    "apply_op",
    "apply_rules",
    "format_polynomial",
    "normalize_scalar",
    "parse",
    "parse_file",
    "polarize",
    "relabel",
    "rename_ops",
    "rule_from_identity",
    "substitute",
    "variables",
]

__version__ = "0.1.0"
