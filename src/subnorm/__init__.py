"""Finite-model engine for conditional-norm reasoning over ordered
algebras carrying a subordination-style relation.

The package builds finite posets, lattices and Boolean algebras,
completes them by cuts, equips them with relation-induced diamond/box
operators, evaluates modal inequalities, closes normative systems under
the standard rule systems, constructs the dual relational spaces, and
ships a brute-force harness that confirms every operator/relation
correspondence on finite instances.
"""

from . import (completion, duality, harness, iologic, order, slanted, subordination,
               syntax)
from .errors import SubnormError

__version__ = "0.1.0"

__all__ = [
    "SubnormError", "completion", "duality", "harness", "iologic",
    "order", "slanted", "subordination", "syntax", "__version__",
]
