"""Exception types shared across the package.

Every error raised on malformed or unsupported input derives from
:class:`SubnormError`, so callers (in particular the CLI) can separate
"the input is bad" from "the property fails".
"""


class SubnormError(Exception):
    """Base class for all package-specific errors."""


class PosetLawViolation(SubnormError):
    """An order matrix is not reflexive, antisymmetric or transitive."""

    def __init__(self, law: str, witness: tuple):
        self.law = law
        self.witness = witness
        super().__init__(f"poset law violated: {law} at {witness}")


class NotALattice(SubnormError):
    """Some pair of elements has no least upper or greatest lower bound."""

    def __init__(self, kind: str, pair: tuple):
        self.kind = kind
        self.pair = pair
        super().__init__(f"no {kind} for pair {pair}")


class NotDistributive(SubnormError):
    """Operation requires a distributive lattice."""


class NotBounded(SubnormError):
    """Operation requires a bottom and a top element."""


class TooManyVariables(SubnormError):
    """A request for more variables than its ``cap`` supports (the free
    Boolean algebra's generators, or the atoms of an output query)."""

    def __init__(self, k: int, cap: int):
        self.k = k
        self.cap = cap
        super().__init__(f"{k} variables requested, supported maximum is {cap}")


class TooLarge(SubnormError):
    """Exhaustive enumeration requested beyond the supported size."""


class MissingStructure(SubnormError):
    """A property/rule needs structure (lattice ops, bounds, negation) the
    carrier does not have."""

    def __init__(self, what: str, need: str):
        self.what = what
        self.need = need
        super().__init__(f"{what} requires {need}")


class NegationLawsFail(SubnormError):
    """A negation table does not satisfy the laws needed for its extension."""

    def __init__(self, law: str, witness: tuple = ()):
        self.law = law
        self.witness = witness
        super().__init__(f"negation law fails: {law} at {witness}")


class NotMonotone(SubnormError):
    """Slanted operator extension requested on a non-monotone operator."""


class UnboundVariable(SubnormError):
    """A term variable (a formula's atom included) has no value under the
    given assignment."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unbound variable: {name}")


class MissingNegation(SubnormError):
    """A term uses negation but the carrier has no negation table."""


class NotSubordinationLattice(SubnormError):
    """Dual-space construction needs a subordination algebra on a bounded
    distributive lattice."""


class ParseError(SubnormError):
    """Syntax error in a formula, term, inequality or norm file."""

    def __init__(self, message: str, position: int):
        self.message = message
        self.position = position
        super().__init__(f"{message} (at position {position})")


class InputFormatError(SubnormError):
    """Malformed JSON/structure input."""
