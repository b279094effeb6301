"""Exception hierarchy shared by all dfan modules."""


class DfanError(Exception):
    """Base class for mathematical errors raised by the library."""


class DivisionByZeroModQ(DfanError):
    """Division by a parameter fraction whose numerator lies in Q."""


class NotPrime(DfanError):
    """Q is not prime: a one-parameter Q factors, or a product of two
    non-members of Q turned out to be a member."""


class ZeroOperator(DfanError):
    """Leading data requested for the zero operator."""


class ZeroDivisor(DfanError):
    """A divisor in a division call is the zero operator."""


class LeadingTermNotCancelled(DfanError):
    """A division step left a different nonzero coefficient on the term it
    was meant to cancel."""


class ExponentOverflow(DfanError):
    """An exponent field does not fit the width of its packed form."""


class NotAdmissible(DfanError):
    """A weight vector violates u_i <= 0 or u_i + v_i >= 0."""


class DenominatorVanishes(DfanError):
    """Specialization point annihilates a coefficient denominator."""


class DepthExceeded(DfanError):
    """Stratification recursion exceeded the depth budget."""


class NonConvergentTraversal(DfanError):
    """Fan traversal exceeded its cell or iteration budget."""


class OperatorSyntaxError(DfanError):
    """Parse failure in an operator or problem file, with position info."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + where)


class UnknownName(OperatorSyntaxError):
    """An identifier was used that is not among the declared names."""
