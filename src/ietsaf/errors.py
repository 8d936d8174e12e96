"""Exception types shared across the library.

All invalid-input conditions derive from InputError so the command line
front end can map them to a single exit code; iteration-cap overruns are
kept separate because they signal "gave up", not "bad input".
"""


class InputError(ValueError):
    """Invalid input: bad file, malformed polynomial, violated precondition."""


class ParseError(InputError):
    """Malformed textual input (IET files, polynomial or interval strings)."""


class PolynomialError(InputError):
    """Polynomial operation applied outside its domain."""


class NonSquarefreeError(PolynomialError):
    """A squarefree polynomial was required (detected via gcd(p, p'))."""


class DomainError(InputError):
    """Interval exchange precondition violated (point outside domain, etc.)."""


class FieldMismatchError(InputError):
    """Operands belong to different number fields."""


class ReducibleModulusError(InputError):
    """Arithmetic uncovered a nontrivial factor of a field modulus.

    The offending factor is kept so callers can report it.
    """

    def __init__(self, factor):
        self.factor = factor
        super().__init__(f"reducible modulus, factor found: {factor}")


class IterationCapError(RuntimeError):
    """An iterative procedure exceeded its configured iteration cap."""
