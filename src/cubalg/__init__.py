"""Exact computational algebra for elliptic cohomology: graded polynomial
rings, elliptic-curve formal group laws, weighted-projective descent,
Hopf algebroid cobar cohomology, and the mod-2 dual Steenrod algebra."""

__version__ = "0.1.0"

# Which term-multiplication kernel runs.  There is one, in pure Python:
# `poly._mul_terms` and `poly._mul_terms_bounded`.
KERNEL_BACKEND = "python"


class InvariantError(Exception):
    """A computed result broke an invariant the engine checks itself (a
    cross-check disagreed, d^2 != 0, an iteration did not converge).  The
    CLI maps it to exit status 1."""
