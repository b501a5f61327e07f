"""Exact computational algebra for elliptic cohomology: graded polynomial
rings, elliptic-curve formal group laws, weighted-projective descent,
Hopf algebroid cobar cohomology, and the mod-2 dual Steenrod algebra."""

__version__ = "0.1.0"

# Which term-multiplication kernel runs.  There is one backend, pure
# Python, with two kernels: `poly._mul_terms` for plain products and
# `poly._mul_terms_bounded` for products truncated in some variables.
# One bounded kernel for both was measured about 7% slower on the Steenrod
# workload and 5% slower on the cobar workload, so they stay two.
KERNEL_BACKEND = "python"


class InvariantError(Exception):
    """A computed result broke an invariant the engine checks itself (a
    cross-check disagreed, d^2 != 0, an iteration did not converge).  The
    CLI maps it to exit status 1."""
