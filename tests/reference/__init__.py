"""Test-side references for the closed forms of the `coulomb2e` package.

`oracle` re-derives the moments by quadrature, `elements` evaluates one
matrix element at a time through the package's own moment code (the
reference the block kernels must match to the bit), and `jets` builds the
jet variables and constants that reference products start from.  The
tests import this package as `reference`: pytest puts `tests/` on sys.path.
"""
