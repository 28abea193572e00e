"""Coordinate and constant jets, the inputs of the reference jet products."""

import numpy as np

from coulomb2e.jets import Jet, _layout


def variable(value, axis, shape, degree=None):
    """The coordinate function x_axis, expanded at `value`."""
    lay = _layout(tuple(shape), degree)
    c = np.zeros(lay.n)
    c[0] = value
    unit = tuple(int(k == axis) for k in range(len(lay.shape)))
    if unit in lay.index:
        c[lay.index[unit]] = 1.0
    return Jet(c, lay)


def const(value, shape, degree=None):
    """The constant `value`: its `c` may be written in place."""
    lay = _layout(tuple(shape), degree)
    c = np.zeros(lay.n)
    c[0] = value
    return Jet(c, lay)
