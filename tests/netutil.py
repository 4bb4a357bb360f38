"""Fixture networks for the tests."""

import math

import numpy as np

from gbsim import Interferometer, validate_unitary


def tmsv_network() -> Interferometer:
    """Two-mode network that entangles two equally squeezed inputs into a
    two-mode squeezed vacuum: a pi/2 phase shifter on input port 0 followed
    by a 50:50 beam splitter.
    """
    c = 1 / math.sqrt(2)
    bs = np.array([[c, -c], [c, c]])
    return validate_unitary(np.diag([1j, 1.0]) @ bs)
