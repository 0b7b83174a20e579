from dataclasses import astuple

import numpy as np
import pytest

from mti.csw import su2_modular_data
from mti.intmat import IntMatrix, is_symplectic, mapping_torus_homology, smith_normal_form
from mti.modular import anharmonic_orbit
from mti.sl2 import Sl2Matrix
from mti.weight1 import is_cube_mod_p

# the library's refusals that no other test reads by message: each call
# passes every check before the one named, so deleting that check lets the
# call return or fail with another error
REFUSALS = {
    "entry count": (lambda: IntMatrix(2, 2, [1, 2, 3]), "need 4 entries, got 3"),
    "empty rows": (lambda: IntMatrix.from_rows([]), "empty matrix"),
    "ragged rows": (lambda: IntMatrix.from_rows([[1, 2], [3]]), "ragged rows"),
    "product shapes": (lambda: IntMatrix.zero(2, 3) * IntMatrix.zero(2, 3), "dimension mismatch"),
    "difference shapes": (lambda: IntMatrix.zero(2, 2) - IntMatrix.zero(2, 3), "shape mismatch"),
    "genus shape": (lambda: mapping_torus_homology(IntMatrix.identity(3)), "expected a 2g x 2g matrix"),
    "symplectic shape": (lambda: is_symplectic(IntMatrix.identity(2), 2), "expected a 4x4 matrix"),
    "level zero": (lambda: su2_modular_data(0), "level must be a positive integer"),
    "composite p": (lambda: is_cube_mod_p(2, 25), "25 is not prime"),
    "lambda value zero": (lambda: anharmonic_orbit(0j), "degenerate lambda value"),
    # these three were taken: Z(A, p) of the first read DwValue(value=1,
    # exponent=0) for every p, and the SNF of the last read [1, 6]
    "float matrix entry": (lambda: Sl2Matrix(0.5, 0, 0, 2), "entries must be integers, got 0.5"),
    "bool matrix entry": (lambda: Sl2Matrix(True, 0, 0, True), "entries must be integers, got True"),
    "float integer matrix entry": (
        lambda: smith_normal_form(IntMatrix.from_rows([[2.7, 0], [0, 3]])),
        "entries must be integers, got 2.7",
    ),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_library_refusals_say_why(case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError, match=message):
        call()


def test_matrices_take_numpy_integers_as_ints():
    # the integer check takes what operator.index takes, bools aside, and
    # keeps the int it returns
    a = Sl2Matrix(np.int64(2), np.int32(1), np.int8(1), np.uint16(1))
    assert a == Sl2Matrix(2, 1, 1, 1) and all(type(x) is int for x in astuple(a))
    m = IntMatrix.from_rows([[np.int64(2), 0], [0, np.int16(3)]])
    assert m.entries == [2, 0, 0, 3] and all(type(x) is int for x in m.entries)
    with pytest.raises(ValueError, match="entries must be integers"):
        IntMatrix.from_rows([[np.True_, 0], [0, 1]])
