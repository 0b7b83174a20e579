import pytest

from mti.csw import su2_modular_data
from mti.intmat import IntMatrix, is_symplectic, mapping_torus_homology
from mti.modular import anharmonic_orbit
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
}


@pytest.mark.parametrize("case", REFUSALS)
def test_library_refusals_say_why(case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError, match=message):
        call()
