from dataclasses import astuple

import numpy as np
import pytest

from mti import bqf
from mti.bqf import classes_with_trace
from mti.census import census, log_integral
from mti.csw import csw_invariant, su2_modular_data
from mti.intmat import IntMatrix, is_symplectic, mapping_torus_homology, smith_normal_form
from mti.modular import anharmonic_orbit
from mti.sl2 import Sl2Matrix, classify_mod_p, dw_invariant_genus_g, dw_invariant_sl2, slp_class_census
from mti.weight1 import is_cube_mod_p

# the library's refusals that no other test reads by message: each call
# passes every check before the one named, so deleting that check lets the
# call return or fail with another error
REFUSALS = {
    "entry count": (lambda: IntMatrix(2, 2, [1, 2, 3]), "need 4 entries, got 3"),
    "empty rows": (lambda: IntMatrix.from_rows([]), "empty matrix"),
    "ragged rows": (lambda: IntMatrix.from_rows([[1, 2], [3]]), "ragged rows"),
    "difference shapes": (lambda: IntMatrix.identity(2) - IntMatrix(2, 3, [0] * 6), "shape mismatch"),
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
    # these two were taken: the first as 3x3 data for a level that does not
    # exist, the second as level 1
    "float level": (lambda: su2_modular_data(1.5), "level must be a positive integer, got 1.5"),
    "bool level": (lambda: csw_invariant(Sl2Matrix(2, 1, 1, 1), True), "level must be a positive integer, got True"),
    # the first overflowed converting to float, and the second, below the
    # band where QAGS keeps li's one path, read 0.6221...
    "li past the floats": (lambda: log_integral(10**400), "x must be 2 or a finite float of at least 3"),
    "li between 2 and 3": (lambda: log_integral(2.5), "x must be 2 or a finite float of at least 3"),
    # these three were taken: the first gave DwValue(value=3.0, exponent=1),
    # the second value=9.0 and the third a label with p=3.0; the integer
    # call first fills is_prime's cache, which answers 3.0 with the entry of 3
    "float prime": (
        lambda: [dw_invariant_sl2(Sl2Matrix(4, 3, 5, 4), p) for p in (3, 3.0)],
        "p must be an integer, got 3.0",
    ),
    "float prime, genus g": (lambda: dw_invariant_genus_g(IntMatrix.identity(2), 3.0), "p must be an integer, got 3.0"),
    "float prime, classification": (
        lambda: [classify_mod_p(Sl2Matrix(4, 3, 5, 4), p) for p in (3, 3.0)],
        "p must be an integer, got 3.0",
    ),
    # this raised TypeError from range: 5.0 passed the test p in (3, 5, ...)
    "float prime, SL(2, F_p) census": (lambda: slp_class_census(5.0), "p must be an odd prime <= 13, got 5.0"),
    # these four raised TypeError from operator.index
    "float prime, census": (lambda: census(3.0, 100), "p must be an integer, got 3.0"),
    "float bound, census": (lambda: census(5, 100.0), "T must be an integer, got 100.0"),
    "float trace": (lambda: classes_with_trace(7.0), "t must be an integer, got 7.0"),
    "float bound, trace counts": (lambda: bqf._trace_counts(60.0), "T must be an integer, got 60.0"),
    # these two constructed: the cokernel of the first was refused only
    # because building its certificates called from_rows([]), and with no
    # certificates its H1 would read Z and its Z/p value 1
    "empty matrix, 0x0": (lambda: IntMatrix(0, 0, []), "empty matrix"),
    "empty matrix, 2x0": (lambda: IntMatrix(2, 0, []), "empty matrix"),
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


def test_levels_take_numpy_integers_as_ints():
    data = su2_modular_data(np.int64(3))
    assert type(data.k) is int and data.k == 3
    assert csw_invariant(Sl2Matrix(2, 1, 1, 1), np.int16(3)) == csw_invariant(Sl2Matrix(2, 1, 1, 1), 3)


def test_primes_take_numpy_integers_as_ints():
    # a numpy prime near 2^61 is taken as the int, so p^2 does not wrap in
    # int64; it used to raise TypeError from pow inside is_prime
    p = 2**61 - 1
    values = [
        dw_invariant_sl2(Sl2Matrix(1, 0, 0, 1), np.int64(p)),
        dw_invariant_genus_g(IntMatrix.identity(2), np.int64(p)),
    ]
    assert all(v.value == p * p and type(v.value) is int and v.exponent == 2 for v in values)
    label = classify_mod_p(Sl2Matrix(1, 0, 0, 1), np.uint64(p))
    assert label.kind == "C1" and type(label.p) is int and type(label.trace_mod_p) is int
    # and the cube test, which raised TypeError from pow
    assert is_cube_mod_p(2, np.int64(p)) == (pow(2, (p - 1) // 3, p) == 1)
