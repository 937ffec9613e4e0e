"""MatrixFile encode and decode against the per-entry reference loops.

``serialize`` decodes a matrix file in whole-list passes and one numpy
conversion, and encodes it with one ``tolist``.  The loops below are the
per-entry forms they replace; valid input must give the same bits, and
each kind of malformed input the same exception and message.
"""

import json

import numpy as np
import pytest

from epkit import MAX_DIM, InvalidDimension, MatrixFileError
from epkit.serialize import matrix_from_payload, matrix_to_payload


def reference_decode(doc) -> np.ndarray:
    """Decode ``doc["data"]`` one entry at a time (rows and cols already valid)."""
    rows, cols, data = doc["rows"], doc["cols"], doc["data"]
    if not isinstance(data, list) or len(data) != rows:
        raise MatrixFileError(f"data must be a list of {rows} rows")
    out = np.zeros((rows, cols), dtype=np.complex128)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise MatrixFileError(f"row {i} must be a list of {cols} entries")
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(
                    isinstance(part, (int, float)) and not isinstance(part, bool)
                    for part in entry
                )
            ):
                raise MatrixFileError(f"entry ({i}, {j}) must be a [re, im] number pair")
            try:
                re, im = float(entry[0]), float(entry[1])
            except OverflowError:
                raise MatrixFileError(f"entry ({i}, {j}) is not finite") from None
            if not np.isfinite(re) or not np.isfinite(im):
                raise MatrixFileError(f"entry ({i}, {j}) is not finite")
            out[i, j] = complex(re, im)
    return out


def reference_data(matrix) -> list:
    m = np.asarray(matrix, dtype=np.complex128)
    rows, cols = m.shape
    return [
        [[float(m[i, j].real), float(m[i, j].imag)] for j in range(cols)]
        for i in range(rows)
    ]


def document(data) -> dict:
    return {"version": "1", "rows": len(data), "cols": len(data[0]), "data": data}


def random_matrix(n: int) -> np.ndarray:
    rng = np.random.default_rng([7, n])
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


VALID = {
    "ints_past_2_53": [
        [[2**53 + 1, -(2**53 + 1)], [2**63, -(2**63) - 1]],
        [[2**64 + 1, 3**300], [-(10**300), 9007199254740993]],
    ],
    "negative_zero": [[[-0.0, 0.0], [0.0, -0.0]], [[-0.0, -0.0], [1, -0.0]]],
    "subnormals": [
        [[5e-324, -5e-324], [2.5e-310, 0]],
        [[-2.2250738585072e-308, 1e-320], [0, 4e-323]],
    ],
    "ints_and_floats": [[[1, 0.5], [-2, 0]], [[0.25, 3], [7, -1.5]]],
    "numpy_float64_parts": [
        [[np.float64(1.5), np.float64(-0.0)], [2, np.float64(5e-324)]],
        [[np.float64(-3), 0.5], [np.float64(1e308), -1]],
    ],
    "random_d256": reference_data(random_matrix(MAX_DIM)),
}


@pytest.mark.parametrize("name", list(VALID))
def test_valid_data_decodes_to_the_reference_bits(name):
    doc = document(VALID[name])
    want = reference_decode(doc)
    got = matrix_from_payload(doc)
    assert got.dtype == np.complex128 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# Each fault sits at entry (1, 2) of a 3 x 4 file, alone or followed by a
# second fault at (2, 3): alone it must stop the array pass by itself, and
# with the second one the first in row-major order must be the one reported.
FAULTS = {
    "bool_re": "[true, 0]",
    "bool_im": "[1, false]",
    "str": '["1", 0]',
    "null": "[null, 0]",
    "one_part": "[1.5]",
    "three_parts": "[1, 2, 3]",
    "not_a_list": "2.5",
    "huge_int": "[1" + "0" * 400 + ", 0]",
    "huge_negative_int_im": "[0, -1" + "0" * 400 + "]",
    "literal_1e400": "[0, 1e400]",
    "short_row": None,
}


def faulty_text(fault: str | None, later: bool) -> str:
    rows = [["[0.5, -1]"] * 4 for _ in range(3)]
    if fault is None:
        rows[1].pop()
    else:
        rows[1][2] = fault
    if later:
        rows[2][3] = '["later", 0]'
    data = ", ".join("[" + ", ".join(row) + "]" for row in rows)
    return '{"version": "1", "rows": 3, "cols": 4, "data": [' + data + "]}"


@pytest.mark.parametrize("later", [False, True], ids=["alone", "then_later_fault"])
@pytest.mark.parametrize("kind", list(FAULTS))
def test_first_fault_matches_the_reference(kind, later):
    doc = json.loads(faulty_text(FAULTS[kind], later))
    with pytest.raises(Exception) as want:
        reference_decode(doc)
    with pytest.raises(Exception) as got:
        matrix_from_payload(doc)
    assert type(got.value) is type(want.value) is MatrixFileError
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(("entry (1, 2) ", "row 1 "))


@pytest.mark.parametrize("shape", [(300, 300), (1, MAX_DIM + 1), (MAX_DIM + 1, 1)])
def test_cap_is_checked_before_the_data(shape):
    rows, cols = shape
    doc = {"version": "1", "rows": rows, "cols": cols, "data": "not read"}
    with pytest.raises(InvalidDimension) as err:
        matrix_from_payload(doc)
    assert str(err.value) == f"matrix of shape {shape} exceeds the 256x256 cap"


@pytest.mark.parametrize(
    "matrix",
    [
        np.array([[-0.0, complex(0.0, -0.0)], [complex(-0.0, 1.0), 0.0]]),
        np.array([[5e-324, complex(-5e-324, 5e-324)]]),
        np.array([[1e308], [complex(-1e308, 1e308)]]),
        random_matrix(64),
    ],
    ids=["negative_zero", "subnormal", "near_max", "random_d64"],
)
def test_encode_matches_the_reference_bytes(matrix):
    def render(doc):
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)

    assert render(matrix_to_payload(matrix)) == render(document(reference_data(matrix)))
