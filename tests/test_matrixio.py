import json

import numpy as np
import pytest

from gbsim import ValidationError
from gbsim.matrixio import dump_complex_matrix, load_complex_matrix, matrix_from_json, matrix_to_json, parse_complex_token, read_text


@pytest.mark.parametrize("tok, value", [("1.5", 1.5), ("2j", 2j), ("0.5-0.25j", 0.5 - 0.25j), ("0.5,-0.25", 0.5 - 0.25j), (" 3,0 ", 3)])
def test_tokens(tok, value):
    assert parse_complex_token(tok) == value


@pytest.mark.parametrize("tok", ["1,2,3", "a,1", "1,", "abc", "1+"], ids=["two-commas", "pair-not-numeric", "pair-half", "literal", "literal-half"])
def test_bad_token_rejected(tok):
    with pytest.raises(ValidationError, match="cannot parse complex entry"):
        parse_complex_token(tok)


def test_blank_lines_skipped(tmp_path):
    f = tmp_path / "m.txt"
    f.write_text("\n  1 2j\n\n\t\n3,0 4\r\n\n")
    assert np.array_equal(load_complex_matrix(f), np.array([[1, 2j], [3, 4]]))


def test_round_trip_bit_exact(tmp_path):
    m = np.random.default_rng(1).standard_normal((3, 3)) / 7 + 1j / 3
    f = tmp_path / "m.txt"
    f.write_text(dump_complex_matrix(m))
    assert np.array_equal(load_complex_matrix(f), m)


def test_inline_round_trip_bit_exact():
    # through JSON text, as a report's qform object is read back
    m = np.random.default_rng(2).standard_normal((3, 3)) / 7 + 1j / 3
    m[0, 0], m[1, 1] = complex(-0.0, 5e-324), complex(1e300, -0.0)
    back = matrix_from_json(json.loads(json.dumps(matrix_to_json(m))))
    assert np.array_equal(back, m) and np.array_equal(np.signbit(back.real), np.signbit(m.real))
    assert np.array_equal(np.signbit(back.imag), np.signbit(m.imag))


@pytest.mark.parametrize("text, match", [("", "is empty"), ("\n \n", "is empty"), ("1 2\n3\n", "has ragged rows"), ("1 x\n", "cannot parse")])
def test_bad_file_rejected(tmp_path, text, match):
    f = tmp_path / "m.txt"
    f.write_text(text)
    with pytest.raises(ValidationError, match=match):
        load_complex_matrix(f)


@pytest.mark.parametrize(
    "obj, match",
    [
        ([[1, 0]], "pairs"),
        ([[[1]]], "pairs"),
        ([[["a", 0]]], "pairs"),
        ([["10"]], "pairs"),
        ([[["1", "0"]]], "pairs"),
        ([[[1, 0, 5]]], "pairs"),
        ([[{"re": 1, "im": 0}]], "pairs"),
        ([[[True, 0]]], "pairs"),
        ([[[1, None]]], "pairs"),
        ([[[10**400, 0]]], "pairs"),
        (5, "pairs"),
        ([], "inline unitary is empty"),
        ([[[1, 0], [0, 0]], [[1, 0]]], "inline unitary has ragged rows"),
    ],
    ids=[
        "number-entries", "short-pair", "string-entry", "string-as-pair", "string-numbers", "three-numbers",
        "object", "bool", "null", "int-beyond-float", "not-an-array", "empty", "ragged",
    ],
)
def test_bad_inline_rejected(obj, match):
    with pytest.raises(ValidationError, match=match):
        matrix_from_json(obj)


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8"])
def test_read_text_errors_are_validation_errors(tmp_path, case):
    path = tmp_path / "f.txt"
    if case == "directory":
        path.mkdir()
    elif case == "not-utf8":
        path.write_bytes(b"\xff\xfe")
    with pytest.raises(ValidationError, match="cannot read the input: .*f.txt"):
        read_text(path, "the input")
