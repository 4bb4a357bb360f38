"""Text formats for complex matrices.

File format: one matrix row per line, entries separated by whitespace.
Each entry is either a Python complex literal ("0.5-0.25j", "1.5", "2j") or
a comma pair "re,im".  Writing always uses the literal form with 17
significant digits, so written files round-trip bit-exactly.  Every input
file is read through `read_text`, and every matrix, from a file or inline,
must be rectangular and finite: a nan or inf entry raises ValidationError.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


def parse_complex_token(tok: str) -> complex:
    tok = tok.strip()
    try:
        if "," not in tok:
            return complex(tok)
        real, imag = tok.split(",")  # a third part fails to unpack
        return complex(float(real), float(imag))
    except ValueError:
        raise ValidationError(f"cannot parse complex entry {tok!r}") from None


def format_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


def read_text(path, what: str) -> str:
    """The UTF-8 text of the input file at `path`; a file that cannot be read or
    decoded raises ValidationError naming `what`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {what}: {exc}") from None
    except UnicodeDecodeError:
        raise ValidationError(f"cannot read {what}: not UTF-8 text: '{path}'") from None


def _matrix(rows: list[list[complex]], what: str) -> np.ndarray:
    if not rows:
        raise ValidationError(f"{what} is empty")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValidationError(f"{what} has ragged rows")
    a = np.array(rows, dtype=complex)
    if not np.isfinite(a).all():
        raise ValidationError(f"{what} has a non-finite entry (nan or inf)")
    return a


def load_complex_matrix(path) -> np.ndarray:
    lines = read_text(path, "matrix file").split("\n")  # text mode turned every line end into \n
    rows = [[parse_complex_token(tok) for tok in line.split()] for line in lines]
    return _matrix([row for row in rows if row], f"matrix file {path}")


def dump_complex_matrix(m) -> str:
    m = np.asarray(m, dtype=complex)
    return "\n".join(" ".join(format_complex(z) for z in row) for row in m) + "\n"


def _pair(entry) -> complex:
    """One inline entry: a two-element array of JSON numbers (not bools), re + i im."""
    if isinstance(entry, list) and len(entry) == 2 and all(type(x) in (int, float) for x in entry):
        return complex(float(entry[0]), float(entry[1]))  # an int beyond float range overflows
    raise TypeError(entry)


def matrix_from_json(obj) -> np.ndarray:
    """Inline config form: nested arrays of [re, im] pairs.  Each entry must be a
    two-element array of numbers; a string, a bool, an object or an array of
    another length is refused, never read in part."""
    try:
        rows = [[_pair(e) for e in row] for row in obj]
    except (TypeError, OverflowError):
        raise ValidationError("inline unitary must be a nested array of [re, im] pairs") from None
    return _matrix(rows, "inline unitary")
