"""CSV matrix and binary PGM readers/writers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from aqmf.cli import main
from aqmf.matrixio import (
    ParseError,
    read_csv_matrix,
    read_pgm,
    write_csv_matrix,
    write_pgm,
)
from aqmf.types import MaskedMatrix


def test_csv_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    vals = rng.normal(size=(6, 4)) * 10.0 ** rng.integers(-8, 8, size=(6, 4))
    mask = rng.random((6, 4)) > 0.3
    mask.flat[0] = True
    X = MaskedMatrix(np.where(mask, vals, 0.0), mask)
    p = tmp_path / "m.csv"
    write_csv_matrix(p, X)
    back = read_csv_matrix(p)
    np.testing.assert_array_equal(back.mask, X.mask)
    np.testing.assert_array_equal(back.values[back.mask], X.values[X.mask])


def test_csv_nan_tokens_mark_missing(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1.5,NaN,2\nnan,3,NAN\n")
    X = read_csv_matrix(p)
    np.testing.assert_array_equal(
        X.mask, [[True, False, True], [False, True, False]]
    )
    assert X.values[0, 0] == 1.5
    assert X.values[1, 1] == 3.0


def test_csv_trailing_newlines_ignored(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\n3,4\n\n\n")
    assert read_csv_matrix(p).shape == (2, 2)


def test_csv_empty_file_rejected(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(ParseError, match="empty matrix file"):
        read_csv_matrix(p)


def test_csv_ragged_row_names_row(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1,2,3\n4,5\n")
    with pytest.raises(ParseError, match="row 2 has 2 fields, expected 3"):
        read_csv_matrix(p)


def test_csv_bad_token_names_position(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1,2\n3,x7\n")
    with pytest.raises(ParseError, match="row 2, column 2: cannot parse 'x7'"):
        read_csv_matrix(p)


def test_csv_rejects_infinities(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1,inf\n")
    with pytest.raises(ParseError, match="non-finite"):
        read_csv_matrix(p)


@pytest.mark.parametrize(
    "token, expected",
    [
        ("2.5", 2.5),
        (" NaN ", None),
        ("nan", None),
        ("NAN", None),
        ("\tnAn", None),
        ("1_0", 10.0),
        ("-0", -0.0),
        (" -1.25e-3\t", -1.25e-3),
        ("1e-400", 0.0),
        ("4.9406564584124654e-324", 5e-324),
        ("1.7976931348623157e308", 1.7976931348623157e308),
        ("-nan", "non-finite value '-nan'"),
        ("+NaN", "non-finite value '+NaN'"),
        ("inf", "non-finite value 'inf'"),
        ("-Infinity", "non-finite value '-Infinity'"),
        ("1e400", "non-finite value '1e400'"),
        ("x", "cannot parse 'x'"),
        ("", "cannot parse ''"),
        ("0x10", "cannot parse '0x10'"),
        ("nan nan", "cannot parse 'nan nan'"),
    ],
)
def test_csv_token(tmp_path, token, expected):
    """Each token in column 2: its value bit for bit, missing (None), or the
    exact error message."""
    p = tmp_path / "t.csv"
    p.write_text(f"1,{token}\n")
    if isinstance(expected, str):
        with pytest.raises(ParseError) as err:
            read_csv_matrix(p)
        assert str(err.value) == f"{p}: row 1, column 2: {expected}"
        return
    X = read_csv_matrix(p)
    assert X.values.dtype == np.float64 and X.mask.dtype == bool
    if expected is None:
        assert X.mask.tolist() == [[True, False]]
        assert X.values[0, 1:].tobytes() == np.array([np.nan]).tobytes()
    else:
        assert X.mask.tolist() == [[True, True]]
        assert X.values[0, 1:].tobytes() == np.array([expected]).tobytes()


def test_csv_reports_first_bad_token_in_row_order(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("1,2,3\n4,inf,x\n")
    with pytest.raises(ParseError) as err:
        read_csv_matrix(p)
    assert str(err.value) == f"{p}: row 2, column 2: non-finite value 'inf'"
    p.write_text("1,2,3\n4,x,inf\n")
    with pytest.raises(ParseError) as err:
        read_csv_matrix(p)
    assert str(err.value) == f"{p}: row 2, column 2: cannot parse 'x'"


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_csv_roundtrip_with_holes_is_byte_identical(tmp_path_factory, data):
    shape = data.draw(hnp.array_shapes(min_dims=2, max_dims=2, max_side=7))
    values = data.draw(hnp.arrays(np.float64, shape,
                                  elements=st.floats(allow_nan=False, allow_infinity=False)))
    mask = data.draw(hnp.arrays(np.bool_, shape))
    mask.flat[data.draw(st.integers(0, mask.size - 1))] = True
    X = MaskedMatrix(np.where(mask, values, np.nan), mask)
    p = tmp_path_factory.mktemp("roundtrip") / "m.csv"
    write_csv_matrix(p, X)
    back = read_csv_matrix(p)
    assert back.values.tobytes() == X.values.tobytes()
    np.testing.assert_array_equal(back.mask, X.mask)


def test_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    grid = rng.random((5, 7))
    p = tmp_path / "img.pgm"
    write_pgm(p, grid)
    back = read_pgm(p)
    assert back.shape == (5, 7)
    # one quantization step of slack at 255 levels
    assert np.max(np.abs(back - grid)) <= 0.5 / 255.0 + 1e-12
    # a quantized image survives a second trip exactly
    write_pgm(p, back)
    np.testing.assert_array_equal(read_pgm(p), back)


def test_pgm_header_format(tmp_path):
    p = tmp_path / "img.pgm"
    write_pgm(p, np.zeros((2, 3)))
    data = p.read_bytes()
    assert data.startswith(b"P5\n3 2\n255\n")
    assert len(data) == len(b"P5\n3 2\n255\n") + 6


def test_pgm_comments_and_maxval_scaling(tmp_path):
    p = tmp_path / "img.pgm"
    p.write_bytes(b"P5 # comment\n# another\n2 1\n100\n" + bytes([0, 50]))
    grid = read_pgm(p)
    np.testing.assert_allclose(grid, [[0.0, 0.5]])


def test_pgm_rejects_wrong_magic(tmp_path):
    p = tmp_path / "img.pgm"
    p.write_bytes(b"P2\n1 1\n255\n0")
    with pytest.raises(ParseError, match="not a binary PGM"):
        read_pgm(p)


def test_pgm_rejects_truncated_pixels(tmp_path):
    p = tmp_path / "img.pgm"
    p.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
    with pytest.raises(ParseError, match="truncated"):
        read_pgm(p)


def test_pgm_rejects_wide_maxval(tmp_path):
    p = tmp_path / "img.pgm"
    p.write_bytes(b"P5\n1 1\n65535\n\0\0")
    with pytest.raises(ParseError, match="unsupported maxval"):
        read_pgm(p)


def test_pgm_rejects_pixel_above_maxval(tmp_path, capsys):
    image = tmp_path / "img.pgm"
    image.write_bytes(b"P5\n3 2\n100\n" + bytes([0, 100, 7, 50, 200, 255]))
    message = "row 2, column 2: pixel 200 above maxval 100"
    with pytest.raises(ParseError, match=message):
        read_pgm(image)
    rc = main(["inpaint", "--image", str(image), "--mask", str(image), "--rank", "1",
               "--output", str(tmp_path / "out.pgm")])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.pgm").exists()


def test_write_pgm_clamps_out_of_range(tmp_path):
    p = tmp_path / "img.pgm"
    write_pgm(p, np.array([[-1.0, 2.0]]))
    np.testing.assert_allclose(read_pgm(p), [[0.0, 1.0]])
    with pytest.raises(ValueError):
        write_pgm(p, np.array([[np.nan, 0.0]]))
