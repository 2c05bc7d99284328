"""The one number rule every input file is read by."""

import pytest

from jamloop.numbers import real, whole

NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("value,as_whole,as_real", [
    (2, 2, 2.0),
    (1, 1, 1.0),  # real returns an integer as a float
    (2.0, "is not a whole number", 2.0),
    (2.7, "is not a whole number", 2.7),
    ("2", "is not a number", "is not a number"),
    (True, "is not a number", "is not a number"),
    (None, "is not a number", "is not a number"),
    ([2], "is not a number", "is not a number"),
    (NAN, "is not a whole number", "is not finite"),
    (INF, "is not a whole number", "is not finite"),
    (-INF, "is not a whole number", "is not finite"),
    (10 ** 400, 10 ** 400, "is not finite"),  # past the largest float
], ids=["int", "one", "whole_float", "fraction", "quoted", "bool", "null", "list", "nan", "inf",
        "-inf", "huge_int"])
@pytest.mark.parametrize("read", [whole, real])
def test_rule(read, value, as_whole, as_real):
    want = as_whole if read is whole else as_real
    if isinstance(want, str):
        with pytest.raises(ValueError) as exc:
            read(value, "k")
        assert str(exc.value) == f"k {value!r} {want}"
    else:
        got = read(value, "k")
        assert got == want and type(got) is type(want)

