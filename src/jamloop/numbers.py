"""The one rule for a number in a JSON or YAML input file (a trace, schedule,
config, model file or registry journal). A whole number is an integer, so
`2.0` is not one; a real number is an integer or a finite float; a boolean,
a quoted number or null is neither. Each error is a ValueError naming `key`,
and the caller adds the file and line, the entry or the section.
"""

import math


def whole(value, key: str) -> int:
    """`value` if it is an integer; a float, `2.0` included, or a non-number raises."""
    if type(value) is int:  # not bool, which is an int: true would read as 1
        return value
    if type(value) is float:
        raise ValueError(f"{key} {value!r} is not a whole number")
    raise ValueError(f"{key} {value!r} is not a number")


def real(value, key: str) -> float:
    """`value` as a float if it is a finite integer or float; anything else raises."""
    if type(value) is float:
        if math.isfinite(value):
            return value
        raise ValueError(f"{key} {value!r} is not finite")
    if type(value) is not int:
        raise ValueError(f"{key} {value!r} is not a number")
    try:
        return float(value)
    except OverflowError:  # an integer past the largest float
        raise ValueError(f"{key} {value!r} is not finite") from None
