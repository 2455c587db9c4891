"""``dump_json`` writes every finite float so that it reads back as a
float with the same bits, and refuses the non-finite ones."""

import json
import math
import struct

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hubsim.jsonio import dump_json


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0)
@example(5e-324)
@example(1.7976931348623157e308)
@example(0.1)
@example(2.0)
def test_finite_float_round_trips_bitwise(x):
    back = json.loads(dump_json({"x": x}))["x"]
    assert type(back) is float and bits(back) == bits(x)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_float_raises(x):
    with pytest.raises(ValueError):
        dump_json({"x": x})
