"""One table of malformed reals against every real-valued parameter.

Every real a caller hands the package passes `hashing.check_real`: a
Python or numpy integer or float, never a bool, strictly inside the
parameter's open interval, so NaN and +-inf never pass. delta lies in
(0, 1); C (`big_c`) and c0 in (0, inf). An accepted real is stored and
used as a Python float.
"""

import math

import numpy as np
import pytest

from stacked_iblt import (Params, checksum_modulus_bound, default_checksum_modulus,
                          default_independence, plan_layout)

MALFORMED = {
    "True": True,
    "np.True_": np.True_,
    "'0.5'": "0.5",
    "None": None,
    "1j": 1j,
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "0.0": 0.0,
    "-1.0": -1.0,
    "2^1024": 1 << 1024,
}
# delta lies below 1 as well.
MALFORMED_DELTA = {**MALFORMED, "1.0": 1.0, "2.0": 2.0}

LAYOUT = plan_layout(Params(n=16, delta=0.5))

# Each real slot with x in it and valid values elsewhere.
DELTA_SLOTS = {
    "Params delta": lambda x: Params(n=8, delta=x),
    "default_independence delta": lambda x: default_independence(16, x),
    "checksum_modulus_bound delta": lambda x: checksum_modulus_bound(16, x, 8.0, 97),
    "default_checksum_modulus delta": lambda x: default_checksum_modulus(16, x, 8.0, 97),
}
POSITIVE_SLOTS = {
    "Params big_c": lambda x: Params(n=8, delta=0.5, big_c=x),
    "Params c0": lambda x: Params(n=8, delta=0.5, c0=x),
    "checksum_modulus_bound big_c": lambda x: checksum_modulus_bound(16, 0.5, x, 97),
    "default_checksum_modulus big_c": lambda x: default_checksum_modulus(16, 0.5, x, 97),
    "cell_bound big_c": lambda x: LAYOUT.cell_bound(x),
}

# Values that were accepted, gave a wrong or negative result, or failed with
# another exception before the one check; each in its own words.
DRIFT = {
    "default_checksum_modulus(16, 0.5, -1.0, 97)":
        lambda: default_checksum_modulus(16, 0.5, -1.0, 97),
    "checksum_modulus_bound(16, 0.5, -1.0, 97)": lambda: checksum_modulus_bound(16, 0.5, -1.0, 97),
    "checksum_modulus_bound(16, 2.0, 8.0, 97)": lambda: checksum_modulus_bound(16, 2.0, 8.0, 97),
    "default_independence(16, 2.0)": lambda: default_independence(16, 2.0),
    "default_independence(16, True)": lambda: default_independence(16, True),
    "default_independence(16, '0.5')": lambda: default_independence(16, "0.5"),
    "default_independence(16, nan)": lambda: default_independence(16, math.nan),
    "default_checksum_modulus(16, 0.5, inf, 97)":
        lambda: default_checksum_modulus(16, 0.5, math.inf, 97),
    "Params(big_c='8')": lambda: Params(n=8, delta=0.5, big_c="8"),
    "Params(c0=None)": lambda: Params(n=8, delta=0.5, c0=None),
    "Params(c0=True)": lambda: Params(n=8, delta=0.5, c0=True),
    "cell_bound(-1.0)": lambda: LAYOUT.cell_bound(-1.0),
    "cell_bound(nan)": lambda: LAYOUT.cell_bound(math.nan),
    "cell_bound(True)": lambda: LAYOUT.cell_bound(True),
}

CASES = [pytest.param(slot, value, id=f"{name}-{v}")
         for slots, values in ((DELTA_SLOTS, MALFORMED_DELTA), (POSITIVE_SLOTS, MALFORMED))
         for name, slot in slots.items() for v, value in values.items()]
CASES += [pytest.param(lambda _, f=f: f(), None, id=name) for name, f in DRIFT.items()]


@pytest.mark.parametrize("call,value", CASES)
def test_malformed_reals_rejected(call, value):
    with pytest.raises(ValueError):
        call(value)


def test_numpy_and_integer_reals_accepted_as_floats():
    params = Params(n=8, delta=np.float32(0.5), big_c=np.int64(8), c0=3)
    assert (params.delta, params.big_c, params.c0) == (0.5, 8.0, 3.0)
    assert all(type(v) is float for v in (params.delta, params.big_c, params.c0))
    assert params == Params(n=8, delta=0.5, big_c=8.0, c0=3.0)
    for delta in (np.float32(0.25), np.float64(0.25)):
        assert type(Params(n=8, delta=delta).delta) is float
        assert default_independence(16, delta) == default_independence(16, 0.25)
        for big_c in (np.float32(21.75), np.float64(21.75)):
            assert (checksum_modulus_bound(16, delta, big_c, 97)
                    == checksum_modulus_bound(16, 0.25, 21.75, 97))
            assert (default_checksum_modulus(16, delta, big_c, 97)
                    == default_checksum_modulus(16, 0.25, 21.75, 97))
    for big_c in (8, np.int64(8), np.float32(8.0)):
        assert LAYOUT.cell_bound(big_c) == LAYOUT.cell_bound(8.0)
        assert type(Params(n=8, delta=0.5, big_c=big_c).big_c) is float
        assert type(Params(n=8, delta=0.5, c0=big_c).c0) is float
