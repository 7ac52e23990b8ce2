"""A rejected value raises ``ConfigError`` where it is checked.

``ConfigError`` is also a ``ValueError``, so a caller that catches
``ValueError`` keeps working, and the command line maps it to exit code 2
without translating it.
"""

import math

import pytest

from spdrose import ConfigError, KernelParams, SpdRoseError, SynthesisConfig
from spdrose.errors import require_integer, require_positive


def test_config_error_is_a_value_error_and_a_library_error():
    assert issubclass(ConfigError, ValueError)
    assert issubclass(ConfigError, SpdRoseError)


@pytest.mark.parametrize(
    "reject",
    [
        lambda: KernelParams(0.0),
        lambda: KernelParams("0.5"),
        lambda: KernelParams(0.5, psd_policy="ignore"),
        lambda: SynthesisConfig(count=-1),
        lambda: SynthesisConfig(count=1.5),
        lambda: SynthesisConfig(direction_mode="spiral"),
        lambda: require_integer(2.5, "x"),
        lambda: require_integer(True, "x"),
        lambda: require_positive(math.nan, "x"),
        lambda: require_positive(-1, "x"),
    ],
    ids=[
        "sigma-zero", "sigma-string", "psd-policy", "count-negative", "count-float",
        "direction-mode", "integer-float", "integer-bool", "positive-nan",
        "positive-negative",
    ],
)
def test_rejected_values_raise_config_error(reject):
    with pytest.raises(ConfigError):
        reject()
