"""The outcome and probability checks that every engine shares."""

import numpy as np
import pytest

from gbstn import fockdense, gauss, tnet
from gbstn.circuit import build_brickwork, with_uniform_loss
from gbstn.errors import NumericalFailureError, check_outcome, check_probability

_CIRCUIT = build_brickwork(4, 4, seed=1)

_ENGINES = {
    "tnet.schrodinger": lambda n: tnet.schrodinger_probability(_CIRCUIT, n, 0.4),
    "tnet.heisenberg_lossless": lambda n: tnet.heisenberg_probability_lossless(_CIRCUIT, n, 0.4, 3),
    "tnet.heisenberg_lossy": lambda n: tnet.heisenberg_probability_lossy(
        with_uniform_loss(_CIRCUIT, 0.05), n, 0.4, 3
    ),
    "fockdense": lambda n: fockdense.dense_probability(fockdense.dense_squeezed_vacuum(0.4, 4, 3), n),
    "gauss": lambda n: gauss.gbs_probability(gauss.squeezed_vacuum_cov(0.4, 4), n),
}


@pytest.mark.parametrize(
    "outcome, message",
    [
        ((1, 1, 0), "outcome length does not match the mode count"),
        ((2, -1, 1, 0), "negative photon count in outcome (2, -1, 1, 0)"),
        ((1.7, 0.2, 0, 0), "a photon count must be an integer, got 1.7"),
        (("1", 0, 0, 0), "a photon count must be an integer, got '1'"),
    ],
)
@pytest.mark.parametrize("engine", sorted(_ENGINES))
def test_every_engine_refuses_a_bad_outcome_alike(engine, outcome, message):
    with pytest.raises(ValueError) as info:
        _ENGINES[engine](outcome)
    assert str(info.value) == message


def test_outcome_check_converts_integral_counts():
    outcome = check_outcome((1.0, np.int64(2), True, 0))
    assert outcome == (1, 2, 1, 0) and [type(n) for n in outcome] == [int] * 4


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), complex(float("nan"), 0.0)])
def test_probability_check_refuses_a_non_finite_value(value):
    # min(max(nan, 0), 1) is nan, so a clamp alone would let it through
    with pytest.raises(NumericalFailureError, match="non-finite probability"):
        check_probability(value)


def test_probability_check_clamps_roundoff():
    assert check_probability(-1e-12) == 0.0
    assert check_probability(complex(1.0 + 1e-12, 1e-12)) == 1.0
