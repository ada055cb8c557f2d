"""Shared oracle builders: every scheme's random-variable assignment as a
gaussmi system, so closed forms can be checked against exact covariance
mutual information."""

import math
from pathlib import Path

import numpy as np
import pytest

from gcifc.channel import ChannelParams
from gcifc import gaussmi


# zero, subnormal and huge powers and the singular lines, by name
EDGE_CHANNELS = [
    ("p1=0", ChannelParams(0.5, 1.3, 0.0, 4.0)),
    ("p2=0", ChannelParams(0.5, 2.0, 6.0, 0.0)),
    ("b=0", ChannelParams(0.7, 0.0, 3.0, 7.0)),
    ("a=1", ChannelParams(1.0, 1.5, 4.0, 4.0)),
    ("a=-1", ChannelParams(-1.0, 0.8, 4.0, 4.0)),
    ("ab=1", ChannelParams(0.5, 2.0, 5.0, 3.0)),
    ("tiny-imag-a", ChannelParams(0.5 + 1e-13j, 1.3, 6.0, 4.0)),
    ("subnormal-p1", ChannelParams(0.5, 1.3, 5e-324, 4.0)),
    ("p=1e8", ChannelParams(-0.6 + 0.2j, 1.7, 1e8, 1e8)),
]

# huge powers, where p1 p2 overflows a double
HUGE_CHANNELS = [
    ("p=1e160", ChannelParams(0.5, 1.5, 1e160, 1e160)),
    ("weak-p=1e160", ChannelParams(0.5, 0.5, 1e160, 1e160)),
    ("s-p1=1e160", ChannelParams(0.0, 3.0, 1e160, 1.0)),
    ("p=(1e200,1)", ChannelParams(0.5, 1.5, 1e200, 1.0)),
]


def channel_draw(rng, b_low=0.0, b_high=5.0, complex_a=False):
    p1, p2 = 10.0 ** rng.uniform(-1, 2, 2)
    a = rng.uniform(-5, 5)
    if complex_a:
        a = complex(a, rng.uniform(-5, 5))
    return ChannelParams(a, rng.uniform(b_low, b_high), p1, p2)


def scheme_e_system(ch: ChannelParams, alpha: float, lam: complex):
    """Assignment behind the pre-coded common-message scheme."""
    abar = 1.0 - alpha
    k = math.sqrt(abar * ch.p1 / ch.p2)
    return gaussmi.build_system(
        assignments=[
            ("X1", {"X1c": 1.0, "X2": k}),
            ("U1c", {"X1c": 1.0, "X2": lam}),
            ("Y1", {"X1": 1.0, "X2": ch.a, "Z1": 1.0}),
            ("Y2", {"X1": ch.b, "X2": 1.0, "Z2": 1.0}),
        ],
        noise_vars=[("X1c", alpha * ch.p1), ("X2", ch.p2),
                    ("Z1", 1.0), ("Z2", 1.0)],
    )


def scheme_c_system(ch: ChannelParams, alpha: float, s1: float, s2: float,
                    rho_pb: float, c1=None, c2=None):
    """Assignment behind the double-binning scheme (tunable auxiliaries)."""
    c1 = ch.a if c1 is None else c1
    c2 = ch.b if c2 is None else c2
    abar = 1.0 - alpha
    k = math.sqrt(abar * ch.p1 / ch.p2)
    cross = rho_pb * math.sqrt(s1 * s2)
    return gaussmi.build_system(
        assignments=[
            ("X1", {"X1pb": 1.0, "X2": k}),
            ("U1pb", {"X1": 1.0, "X2": c1, "Z1pb": 1.0}),
            ("U2pb", {"X1": c2, "X2": 1.0, "Z2pb": 1.0}),
            ("Y1", {"X1": 1.0, "X2": ch.a, "Z1": 1.0}),
            ("Y2", {"X1": ch.b, "X2": 1.0, "Z2": 1.0}),
        ],
        noise_vars=[("X1pb", alpha * ch.p1), ("X2", ch.p2),
                    ("Z1", 1.0), ("Z2", 1.0),
                    ("Z1pb", s1, {"Z2pb": cross}), ("Z2pb", s2)],
    )


def scheme_d_system(ch: ChannelParams, rho: complex):
    """Assignment behind the all-common superposition scheme."""
    return gaussmi.build_system(
        assignments=[
            ("X1", {"X1c": 1.0, "X2": rho * math.sqrt(ch.p1 / ch.p2)}),
            ("Y1", {"X1": 1.0, "X2": ch.a, "Z1": 1.0}),
            ("Y2", {"X1": ch.b, "X2": 1.0, "Z2": 1.0}),
        ],
        noise_vars=[("X1c", (1.0 - abs(rho) ** 2) * ch.p1), ("X2", ch.p2),
                    ("Z1", 1.0), ("Z2", 1.0)],
    )


def scheme_f_system(ch: ChannelParams, alpha: float, beta: float,
                    gamma: float, lam: complex):
    """Assignment behind the rate-split scheme (unit-power atoms)."""
    p1, p2 = ch.p1, ch.p2
    return gaussmi.build_system(
        assignments=[
            ("X2", {"X2c": math.sqrt(beta * p2),
                    "X2pa": math.sqrt((1 - beta) * p2)}),
            ("X1", {"X1c": math.sqrt(alpha * p1),
                    "X2c": math.sqrt((1 - alpha) * gamma * p1),
                    "X2pa": math.sqrt((1 - alpha) * (1 - gamma) * p1)}),
            ("U1c", {"X1c": math.sqrt(alpha * p1),
                     "X2pa": lam * math.sqrt((1 - beta) * p2)}),
            ("Y1", {"X1": 1.0, "X2": ch.a, "Z1": 1.0}),
            ("Y2", {"X1": ch.b, "X2": 1.0, "Z2": 1.0}),
        ],
        noise_vars=[("X2c", 1.0), ("X2pa", 1.0), ("X1c", 1.0),
                    ("Z1", 1.0), ("Z2", 1.0)],
    )


def correlated_input_system(ch: ChannelParams, rho: complex,
                            gamma: float = 0.0):
    """Inputs with correlation rho; receiver noises with correlation gamma."""
    return gaussmi.build_system(
        assignments=[
            ("Y1", {"X1": 1.0, "X2": ch.a, "Z1": 1.0}),
            ("Y2", {"X1": ch.b, "X2": 1.0, "Z2": 1.0}),
        ],
        noise_vars=[
            ("X1", ch.p1, {"X2": rho * math.sqrt(ch.p1 * ch.p2)}),
            ("X2", ch.p2),
            ("Z1", 1.0, {"Z2": gamma}),
            ("Z2", 1.0),
        ],
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


def pytest_collection_modifyitems(items):
    """Any warning raised by a test under this directory fails it."""
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"))
