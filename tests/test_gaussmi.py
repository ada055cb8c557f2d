import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcifc.channel import ChannelParams
import gaussmi
from conftest import scheme_c_system, scheme_d_system, scheme_e_system


def awgn(p):
    return gaussmi.build_system([("Y", {"X": 1.0, "Z": 1.0})],
                                [("X", p), ("Z", 1.0)])


def test_awgn_covariance():
    sys = awgn(4.0)
    k = np.real(sys.subcov(["X", "Y"]))
    assert np.allclose(k, [[4.0, 4.0], [4.0, 5.0]])


def test_awgn_capacity_p3_is_two_bits():
    assert gaussmi.mutual_info(awgn(3.0), "Y", "X") == pytest.approx(2.0, abs=1e-12)


def test_self_information_is_singular():
    sys = gaussmi.build_system([], [("X", 1.0)])
    with pytest.raises(gaussmi.SingularConditioning):
        gaussmi.mutual_info(sys, "X", "X")


def test_unknown_variable():
    with pytest.raises(gaussmi.UnknownVariable):
        gaussmi.build_system([("Y", {"nope": 1.0})], [("X", 1.0)])


def test_non_psd_noise_rejected():
    with pytest.raises(gaussmi.NonPSD):
        gaussmi.build_system([], [("A", 1.0, {"B": 2.0}), ("B", 1.0)])


def test_independent_inputs_uncorrelated():
    # all-common assignment with rho = 0
    sys = scheme_d_system(ChannelParams(1.0, 2.0, 4.0, 9.0), 0.0)
    assert abs(sys.subcov(["X1", "X2"])[0, 1]) < 1e-12


def test_cooperation_covariance_sqrt18():
    # split 0.5 with p1 = p2 = 6 puts sqrt(3 * 6) on the input cross term
    sys = scheme_e_system(ChannelParams(0.5, 1.0, 6.0, 6.0), 0.5, 0.1)
    assert sys.subcov(["X1", "X2"])[0, 1] == pytest.approx(math.sqrt(18.0))


def test_very_strong_sum_rate_expression():
    # I(Y2; X1, X2) under the all-common assignment, real rho
    ch = ChannelParams(3.0, 1.2, 2.0, 5.0)
    rho = 0.6
    sys = scheme_d_system(ch, rho)
    want = math.log2(1 + ch.b ** 2 * ch.p1 + ch.p2
                     + 2 * ch.b * rho * math.sqrt(ch.p1 * ch.p2))
    got = gaussmi.mutual_info(sys, "Y2", ["X1", "X2"])
    assert got == pytest.approx(want, abs=1e-9)


def test_chain_rule_random_systems(rng):
    for _ in range(40):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        k = m @ m.conj().T
        sys = gaussmi.GaussianSystem(("a", "b", "c", "d"), k)
        lhs = gaussmi.mutual_info(sys, "a", ["b", "c"])
        rhs = (gaussmi.mutual_info(sys, "a", "b")
               + gaussmi.mutual_info(sys, "a", "c", "b"))
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_degraded_data_processing():
    # a b = 1 with b > 1: the cognitive output is a noisier view
    ch = ChannelParams(1 / 1.7, 1.7, 8.0, 3.0)
    sys = scheme_d_system(ch, 0.0)
    i1 = gaussmi.mutual_info(sys, "X1", "Y1", "X2")
    i2 = gaussmi.mutual_info(sys, "X1", "Y2", "X2")
    assert i1 <= i2 + 1e-9


def test_singular_joint_by_design():
    # zero test-channel noise still yields finite conditional MI terms
    ch = ChannelParams(0.4, 1.5, 4.0, 2.0)
    sys = scheme_c_system(ch, 0.5, 1.0, 0.0, 0.0)
    val = gaussmi.mutual_info(sys, "Y2", ["U2pb", "X2"])
    assert np.isfinite(val) and val > 0


@settings(max_examples=60, deadline=None)
@given(p=st.floats(min_value=0.0, max_value=1e4),
       c=st.floats(min_value=-0.999, max_value=0.999))
def test_nonnegativity(p, c):
    sys = gaussmi.build_system(
        [("Y", {"X": 1.0, "Z": 1.0})],
        [("X", p), ("Z", 1.0, {"W": c}), ("W", 1.0)])
    assert gaussmi.mutual_info(sys, "Y", "X") >= 0.0
    assert gaussmi.mutual_info(sys, "Y", "W") >= 0.0


def test_cov_json_dump_roundtrip_shape():
    sys = awgn(2.0)
    d = sys.to_json_dict()
    assert d["labels"] == ["X", "Z", "Y"]
    assert np.allclose(np.array(d["cov_re"]), sys.cov.real)
