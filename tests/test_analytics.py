"""Closed-form photon distribution and the log-space tail sum behind it.

The frozen reference values below were computed once with mpmath at 50
decimal digits and pasted in, so this file never imports an arbitrary-
precision library at test time and stays independent of scipy's gamma
routines.
"""

import math

import numpy as np
import pytest

from gfsim.errors import ConfigError
from gfsim.analytics import _log_tail, truncated_coherent_amplitudes


def q_tail(n, x):
    """Q(n, x) = e^{-x} S for x > 0, from the profile's log-space sum S."""
    return math.exp(_log_tail(n, x)[1] - x)


# (n, x) -> sum_{j<n} e^-x x^j / j!   [mpmath, 50 dps]
FROZEN_TAIL = {
    (10, 4.0): 0.99186775720306613684,
    (10, 0.25): 0.99999999999979057515,
    (1, 3.5): 0.03019738342231850074,
    (6, 36.0): 1.3507272658311717132e-10,
    (800, 750.0): 0.963605490884743954083,
    (780, 800.0): 0.235148929719528030302,
    (20, 720.0): 3.34036232254032135643e-276,
}


def test_tail_matches_frozen_references():
    for (n, x), expected in FROZEN_TAIL.items():
        got = q_tail(n, x)
        assert got == pytest.approx(expected, rel=2e-13), (n, x)


def test_tail_underflows_to_zero_gracefully():
    # true value ~1.4e-413 sits far below the subnormal floor, so exact 0.0
    # is the correct float64 answer, not an error
    assert q_tail(10, 1000.0) == 0.0


def test_tail_boundary_and_range():
    # Q(n, x) -> 1 as x -> 0+ (the sum's domain is x > 0)
    for n in (1, 5, 50):
        assert q_tail(n, 1e-300) == 1.0
    for n in (1, 3, 12):
        for x in (0.1, 1.0, 7.3, 40.0, 900.0):
            q = q_tail(n, x)
            assert 0.0 <= q <= 1.0


def test_tail_monotone_in_both_arguments():
    xs = np.linspace(0.0, 30.0, 121)[1:]
    for n in (1, 4, 9):
        q = [q_tail(n, float(x)) for x in xs]
        assert all(a >= b - 1e-15 for a, b in zip(q, q[1:]))  # decreasing in x
    for x in (0.5, 4.0, 12.0):
        q = [q_tail(n, x) for n in range(1, 20)]
        assert all(b >= a - 1e-15 for a, b in zip(q, q[1:]))  # increasing in n


def test_tail_recurrence_against_direct_terms():
    # Q(n+1, x) - Q(n, x) is the n-th Poisson weight; the subtraction of two
    # O(1) values cancels, so allow an absolute few-ulp slack on top
    for x in (0.3, 2.0, 9.5, 30.0):
        for n in range(1, 25):
            step = q_tail(n + 1, x) - q_tail(n, x)
            weight = math.exp(-x + n * math.log(x) - math.lgamma(n + 1))
            assert step == pytest.approx(weight, rel=1e-10, abs=1e-15)


def test_profile_is_normalized_with_ladder_phases():
    profile = truncated_coherent_amplitudes(0.05, 37.0, 10)
    amps = profile.amplitudes
    assert amps.shape == (10,)
    assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-14)
    assert profile.excitation_scale == pytest.approx((0.05 * 37.0) ** 2)
    # amplitude on site k carries the ladder phase (-i)^(k-1)
    for k in range(10):
        rotated = amps[k] * (1j) ** k
        assert abs(rotated.imag) < 1e-15
        assert rotated.real >= 0.0


def test_profile_at_zero_time_is_a_delta():
    profile = truncated_coherent_amplitudes(0.05, 0.0, 8)
    np.testing.assert_allclose(profile.amplitudes,
                               np.eye(8)[0].astype(complex), atol=1e-300)
    assert profile.normalization == pytest.approx(1.0)


def test_profile_mode_tracks_excitation_scale():
    # Poisson-like weights peak near floor(x); at integer x the two
    # neighbouring weights tie, so accept either
    for x_target in (2.3, 4.0, 6.7):
        t = math.sqrt(x_target) / 0.05
        profile = truncated_coherent_amplitudes(0.05, t, 30)
        weights = np.abs(profile.amplitudes) ** 2
        mode = int(np.argmax(weights))
        allowed = {math.floor(x_target)}
        if x_target == int(x_target):
            allowed.add(int(x_target) - 1)
        assert mode in allowed, (x_target, mode)


def test_profile_small_time_leading_order():
    j, t = 0.05, 1e-3
    x = (j * t) ** 2
    amps = truncated_coherent_amplitudes(j, t, 6).amplitudes
    assert amps[0] == pytest.approx(1.0, abs=2 * x)
    assert amps[1] == pytest.approx(-1j * math.sqrt(x), rel=1e-5)


def test_profile_truncation_weight_consistency():
    # normalization^2 equals the captured fraction of the untruncated
    # Poisson mass: |c|^2 = e^-x * sum_{j<N} x^j/j! / tail = ... check via
    # the tail sum itself
    j, t, size = 0.05, 60.0, 10
    x = (j * t) ** 2
    profile = truncated_coherent_amplitudes(j, t, size)
    tail = q_tail(size, x)
    assert profile.normalization ** 2 * 1.0 == pytest.approx(
        math.exp(-x) / tail, rel=1e-12)


@pytest.mark.parametrize("jt", [1e9, 1e10])
def test_profile_far_past_the_boundary(jt):
    # x = (J t)^2 >= 1e18: the Poisson weights x^j / j! grow with j, so all
    # but ~(N - 1) / x of the weight sits on site N, and the normalization is
    # 1 / sqrt(sum_{j<N} x^j / j!) ~ sqrt((N - 1)!) / (J t)^(N - 1)
    size = 10
    profile = truncated_coherent_amplitudes(1.0, jt, size)
    assert abs(profile.amplitudes[-1]) ** 2 >= 1.0 - 1e-15
    assert profile.normalization == pytest.approx(
        math.sqrt(math.factorial(size - 1)) / jt ** (size - 1), rel=1e-12)


def test_profile_rejections():
    with pytest.raises(ConfigError):
        truncated_coherent_amplitudes(0.0, 1.0, 5)
    with pytest.raises(ConfigError):
        truncated_coherent_amplitudes(0.05, -1.0, 5)
    with pytest.raises(ConfigError):
        truncated_coherent_amplitudes(0.05, 1.0, 0)
    for n_sites in (True, 5.0):
        with pytest.raises(ConfigError, match="must be an integer"):
            truncated_coherent_amplitudes(0.05, 1.0, n_sites)
    # finite J and t whose (J t)^2 is not a finite float
    for coupling, t in ((0.05, 1e200), (1e300, 1e300)):
        with pytest.raises(ConfigError, match="beyond float range"):
            truncated_coherent_amplitudes(coupling, t, 10)
