"""Config validation, Hamiltonian construction, and the switching profile."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gfsim.errors import ConfigError
from gfsim.model import (
    ArrayConfig,
    HamiltonianMatrix,
    build_couplings,
    build_hamiltonian,
    config_from_dict,
    config_to_dict,
    switching_frequencies,
    wrap_phase,
)


def test_wrap_phase_range_and_values():
    assert wrap_phase(0.0) == 0.0
    assert wrap_phase(math.pi) == pytest.approx(-math.pi)
    assert wrap_phase(-math.pi) == pytest.approx(-math.pi)
    assert wrap_phase(2 * math.pi) == pytest.approx(0.0, abs=1e-15)
    assert wrap_phase(3.5 * math.pi) == pytest.approx(-0.5 * math.pi)
    for x in np.linspace(-20, 20, 401):
        w = wrap_phase(x)
        assert -math.pi <= w < math.pi
        # same point on the circle
        assert abs(complex(math.cos(x), math.sin(x))
                   - complex(math.cos(w), math.sin(w))) < 1e-12


def test_build_couplings_square_root_law():
    j = build_couplings(0.05, 10)
    assert j.shape == (9,)
    np.testing.assert_allclose(j, 0.05 * np.sqrt(np.arange(1, 10)), rtol=1e-15)
    with pytest.raises(ConfigError):
        build_couplings(0.0, 4)
    with pytest.raises(ConfigError):
        build_couplings(-1.0, 4)


def test_array_config_validation():
    good = ArrayConfig(4, np.array([1.0, 1.1, 1.2, 1.3]), 0.1)
    assert good.n_sites == 4
    assert good.coupling_phase == 0.0
    with pytest.raises(ConfigError):
        ArrayConfig(1, np.array([1.0]), 0.1)
    with pytest.raises(ConfigError):
        ArrayConfig(4, np.array([1.0, 2.0]), 0.1)          # wrong length
    with pytest.raises(ConfigError):
        ArrayConfig(4, np.array([1.0, 2.0, np.nan, 4.0]), 0.1)
    with pytest.raises(ConfigError):
        ArrayConfig(4, np.ones(4), 0.0)                    # J must be > 0


def test_array_config_is_frozen_and_read_only():
    cfg = ArrayConfig(3, np.ones(3), 0.1)
    with pytest.raises(AttributeError):
        cfg.n_sites = 5
    with pytest.raises(ValueError):
        cfg.frequencies[0] = 2.0


def test_array_config_wraps_phase():
    cfg = ArrayConfig(3, np.ones(3), 0.1, coupling_phase=2 * math.pi + 0.3)
    assert cfg.coupling_phase == pytest.approx(0.3)


def test_build_hamiltonian_structure():
    cfg = ArrayConfig(5, np.array([1.0, 1.5, 1.0, -0.5, -3.0]), 0.05,
                      coupling_phase=0.7)
    h = build_hamiltonian(cfg).matrix
    np.testing.assert_allclose(np.diag(h).real, cfg.frequencies, rtol=1e-15)
    assert np.max(np.abs(np.diag(h).imag)) == 0.0
    expected = 0.05 * np.sqrt(np.arange(1, 5)) * np.exp(1j * 0.7)
    np.testing.assert_allclose(np.diag(h, 1), expected, rtol=1e-15)
    np.testing.assert_allclose(h, h.conj().T, atol=1e-16)
    # nothing beyond the first off-diagonal
    assert np.max(np.abs(np.triu(h, 2))) == 0.0


def _chain(n):
    """A valid complex tridiagonal matrix to spoil one entry of."""
    bonds = 0.3 * np.exp(0.4j) * np.arange(1, n)
    return np.diag(np.arange(1.0, n + 1)) + np.diag(bonds, 1) + np.diag(bonds.conj(), -1)


def test_hamiltonian_matrix_rejects_bad_input():
    with pytest.raises(ConfigError):
        HamiltonianMatrix(np.ones((2, 3)))
    with pytest.raises(ConfigError):
        HamiltonianMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))   # not hermitian
    with pytest.raises(ConfigError):
        HamiltonianMatrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    band = np.diag([1.0, 1.0, 1.0]) + 0.5 * np.eye(3, k=2) + 0.5 * np.eye(3, k=-2)
    with pytest.raises(ConfigError):
        HamiltonianMatrix(band)                                 # not tridiagonal
    h = HamiltonianMatrix(np.diag([1.0, 2.0]).astype(complex))
    with pytest.raises(ValueError):
        h.matrix[0, 0] = 9.0
    # one |H| array serves the finiteness, scale and off-band tests; each
    # spoiled entry must still trip its own check, in the documented order
    n = 5
    cases = []
    for (i, j), value, fragment in [
        ((2, 2), np.nan, "finite"),            # NaN on the diagonal
        ((0, 3), np.nan, "finite"),            # NaN off the band
        ((1, 2), np.inf, "finite"),            # inf off the diagonal
        ((0, n - 1), 1e-3, "Hermitian"),       # a lone off-band entry
    ]:
        bad = _chain(n)
        bad[i, j] = value
        cases.append((bad, fragment))
    bad = _chain(n)
    bad[2, 1] = bad[1, 2]                      # lower entry not the conjugate
    cases.append((bad, "Hermitian"))
    bad = _chain(n)
    bad[0, n - 1] = bad[n - 1, 0] = 1e-3       # Hermitian corner pair
    cases.append((bad, "tridiagonal"))
    # the off-band defect is the largest entry above the band plus the
    # largest below it: a pair each at 0.6 of 1e-14 * max|H| = 5e-14 fails
    bad = _chain(n)
    bad[0, 2] = bad[2, 0] = 3e-14
    cases.append((bad, "tridiagonal"))
    for bad, fragment in cases:
        with pytest.raises(ConfigError, match=fragment):
            HamiltonianMatrix(bad)
    # the input is copied once: mutating it afterwards leaves .matrix alone
    source = _chain(n)
    h = HamiltonianMatrix(source)
    source[0, 0] = 99.0
    assert h.matrix[0, 0] == 1.0
    assert h.matrix.tobytes() == _chain(n).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=2 ** 31),
       st.floats(min_value=1e-4, max_value=2.0),
       st.floats(min_value=-4.0, max_value=4.0, allow_nan=False))
def test_build_hamiltonian_equals_per_element_assembly(n, seed, coupling, eta):
    # the bands are written by strided slices; every entry must be bitwise
    # what writing it out one element at a time gives
    freqs = np.random.default_rng(seed).uniform(-3.0, 3.0, n)
    cfg = ArrayConfig(n, freqs, coupling, coupling_phase=eta)
    phase = np.exp(1j * cfg.coupling_phase)
    expected = np.zeros((n, n), dtype=complex)
    for k in range(n):
        expected[k, k] = cfg.frequencies[k]
    for k in range(1, n):
        bond = cfg.coupling_scale * math.sqrt(k) * phase
        expected[k - 1, k] = bond
        expected[k, k - 1] = np.conj(bond)
    assert build_hamiltonian(cfg).matrix.tobytes() == expected.tobytes()


def test_switching_profile_frozen_values():
    # (m, n) = (1, 3), N = 6: parabola through omega_1 = omega_3
    np.testing.assert_allclose(
        switching_frequencies(1.0, 1, 3, 6),
        [1.0, 1.5, 1.0, -0.5, -3.0, -6.5], rtol=1e-15)
    np.testing.assert_allclose(
        switching_frequencies(1.0, 2, 5, 6),
        [1.0, 1.8, 2.2, 2.2, 1.8, 1.0], rtol=1e-14)


def test_switching_profile_degeneracy_and_curvature():
    for (m, n, size) in [(3, 7, 10), (1, 4, 6), (2, 4, 8), (1, 9, 12)]:
        w = switching_frequencies(1.0, m, n, size)
        assert abs(w[m - 1] - w[n - 1]) <= 1e-13 * max(1.0, abs(w[m - 1]))
        second = np.diff(w, 2)
        np.testing.assert_allclose(second, second[0], atol=1e-12)
        assert second[0] < 0  # inverted parabola


def test_switching_profile_pair_is_bitwise_degenerate():
    # the docstring promises omega_m == omega_n exactly, not to rounding
    for size in range(2, 21):
        for m in range(1, size + 1):
            for n in range(m + 1, size + 1):
                freqs = switching_frequencies(1.0, m, n, size)
                assert freqs[m - 1] == freqs[n - 1], (size, m, n)


def test_switching_profile_order_independent():
    np.testing.assert_allclose(switching_frequencies(1.0, 5, 2, 6),
                               switching_frequencies(1.0, 2, 5, 6), rtol=1e-15)


def test_switching_profile_rejections():
    with pytest.raises(ConfigError):
        switching_frequencies(1.0, 3, 3, 6)      # m == n
    with pytest.raises(ConfigError):
        switching_frequencies(1.0, 0, 3, 6)      # out of range
    with pytest.raises(ConfigError):
        switching_frequencies(1.0, 1, 7, 6)      # beyond the array
    with pytest.raises(ConfigError):
        switching_frequencies(0.0, 1, 3, 6)      # base must be > 0
    with pytest.raises(ConfigError):
        switching_frequencies(-1.0, 1, 3, 6)


def test_config_from_dict_explicit_and_presets():
    cfg = config_from_dict({"n_sites": 3, "frequencies": [1.0, 2.0, 3.0],
                            "J": 0.5, "eta": 0.1})
    assert cfg.coupling_phase == pytest.approx(0.1)

    res = config_from_dict({"n_sites": 4,
                            "frequencies": {"preset": "resonant", "C": 2.0},
                            "J": 0.1})
    np.testing.assert_allclose(res.frequencies, 2.0)
    assert res.coupling_phase == 0.0

    sw = config_from_dict({"n_sites": 6,
                           "frequencies": {"preset": "switching", "C": 1.0,
                                           "m": 1, "n": 3},
                           "J": 0.0013})
    np.testing.assert_allclose(sw.frequencies, [1.0, 1.5, 1.0, -0.5, -3.0, -6.5])


def test_config_from_dict_default_base():
    cfg = config_from_dict({"n_sites": 3,
                            "frequencies": {"preset": "resonant"}, "J": 0.1})
    np.testing.assert_allclose(cfg.frequencies, 1.0)


def test_config_from_dict_rejections():
    with pytest.raises(ConfigError):
        config_from_dict({"n_sites": 3, "frequencies": [1, 1, 1]})  # missing J
    with pytest.raises(ConfigError):
        config_from_dict({"n_sites": 3, "frequencies": [1, 1, 1], "J": 0.1,
                          "bogus": 1})
    with pytest.raises(ConfigError):
        config_from_dict({"n_sites": 3,
                          "frequencies": {"preset": "unknown"}, "J": 0.1})
    with pytest.raises(ConfigError):
        config_from_dict({"n_sites": 3,
                          "frequencies": {"preset": "switching", "m": 1},
                          "J": 0.1})  # switching needs both m and n
    with pytest.raises(ConfigError):
        config_from_dict({"n_sites": 3,
                          "frequencies": {"preset": "resonant", "m": 1, "n": 2},
                          "J": 0.1})  # resonant takes no pair
    with pytest.raises(ConfigError):
        config_from_dict({"n_sites": 1, "frequencies": [1.0], "J": 0.1})
    # a scalar field is a finite JSON number: not true, a string, Infinity
    # or an int no float holds
    for value in (True, "0.1", math.inf, math.nan, 10 ** 400):
        with pytest.raises(ConfigError, match="'J' must be a finite number"):
            config_from_dict({"n_sites": 3, "frequencies": [1, 1, 1], "J": value})
        with pytest.raises(ConfigError, match="'frequencies' must list finite numbers"):
            config_from_dict({"n_sites": 3, "frequencies": [1, value, 1], "J": 0.1})
    # no model reads a loss rate from the array config; loss enters as the
    # explicit gamma of the open-system calls
    with pytest.raises(ConfigError, match="gamma"):
        config_from_dict({"n_sites": 3, "frequencies": [1, 1, 1], "J": 0.1,
                          "gamma": 0.5})


def test_config_roundtrip():
    cfg = config_from_dict({"n_sites": 6,
                            "frequencies": {"preset": "switching", "C": 1.0,
                                            "m": 2, "n": 4},
                            "J": 0.0013, "eta": -0.4})
    again = config_from_dict(config_to_dict(cfg))
    np.testing.assert_allclose(again.frequencies, cfg.frequencies, rtol=1e-15)
    assert again.coupling_scale == cfg.coupling_scale
    assert again.coupling_phase == cfg.coupling_phase
