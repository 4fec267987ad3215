"""Config validation, Hamiltonian construction, and the switching profile."""

import math
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gfsim.errors import ConfigError
from gfsim.model import (
    ArrayConfig,
    HamiltonianMatrix,
    build_couplings,
    build_hamiltonian,
    config_and_pair,
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
    with pytest.raises(ConfigError):
        wrap_phase(math.nan)
    # just below -pi the modulo lands on +pi; the correction keeps [-pi, pi)
    assert wrap_phase(math.nextafter(-math.pi, -math.inf)) == -math.pi


def test_build_couplings_square_root_law():
    j = build_couplings(0.05, 10)
    assert j.shape == (9,)
    np.testing.assert_allclose(j, 0.05 * np.sqrt(np.arange(1, 10)), rtol=1e-15)
    with pytest.raises(ConfigError):
        build_couplings(0.0, 4)
    with pytest.raises(ConfigError):
        build_couplings(-1.0, 4)
    # the last bond J sqrt(N - 1) beyond float range is a config error, with
    # no numpy overflow warning (filterwarnings = error would raise it)
    with pytest.raises(ConfigError, match=r"J\*sqrt\(5\) overflows float64"):
        build_couplings(1e308, 6)
    with pytest.raises(ConfigError, match="overflows float64"):
        build_hamiltonian(ArrayConfig(6, np.ones(6), 1e308))
    # sqrt(2) 1e308 and J sqrt(1) = J itself still fit
    assert build_couplings(1e308, 3)[-1] == 1e308 * math.sqrt(2)
    assert build_couplings(sys.float_info.max, 2)[0] == sys.float_info.max


def test_array_config_validation():
    good = ArrayConfig(4, np.array([1.0, 1.1, 1.2, 1.3]), 0.1)
    assert good.n_sites == 4
    with pytest.raises(ConfigError):
        ArrayConfig(1, np.array([1.0]), 0.1)
    with pytest.raises(ConfigError):
        ArrayConfig(4, np.array([1.0, 2.0]), 0.1)          # wrong length
    with pytest.raises(ConfigError):
        ArrayConfig(4, np.array([1.0, 2.0, np.nan, 4.0]), 0.1)
    with pytest.raises(ConfigError):
        ArrayConfig(4, np.ones(4), 0.0)                    # J must be > 0
    # values config_and_pair and TransferPlan refuse, and a ragged vector
    # (numpy's own ValueError before): every one is a ConfigError naming its field
    for kwargs, named in ((dict(frequencies=[[1.0, 2.0], 1.0]), "frequencies"),
                          (dict(frequencies=["1.0", "2"]), "frequencies"),
                          (dict(frequencies=[True, 2.0]), "frequencies"),
                          (dict(coupling_scale=True), "coupling_scale")):
        args = dict(n_sites=2, frequencies=np.ones(2), coupling_scale=0.1) | kwargs
        with pytest.raises(ConfigError, match=named):
            ArrayConfig(**args)


def test_array_config_is_frozen_and_read_only():
    cfg = ArrayConfig(3, np.ones(3), 0.1)
    with pytest.raises(AttributeError):
        cfg.n_sites = 5
    with pytest.raises(ValueError):
        cfg.frequencies[0] = 2.0


def test_array_config_has_no_bond_phase():
    # the phase is a gauge: it lives on the qubit score's amplitude, not in
    # the config
    assert [f.name for f in fields(ArrayConfig)] == ["n_sites", "frequencies",
                                                     "coupling_scale"]
    with pytest.raises(TypeError, match="coupling_phase"):
        ArrayConfig(3, np.ones(3), 0.1, coupling_phase=0.4)


def test_config_to_dict_writes_only_the_schema_fields():
    # with no phase in the config there is nothing for config_to_dict to
    # drop (it once had to refuse a phase the schema cannot hold)
    cfg = ArrayConfig(3, np.array([1.0, 1.5, 2.0]), 0.1)
    assert config_to_dict(cfg) == {"n_sites": 3, "frequencies": [1.0, 1.5, 2.0],
                                   "J": 0.1}


def test_build_hamiltonian_structure():
    cfg = ArrayConfig(5, np.array([1.0, 1.5, 1.0, -0.5, -3.0]), 0.05)
    h = build_hamiltonian(cfg).matrix
    assert h.dtype == np.float64
    np.testing.assert_allclose(np.diag(h), cfg.frequencies, rtol=1e-15)
    expected = 0.05 * np.sqrt(np.arange(1, 5))
    np.testing.assert_allclose(np.diag(h, 1), expected, rtol=1e-15)
    assert np.array_equal(h, h.T)
    # nothing beyond the first off-diagonal
    assert np.max(np.abs(np.triu(h, 2))) == 0.0


def test_build_hamiltonian_is_built_once_per_config():
    cfg = ArrayConfig(4, np.ones(4), 0.1)
    h = build_hamiltonian(cfg)
    assert build_hamiltonian(cfg) is h
    # the value sits outside the dataclass fields: the schema form and the
    # field list are what they were before the first call
    assert [f.name for f in fields(cfg)] == ["n_sites", "frequencies", "coupling_scale"]
    assert config_to_dict(cfg) == {"n_sites": 4, "frequencies": [1.0] * 4, "J": 0.1}
    # an equal config is another object, with its own Hamiltonian
    again = build_hamiltonian(ArrayConfig(4, np.ones(4), 0.1))
    assert again is not h and again.matrix.tobytes() == h.matrix.tobytes()


def _chain(n):
    """A valid real tridiagonal matrix to spoil one entry of."""
    bonds = 0.3 * np.arange(1, n)
    return np.diag(np.arange(1.0, n + 1)) + np.diag(bonds, 1) + np.diag(bonds, -1)


def test_hamiltonian_matrix_rejects_bad_input():
    with pytest.raises(ConfigError):
        HamiltonianMatrix(np.ones((2, 3)))
    with pytest.raises(ConfigError):
        HamiltonianMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))   # not symmetric
    with pytest.raises(ConfigError):
        HamiltonianMatrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    band = np.diag([1.0, 1.0, 1.0]) + 0.5 * np.eye(3, k=2) + 0.5 * np.eye(3, k=-2)
    with pytest.raises(ConfigError):
        HamiltonianMatrix(band)                                 # not tridiagonal
    # the runtime is real: a complex array is refused, Hermitian or not, a
    # phased chain included; one whose imaginary parts are all zero is the
    # real matrix it holds
    phased = _chain(4) * np.exp(0.4j * np.subtract.outer(np.arange(4), np.arange(4)))
    for complex_h in (phased, [[1.0, 0.5j], [-0.5j, 1.0]], [[1.0, 1e-300j], [0.0, 1.0]]):
        with pytest.raises(ConfigError, match="real"):
            HamiltonianMatrix(complex_h)
    assert HamiltonianMatrix(_chain(4).astype(complex)).matrix.tobytes() == _chain(4).tobytes()
    h = HamiltonianMatrix(np.diag([1.0, 2.0]))
    assert h.matrix.dtype == np.float64
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
        ((0, n - 1), 1e-3, "symmetric"),       # a lone off-band entry
    ]:
        bad = _chain(n)
        bad[i, j] = value
        cases.append((bad, fragment))
    bad = _chain(n)
    bad[2, 1] = -bad[1, 2]                     # lower entry not the mirror
    cases.append((bad, "symmetric"))
    bad = _chain(n)
    bad[0, n - 1] = bad[n - 1, 0] = 1e-3       # symmetric corner pair
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
       st.floats(min_value=1e-4, max_value=2.0))
def test_build_hamiltonian_equals_per_element_assembly(n, seed, coupling):
    # the bands are written by strided slices; every entry must be bitwise
    # what writing it out one element at a time gives
    freqs = np.random.default_rng(seed).uniform(-3.0, 3.0, n)
    cfg = ArrayConfig(n, freqs, coupling)
    expected = np.zeros((n, n))
    for k in range(n):
        expected[k, k] = cfg.frequencies[k]
    for k in range(1, n):
        expected[k - 1, k] = expected[k, k - 1] = cfg.coupling_scale * math.sqrt(k)
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


def test_config_and_pair_explicit_and_presets():
    cfg = config_and_pair({"n_sites": 3, "frequencies": [1.0, 2.0, 3.0],
                           "J": 0.5})[0]
    np.testing.assert_array_equal(cfg.frequencies, [1.0, 2.0, 3.0])

    res = config_and_pair({"n_sites": 4,
                           "frequencies": {"preset": "resonant", "C": 2.0},
                           "J": 0.1})[0]
    np.testing.assert_allclose(res.frequencies, 2.0)

    sw = config_and_pair({"n_sites": 6,
                          "frequencies": {"preset": "switching", "C": 1.0,
                                          "m": 1, "n": 3},
                          "J": 0.0013})[0]
    np.testing.assert_allclose(sw.frequencies, [1.0, 1.5, 1.0, -0.5, -3.0, -6.5])


def test_config_and_pair_default_base():
    cfg = config_and_pair({"n_sites": 3,
                           "frequencies": {"preset": "resonant"}, "J": 0.1})[0]
    np.testing.assert_allclose(cfg.frequencies, 1.0)


def test_config_and_pair_rejections():
    with pytest.raises(ConfigError):
        config_and_pair({"n_sites": 3, "frequencies": [1, 1, 1]})  # missing J
    with pytest.raises(ConfigError):
        config_and_pair({"n_sites": 3, "frequencies": [1, 1, 1], "J": 0.1,
                         "bogus": 1})
    with pytest.raises(ConfigError):
        config_and_pair({"n_sites": 3,
                         "frequencies": {"preset": "unknown"}, "J": 0.1})
    with pytest.raises(ConfigError):
        config_and_pair({"n_sites": 3,
                         "frequencies": {"preset": "switching", "m": 1},
                         "J": 0.1})  # switching needs both m and n
    with pytest.raises(ConfigError):
        config_and_pair({"n_sites": 3,
                         "frequencies": {"preset": "resonant", "m": 1, "n": 2},
                         "J": 0.1})  # resonant takes no pair
    with pytest.raises(ConfigError):
        config_and_pair({"n_sites": 1, "frequencies": [1.0], "J": 0.1})
    # a scalar field is a finite JSON number: not true, a string, Infinity
    # or an int no float holds
    for value in (True, "0.1", math.inf, math.nan, 10 ** 400):
        with pytest.raises(ConfigError, match="'J' must be a finite number"):
            config_and_pair({"n_sites": 3, "frequencies": [1, 1, 1], "J": value})
        with pytest.raises(ConfigError, match="frequencies must be finite numbers"):
            config_and_pair({"n_sites": 3, "frequencies": [1, value, 1], "J": 0.1})
    # no model reads a loss rate from the array config; loss enters as the
    # explicit gamma of the open-system calls
    with pytest.raises(ConfigError, match="gamma"):
        config_and_pair({"n_sites": 3, "frequencies": [1, 1, 1], "J": 0.1,
                         "gamma": 0.5})
    # nor a bond phase: populations do not depend on it, and the qubit
    # transfer takes eta* from its plan
    with pytest.raises(ConfigError, match="'eta'"):
        config_and_pair({"n_sites": 3, "frequencies": [1, 1, 1], "J": 0.1,
                         "eta": 0.0})


def test_config_roundtrip():
    cfg = config_and_pair({"n_sites": 6,
                           "frequencies": {"preset": "switching", "C": 1.0,
                                           "m": 2, "n": 4},
                           "J": 0.0013})[0]
    again = config_and_pair(config_to_dict(cfg))[0]
    np.testing.assert_allclose(again.frequencies, cfg.frequencies, rtol=1e-15)
    assert again.coupling_scale == cfg.coupling_scale


def test_config_and_pair_names_only_a_switching_pair():
    # the one parse of the frequency spec: the CLI takes its planned pair
    # from here and never reads the raw mapping
    for spec, pair in (({"preset": "switching", "C": 1.0, "m": 2, "n": 4}, (2, 4)),
                       ({"preset": "switching", "m": 5, "n": 2}, (5, 2)),
                       ({"preset": "resonant", "C": 1.0}, None),
                       ([1.0, 1.8, 2.2, 2.2, 1.8, 1.0], None)):
        data = {"n_sites": 6, "frequencies": spec, "J": 0.0013}
        cfg, got = config_and_pair(data)
        assert got == pair
        assert cfg.frequencies.tobytes() == config_and_pair(data)[0].frequencies.tobytes()
    cfg, _ = config_and_pair({"n_sites": 6, "J": 0.0013,
                              "frequencies": {"preset": "switching", "m": 2, "n": 4}})
    np.testing.assert_array_equal(cfg.frequencies, switching_frequencies(1.0, 2, 4, 6))
    # switching_frequencies is the one check of a switching pair
    with pytest.raises(ConfigError, match="^n must be an integer >= 1, got 4.0$"):
        config_and_pair({"n_sites": 6, "J": 0.0013,
                         "frequencies": {"preset": "switching", "m": 2, "n": 4.0}})
