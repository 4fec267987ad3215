"""Exact single-excitation evolution against a brute-force propagator, and
the one amplitude kernel behind evolve, transfer_amplitude and resonant-walk."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gfsim.cli import main as cli_main
from gfsim.errors import ConfigError, NumericalInvariantError
from gfsim.model import ArrayConfig, build_hamiltonian, config_and_pair, \
    switching_frequencies
from gfsim.dynamics import (
    ExcitationState,
    _mode_sum,
    _split,
    decompose,
    evolve,
    qubit_state,
    single_photon_state,
    transfer_amplitude,
    transfer_probability,
)
from gfsim.protocol import make_plan, qubit_fidelity_curve

from conftest import brute_force_evolve, read_csv_output
from oracles import complex_transfer_amplitude, gauge, phased_hamiltonian


# Spectra of the fig2 (N = 10, pair (3, 7)) and fig3b (N = 6, pair (2, 4))
# switching profiles at J = 0.0013. Recipe: build the float64 matrix with
# build_hamiltonian(ArrayConfig(N, switching_frequencies(1.0, m, n, N),
# 0.0013)), convert each entry exactly to mpmath at 60 digits, mpmath.eigsy,
# sort ascending, round to 17 digits.
SWITCHING_SPECTRA = {
    (10, 3, 7): [
        -0.12501351991876092, 0.99999806848947927, 0.99999806857071801,
        1.8749965234224568, 1.8749965234224584, 2.4999918871142814,
        2.4999918886556254, 2.8748990805242711, 2.8750199026292491,
        3.0001215770902213,
    ],
    (6, 2, 4): [
        -0.25000675998172107, 0.99999774662764186, 0.99999774668064251,
        1.7499721787400518, 1.7500052918624067, 2.0000337960709782,
    ],
}


def random_config(rng, n_sites):
    freqs = rng.uniform(-3.0, 3.0, n_sites)
    return ArrayConfig(n_sites, freqs, rng.uniform(0.05, 1.5))


def test_state_validation():
    s = single_photon_state(4, 2)
    assert s.n_sites == 4
    assert s.vacuum_amplitude == 0.0
    assert s.amplitudes[2] == 1.0
    with pytest.raises(ConfigError):
        ExcitationState(np.array([1.0]))          # needs vacuum + >= 1 site
    with pytest.raises(ConfigError):
        ExcitationState(np.array([0.7, 0.7]))     # not normalized
    with pytest.raises(ConfigError):
        ExcitationState(np.array([np.nan, 1.0]))
    with pytest.raises(ConfigError):
        single_photon_state(4, 0)
    with pytest.raises(ConfigError):
        single_photon_state(4, 5)
    spec = decompose(build_hamiltonian(ArrayConfig(4, np.ones(4), 0.1)))
    with pytest.raises(ConfigError, match="^t must be a finite number, got nan$"):
        evolve(s, spec, math.nan)
    six = decompose(build_hamiltonian(ArrayConfig(6, np.ones(6), 0.1)))
    with pytest.raises(ConfigError, match="5 sites but decomposition has 6"):
        evolve(single_photon_state(5, 1), six, 1.0)


def test_qubit_state_structure():
    alpha, beta = 0.6, 0.8j
    s = qubit_state(5, 3, alpha, beta)
    assert s.vacuum_amplitude == pytest.approx(alpha)
    assert s.amplitudes[3] == pytest.approx(beta)
    assert np.sum(np.abs(s.amplitudes) ** 2) == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        qubit_state(5, 3, 0.9, 0.9)               # not normalized
    # a float site indexed nothing, a bool site was read as a mask
    for call in (lambda: qubit_state(4, 1.5, 0.6, 0.8), lambda: qubit_state(4, True, 0.6, 0.8),
                 lambda: qubit_state(4.0, 1, 0.6, 0.8), lambda: single_photon_state(4, 2.0)):
        with pytest.raises(ConfigError, match="must be an integer >= 1, got"):
            call()


def test_decompose_eigensystem_properties():
    rng = np.random.default_rng(7)
    for n in (2, 3, 6, 9):
        cfg = random_config(rng, n)
        h = build_hamiltonian(cfg)
        spec = decompose(h)
        lam, vec = spec.eigenvalues, spec.eigenvectors
        assert np.all(np.diff(lam) >= -1e-14)                       # ascending
        np.testing.assert_allclose(vec.conj().T @ vec, np.eye(n), atol=1e-12)
        rebuilt = (vec * lam) @ vec.conj().T
        scale = np.max(np.abs(h.matrix))
        assert np.max(np.abs(rebuilt - h.matrix)) <= 1e-12 * scale


@pytest.mark.parametrize("profile", sorted(SWITCHING_SPECTRA),
                         ids=lambda p: f"N{p[0]}_{p[1]}to{p[2]}")
def test_decompose_matches_high_precision_spectrum(profile):
    # Weyl: a symmetric eigenvalue moves by at most the solver's backward
    # error, a small multiple of N*eps*||H|| for LAPACK; ||H||_inf >= ||H||_2.
    n_sites, m, n = profile
    h = build_hamiltonian(ArrayConfig(n_sites, switching_frequencies(1.0, m, n, n_sites),
                                      0.0013)).matrix
    bound = n_sites * np.finfo(float).eps * np.max(np.sum(np.abs(h), axis=1))
    error = np.abs(decompose(h).eigenvalues - np.array(SWITCHING_SPECTRA[profile]))
    assert np.max(error) <= bound


def test_eigenvalues_are_phase_independent():
    # the complex route (oracle: the phase inside H, numpy's complex eigh)
    # has the real route's spectrum
    rng = np.random.default_rng(11)
    cfg = random_config(rng, 6)
    spec0 = decompose(build_hamiltonian(cfg))
    for eta in (0.3, -1.2, 2.9):
        lam = np.linalg.eigvalsh(phased_hamiltonian(cfg, eta))
        np.testing.assert_allclose(lam, spec0.eigenvalues, rtol=1e-12, atol=1e-14)


def test_decompose_is_real_and_made_once_per_hamiltonian(monkeypatch):
    h = build_hamiltonian(random_config(np.random.default_rng(19), 5))
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
    spec = decompose(h)
    assert decompose(h) is spec and len(calls) == 1
    assert h.matrix.dtype == spec.eigenvectors.dtype == np.float64
    # a bare array is checked each time and its spectrum is not kept
    bare = np.array(h.matrix)
    assert decompose(bare) is not decompose(bare) and len(calls) == 3


def test_gauge_identity_of_the_bond_phase():
    # H(eta) = D H D^dag with D = diag(e^{-i k eta}), to the rounding of the
    # two exps of k eta (n |eta| eps each) and their product (3 eps); so a
    # phased amplitude is the real route's times e^{-i (n - m) eta}. The two
    # sides come from
    # two eigensolvers (complex and real eigh) with backward errors of a few
    # N eps ||H||; that dephases them by ~ N eps ||H|| t. Bound: 4 N eps
    # (1 + max|lambda| max|t|), as for the brute-force propagator.
    rng = np.random.default_rng(23)
    for n in (2, 5, 9):
        cfg = random_config(rng, n)
        real = decompose(build_hamiltonian(cfg))
        times = np.linspace(0.0, 200.0, 401)
        lam_max = np.max(np.abs(real.eigenvalues))
        bound = 4.0 * n * np.finfo(float).eps * (1.0 + lam_max * times[-1])
        for eta in (0.7, -2.4, math.pi - 1e-3):
            d = gauge(n, eta)
            h_eta = phased_hamiltonian(cfg, eta)
            dhd = d[:, None] * build_hamiltonian(cfg).matrix * d.conj()[None, :]
            assert np.max(np.abs(h_eta - dhd)) <= (n * abs(eta) + 3) * np.finfo(float).eps \
                * np.max(np.abs(h_eta))
            for m, target in ((1, n), (n, 1), (2, min(n, 4))):
                ours = transfer_amplitude(m, target, real, times) * np.exp(
                    -1j * (target - m) * eta)
                theirs = complex_transfer_amplitude(h_eta, m, target, times)
                assert np.max(np.abs(ours - theirs)) <= bound, (n, eta, m, target)


def test_evolve_matches_brute_force_propagator():
    rng = np.random.default_rng(42)
    for n in range(2, 9):
        cfg = random_config(rng, n)
        h = build_hamiltonian(cfg)
        spec = decompose(h)
        raw = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        raw /= np.linalg.norm(raw)
        state = ExcitationState(raw)
        for t in (0.0, 0.37, 2.0, 17.5):
            ours = evolve(state, spec, t).amplitudes
            brute = brute_force_evolve(h, raw, t)
            assert np.max(np.abs(ours - brute)) <= 1e-8, (n, t)


def test_two_site_rabi_oscillation():
    # resonant pair: P_2(t) = sin^2(J t) exactly
    j = 0.3
    cfg = ArrayConfig(2, np.array([1.0, 1.0]), j)
    spec = decompose(build_hamiltonian(cfg))
    start = single_photon_state(2, 1)
    for t in np.linspace(0.0, 25.0, 57):
        probs = np.abs(evolve(start, spec, float(t)).amplitudes[1:]) ** 2
        assert probs[1] == pytest.approx(math.sin(j * t) ** 2, abs=1e-10)
        assert probs[0] == pytest.approx(math.cos(j * t) ** 2, abs=1e-10)


def test_evolution_composes_and_reverses():
    rng = np.random.default_rng(3)
    cfg = random_config(rng, 5)
    spec = decompose(build_hamiltonian(cfg))
    state = single_photon_state(5, 2)
    ab = evolve(evolve(state, spec, 1.3), spec, 0.9).amplitudes
    direct = evolve(state, spec, 2.2).amplitudes
    np.testing.assert_allclose(ab, direct, atol=1e-12)
    back = evolve(evolve(state, spec, 4.0), spec, -4.0).amplitudes
    np.testing.assert_allclose(back, state.amplitudes, atol=1e-12)


def test_vacuum_amplitude_is_conserved():
    rng = np.random.default_rng(5)
    cfg = random_config(rng, 4)
    spec = decompose(build_hamiltonian(cfg))
    state = qubit_state(4, 2, 0.6 + 0.1j, math.sqrt(1 - 0.37))
    out = evolve(state, spec, 9.7)
    assert out.vacuum_amplitude == pytest.approx(state.vacuum_amplitude,
                                                 abs=1e-15)


def test_transfer_probability_consistency():
    rng = np.random.default_rng(9)
    cfg = random_config(rng, 6)
    spec = decompose(build_hamiltonian(cfg))
    times = np.array([0.0, 0.8, 3.3, 12.0])
    probs = transfer_probability(2, 5, spec, times)
    assert probs.shape == times.shape
    start = single_photon_state(6, 2)
    for t, p in zip(times, probs):
        direct = abs(evolve(start, spec, float(t)).amplitudes[5]) ** 2
        assert p == pytest.approx(direct, abs=1e-12)
    scalar = transfer_probability(2, 5, spec, 0.8)
    assert isinstance(scalar, float)
    assert scalar == pytest.approx(probs[1], abs=1e-15)
    assert transfer_probability(3, 3, spec, 0.0) == pytest.approx(1.0)
    # the amplitude behind it carries evolve's phase, not just its modulus
    amps = transfer_amplitude(2, 5, spec, times)
    assert isinstance(amps, np.ndarray) and amps.shape == times.shape
    for t, a in zip(times, amps):
        assert abs(a - evolve(start, spec, float(t)).amplitudes[5]) <= 1e-12
    assert isinstance(transfer_amplitude(2, 5, spec, 0.8), complex)


def test_transfer_probability_rejects_bad_sites():
    cfg = ArrayConfig(4, np.ones(4), 0.1)
    spec = decompose(build_hamiltonian(cfg))
    with pytest.raises(ConfigError):
        transfer_probability(0, 2, spec, 1.0)
    with pytest.raises(ConfigError):
        transfer_probability(1, 5, spec, 1.0)
    with pytest.raises(ConfigError, match="times must be finite"):
        transfer_amplitude(1, 3, spec, [0.0, math.inf])
    # an array passes the number rule by dtype alone, so its finiteness is
    # the kernel's own check, reached through the amplitude and the qubit curve
    plan = make_plan(ArrayConfig(6, switching_frequencies(1.0, 2, 4, 6), 0.0013), 2, 4)
    for times in (np.array([0.0, np.inf]), np.array([np.nan])):
        with pytest.raises(ConfigError, match="^times must be finite$"):
            transfer_amplitude(1, 3, spec, times)
        with pytest.raises(ConfigError, match="^times must be finite$"):
            qubit_fidelity_curve(plan, 0.6, 0.8, times)
    # one target or a 1-d sequence of sites in [1, N], nothing else
    for target in (0, 5, [1, 0], [2, 5], np.array([[1, 2], [3, 4]]), [1.0, 2.0]):
        with pytest.raises(ConfigError):
            transfer_amplitude(1, target, spec, [0.0, 1.0])
    # sites are integers, as ArrayConfig and switching_frequencies require:
    # 1.5 used to raise IndexError and True to answer for site 1
    for site in (1.5, 2.0, True, np.bool_(True), np.float64(2.0)):
        with pytest.raises(ConfigError, match="integer"):
            transfer_amplitude(site, 2, spec, [0.0, 1.0])
        with pytest.raises(ConfigError):
            transfer_amplitude(2, site, spec, 1.0)
    assert transfer_amplitude(np.int64(2), np.int32(3), spec, 0.7) == \
        transfer_amplitude(2, 3, spec, 0.7)


def test_unresolvable_phases_are_refused():
    # fig3b's spectrum: the bound is eps max|lambda| max|t| = 1 rad, and a
    # time just inside it still gives finite probabilities and a state that
    # passes ExcitationState's norm check
    cfg = config_and_pair({"n_sites": 6, "J": 0.0013, "frequencies":
                           {"preset": "switching", "m": 2, "n": 4}})[0]
    spec = decompose(build_hamiltonian(cfg))
    edge = 1.0 / (np.finfo(float).eps * np.abs(spec.eigenvalues).max())
    start = single_photon_state(6, 2)
    for t in (1e308, 1.001 * edge):
        with pytest.raises(NumericalInvariantError, match="unresolved in float64"):
            transfer_amplitude(2, 4, spec, [0.0, t])
        with pytest.raises(NumericalInvariantError, match="unresolved in float64"):
            evolve(start, spec, t)
    inside = 0.999 * edge
    assert np.isfinite(transfer_probability(2, 4, spec, [0.0, inside])).all()
    assert evolve(start, spec, inside).n_sites == 6


def test_decompose_refuses_non_finite_bare_arrays():
    # a bare array goes through HamiltonianMatrix, so non-finite entries are
    # a ConfigError (exit 2); both used to come back as a spectrum, the
    # first as [-0.141, 0.141, 3.0] and the second as [nan, nan]
    nan_diag = np.diag([0.0, np.nan, 3.0]) + 0.1 * (np.eye(3, k=1) + np.eye(3, k=-1))
    nan_diag[1, 2] = nan_diag[2, 1] = 0.0
    for bad in (nan_diag, np.array([[np.inf, 0.0], [0.0, 1.0]])):
        with pytest.raises(ConfigError, match="finite"):
            decompose(bad)


def test_decompose_residual_check_fails_on_nan():
    # finite entries whose spectrum overflows: the multiply-back residual is
    # NaN, which `residual > tol` let through; it must refuse (exit 4)
    with np.errstate(all="ignore"), pytest.raises(NumericalInvariantError,
                                                  match="residual"):
        decompose(np.full((2, 2), 1e308))


def test_decompose_of_bare_array_equals_its_hamiltonian_matrix():
    rng = np.random.default_rng(5)
    for n in (2, 3, 7, 12):
        h = build_hamiltonian(random_config(rng, n))
        spec, bare = decompose(h), decompose(np.array(h.matrix))
        assert bare.eigenvalues.tobytes() == spec.eigenvalues.tobytes()
        assert bare.eigenvectors.tobytes() == spec.eigenvectors.tobytes()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2 ** 31),
       st.floats(min_value=-30.0, max_value=30.0, allow_nan=False))
def test_norm_preserved_for_random_arrays(n, seed, t):
    rng = np.random.default_rng(seed)
    cfg = random_config(rng, n)
    spec = decompose(build_hamiltonian(cfg))
    raw = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    raw /= np.linalg.norm(raw)
    out = evolve(ExcitationState(raw), spec, t)
    assert np.sum(np.abs(out.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-11)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31),
       st.floats(min_value=-math.pi, max_value=3.0, allow_nan=False))
def test_site_probabilities_phase_invariant(seed, eta):
    # the bond phase is a gauge choice: single-site populations cannot see
    # it. The phased side is the oracle's complex route (phase inside H).
    rng = np.random.default_rng(seed)
    cfg = ArrayConfig(5, rng.uniform(-2.0, 2.0, 5), rng.uniform(0.1, 1.0))
    plain = decompose(build_hamiltonian(cfg))
    start = single_photon_state(5, 2)
    for t in (0.9, 6.4):
        p0 = np.abs(evolve(start, plain, t).amplitudes[1:]) ** 2
        p1 = np.array([abs(complex_transfer_amplitude(phased_hamiltonian(cfg, eta), 2, k,
                                                      [t])[0]) ** 2 for k in range(1, 6)])
        np.testing.assert_allclose(p0, p1, atol=1e-11)


def test_multi_target_equals_single_target_calls_bitwise():
    # one einsum over a stack of target rows sums each row in the same
    # order as the single-row call
    rng = np.random.default_rng(13)
    for n in (2, 6, 10, 12):
        spec = decompose(build_hamiltonian(random_config(rng, n)))
        initial = int(rng.integers(1, n + 1))
        targets = [*range(1, n + 1), n, 1]        # repeats are allowed
        for t in (rng.uniform(0.0, 1e4, 2001), np.linspace(0.0, 1e6, 2001),
                  rng.uniform(-50.0, 50.0, (3, 7)), 4.2, np.array([])):
            multi = transfer_amplitude(initial, targets, spec, t)
            assert multi.shape == np.shape(t) + (len(targets),)
            for col, target in enumerate(targets):
                single = np.asarray(transfer_amplitude(initial, target, spec, t))
                assert multi[..., col].tobytes() == single.tobytes(), (n, target)
    probs = transfer_probability(1, np.array([1, 2]), spec, [0.5, 1.5])
    assert probs.shape == (2, 2)
    # empty grids and an empty target array keep their shapes
    empty = np.array([])
    assert transfer_amplitude(1, 2, spec, empty).shape == (0,)
    assert transfer_amplitude(1, [1, 2, 3], spec, empty).shape == (0, 3)
    assert transfer_amplitude(1, np.array([], int), spec,
                              np.linspace(0.0, 1e4, 50)).shape == (50, 0)


def _fig3b_spectrum():
    return decompose(build_hamiltonian(
        ArrayConfig(6, switching_frequencies(1.0, 2, 4, 6), 0.0013)))


@pytest.mark.parametrize("t_max", [1e2, 1e4, 1e6, 1e8])
def test_block_route_matches_high_precision(t_max):
    # Uniform grids split as t[aB + b] = t[aB] + (t[b] - t[0]), so each
    # phase is e^{-i lambda t[aB]} e^{-i lambda (t[b] - t[0])}. Error per
    # phase, in eps |lambda| max|t|: 4 from the split test, 1/2 from its
    # own sum's rounding, 1/2 and 1 from rounding lambda t[aB] and lambda
    # (t[b] - t[0]) (|t[b] - t[0]| <= 2 max|t|): 6 in all; two exps and a
    # complex product add ~6 eps. An amplitude adds the weights' products
    # with coeffs and with the offset table (2 eps) and N - 1 = 5 additions
    # against sum |w_k| <= 1: 6 eps (1 + |lambda| max|t|) + 7 eps, under
    # c = 16. The reference is 50-digit mpmath at the float times,
    # eigenvalues and eigenvectors, so only the kernel is measured.
    mpmath = pytest.importorskip("mpmath")
    spec = _fig3b_spectrum()
    lam, vec = spec.eigenvalues, spec.eigenvectors
    m, n = 2, 4
    c = 16.0
    with mpmath.workdps(50):
        lam_mp = [mpmath.mpf(x) for x in lam]
        w_mp = [mpmath.mpc(vec[n - 1, k]) * mpmath.conj(mpmath.mpc(vec[m - 1, k]))
                for k in range(lam.size)]
        for size in (17, 401, 2001):
            t = np.linspace(0.0, t_max, size)
            coarse, offsets = _split(t, t_max)
            assert offsets.size > 1, size
            # coarse[a] + offsets[b] reproduces every time within the split test
            split = (coarse[:, None] + offsets).ravel()[:size]
            assert np.max(np.abs(split - t)) <= 4.0 * np.finfo(float).eps * t_max
            bound = c * np.finfo(float).eps * (1.0 + np.max(np.abs(lam)) * t_max)
            phases = _mode_sum(np.eye(lam.size), np.ones(lam.size), lam, t)
            amps = transfer_amplitude(m, n, spec, t)
            # every time of the short grids; every 7th of 2001 (7 is prime to
            # B = 45, so each offset b inside a block is visited)
            for j in range(0, size, 1 if size < 1000 else 7):
                exact = [mpmath.expj(-x * mpmath.mpf(t[j])) for x in lam_mp]
                ref_phase = np.array([complex(z) for z in exact])
                assert np.max(np.abs(phases[j] - ref_phase)) <= bound, (size, j)
                ref_amp = complex(mpmath.fsum(w * z for w, z in zip(w_mp, exact)))
                assert abs(amps[j] - ref_amp) <= bound, (size, j)


def test_direct_route_is_bitwise_the_plain_formula():
    # non-uniform, short, scalar and shaped non-uniform times split as
    # (t, [0.0]), and the contraction is the plain exp(t (x) -i lambda) einsum,
    # byte for byte, for one row and for a stack of rows (as evolve calls it)
    spec = _fig3b_spectrum()
    lam, vec = spec.eigenvalues, spec.eigenvectors
    rng = np.random.default_rng(17)
    weights = vec[3] * np.conj(vec[1])
    psi = [1.0, 1j] @ np.random.default_rng(19).normal(size=(2, lam.size))
    coeffs = np.einsum("jk,j->k", vec, psi / np.linalg.norm(psi))
    for t in (np.sort(rng.uniform(0.0, 1e6, 401)), np.linspace(0.0, 1e6, 4), 4.2e5,
              rng.uniform(0.0, 1e5, (3, 7)),
              np.append(np.linspace(0.0, 1e6, 2001), 3.3e5)):
        flat = np.ravel(t)
        coarse, offsets = _split(flat, np.abs(flat).max())
        assert coarse.tobytes() == flat.tobytes() and offsets.tobytes() == bytes(8)
        table = np.exp(np.multiply.outer(flat, -1j * lam))
        plain = np.einsum("tk,...k->t...", table, weights)
        ours = transfer_amplitude(2, 4, spec, t)
        assert np.asarray(ours).tobytes() == plain.reshape(np.shape(t)).tobytes()
        stack = np.einsum("tk,...k->t...", table, vec * coeffs)
        assert _mode_sum(vec, coeffs, lam, flat).tobytes() == stack.tobytes()
    # the split reads the flattened times: a reshaped grid is its flat call
    grid = np.linspace(0.0, 1e6, 21)
    assert _split(grid, 1e6)[1].size > 1
    assert transfer_amplitude(2, 4, spec, grid.reshape(3, 7)).tobytes() == \
        transfer_amplitude(2, 4, spec, grid).tobytes()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=2 ** 31),
       st.floats(min_value=-30.0, max_value=30.0, allow_nan=False))
def test_multi_target_matches_brute_force_propagator(n, seed, t):
    # random frequencies and couplings; scipy's expm of the dense
    # matrix shares nothing with the spectral route. eigh is backward stable,
    # so V diag(lambda) V^dag = H + E with |E| ~ n eps |H|: the propagator is
    # off by ~ |E| |t|, plus ~ n eps from V's non-orthogonality; expm's own
    # error is of the same order. The bound is four times that.
    rng = np.random.default_rng(seed)
    h = build_hamiltonian(random_config(rng, n))
    spec = decompose(h)
    initial = int(rng.integers(1, n + 1))
    start = np.zeros(n + 1, dtype=complex)
    start[initial] = 1.0
    brute = brute_force_evolve(h, start, t)[1:]
    ours = transfer_amplitude(initial, range(1, n + 1), spec, t)
    h_norm = np.max(np.sum(np.abs(h.matrix), axis=1))
    bound = 4.0 * n * np.finfo(float).eps * (1.0 + h_norm * abs(t))
    assert np.max(np.abs(ours - brute)) <= bound


def test_resonant_walk_columns_match_brute_force(tmp_path):
    # every p_k of the fig1 walk on a 401-point grid, against scipy's expm.
    # |dP| <= 2 |d amplitude| + |d amplitude|^2, and each amplitude carries
    # the conditioning bound of the test above, on either split of the grid
    out = tmp_path / "walk.csv"
    assert cli_main(["resonant-walk", "--preset", "fig1", "--grid", "0:84:401",
                     "--out", str(out)]) == 0
    meta, columns, rows = read_csv_output(out)
    cfg = config_and_pair(meta["config"])[0]
    n = cfg.n_sites
    h = build_hamiltonian(cfg)
    rows = np.array(rows)
    assert rows.shape == (401, 2 * n + 3)
    p_cols = [columns.index(f"p_{k}") for k in range(1, n + 1)]
    start = np.zeros(n + 1, dtype=complex)
    start[1] = 1.0
    h_norm = np.max(np.sum(np.abs(h.matrix), axis=1))
    for row in rows:
        t = row[0] / cfg.frequencies[0]
        brute = np.abs(brute_force_evolve(h, start, t)[1:]) ** 2
        amp_bound = 2 * 4.0 * n * np.finfo(float).eps * (1.0 + h_norm * t)
        assert np.max(np.abs(row[p_cols] - brute)) <= 2 * amp_bound + amp_bound ** 2
    # the boundary column is p_N's cells, bit for bit
    assert np.array_equal(rows[:, columns.index("boundary_population")],
                          rows[:, p_cols[-1]])
