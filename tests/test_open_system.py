"""Uniform-loss master equation: generator structure, integrator invariants,
analytic decay oracles, and the averaged-fidelity study.

Two independent oracles anchor this file: a dense superoperator built from
the jump operators |0><k| (compared term by term against lindblad_rhs, and
exponentiated by scipy against integrate_master), and the closed-form
factorized solution for a lossy single excitation (amplitudes damped by
e^{-gamma t / 2} around the unitary flow).
"""

import cmath
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from gfsim.errors import ConfigError, NumericalInvariantError
from gfsim.model import ArrayConfig, build_hamiltonian, switching_frequencies
from gfsim.protocol import DoubletPurityWarning, make_plan, plan_config, \
    qubit_fidelity_curve
from gfsim.dynamics import decompose, evolve, qubit_state, single_photon_state, \
    transfer_amplitude
from gfsim.open_system import (
    DensityMatrix,
    average_transfer_fidelity,
    _rk4_powers,
    integrate_master,
    reference_qubit_states,
    sample_qubit_states,
)

from conftest import resonant_template
from oracles import gauge, lindblad_rhs, state_fidelity


def dense_lindblad(rho, h, gamma):
    """Independent oracle: -i[H, rho] + gamma sum_k D[|0><k|] rho on the
    full vacuum + sites space."""
    dim = h.shape[0] + 1
    full_h = np.zeros((dim, dim), dtype=complex)
    full_h[1:, 1:] = h
    out = -1j * (full_h @ rho - rho @ full_h)
    for k in range(1, dim):
        jump = np.zeros((dim, dim), dtype=complex)
        jump[0, k] = 1.0
        jj = jump.conj().T @ jump
        out += gamma * (jump @ rho @ jump.conj().T - 0.5 * (jj @ rho + rho @ jj))
    return out


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def lossy_pure_state_oracle(psi0, spec, gamma, t):
    """rho(t) for an initial pure excitation state under uniform loss:
    site amplitudes follow the unitary flow damped by e^{-gamma t/2}, the
    vacuum population absorbs the rest."""
    evolved = evolve(psi0, spec, t).amplitudes.copy()
    evolved[1:] *= math.exp(-gamma * t / 2.0)
    rho = np.outer(evolved, evolved.conj())
    rho[0, 0] += 1.0 - np.sum(np.abs(evolved) ** 2)
    return rho


def test_density_matrix_validation():
    # a state is valid by type: construction itself refuses a bad shape or a
    # non-finite entry (ConfigError) and a matrix that is not Hermitian, not
    # of unit trace or not positive (NumericalInvariantError)
    rho = DensityMatrix.from_state(single_photon_state(3, 2))
    assert rho.matrix.shape == (4, 4)
    assert abs(np.trace(rho.matrix).real - 1.0) <= 1e-15
    assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-15
    with pytest.raises(ConfigError):
        DensityMatrix(np.ones((2, 3)))
    with pytest.raises(NumericalInvariantError, match="Hermiticity defect"):
        DensityMatrix(np.array([[0.5, 1j], [2j, 0.5]]))
    bad_trace = np.diag([0.9, 0.6]).astype(complex)
    with pytest.raises(NumericalInvariantError, match="trace drift"):
        DensityMatrix(bad_trace)
    not_psd = np.array([[1.2, 0.0], [0.0, -0.2]], dtype=complex)
    with pytest.raises(NumericalInvariantError, match="negative population"):
        DensityMatrix(not_psd)
    with pytest.raises(ConfigError, match="entries must be finite"):
        DensityMatrix(np.array([[0.5, 0.0], [0.0, np.nan]]))


def test_rhs_matches_dense_superoperator():
    rng = np.random.default_rng(23)
    for n in (2, 3, 5):
        cfg = ArrayConfig(n, rng.uniform(-2, 2, n), 0.4)
        h = build_hamiltonian(cfg)
        for gamma in (0.0, 0.07, 1.3):
            rho = random_density(rng, n + 1)
            ours = lindblad_rhs(rho, h, gamma)
            brute = dense_lindblad(rho, h.matrix, gamma)
            assert np.max(np.abs(ours - brute)) <= 1e-13


def test_rhs_is_trace_free_and_hermiticity_preserving():
    rng = np.random.default_rng(29)
    cfg = ArrayConfig(4, rng.uniform(-1, 1, 4), 0.3)
    h = build_hamiltonian(cfg)
    rho = random_density(rng, 5)
    out = lindblad_rhs(rho, h, 0.2)
    assert abs(np.trace(out)) <= 1e-14
    assert np.max(np.abs(out - out.conj().T)) <= 1e-14


def test_rhs_rejects_negative_decay():
    cfg = resonant_template(3)
    h = build_hamiltonian(cfg)
    with pytest.raises(ConfigError):
        lindblad_rhs(np.eye(4, dtype=complex) / 4, h, -0.1)


def explicit_rk4_step(rho, h, gamma, dt):
    k1 = lindblad_rhs(rho, h, gamma)
    k2 = lindblad_rhs(rho + 0.5 * dt * k1, h, gamma)
    k3 = lindblad_rhs(rho + 0.5 * dt * k2, h, gamma)
    k4 = lindblad_rhs(rho + dt * k3, h, gamma)
    return rho + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


def test_one_step_equals_explicit_rk4_stages():
    # the per-eigenmode RK4 factor must equal one explicit 4-stage step of
    # lindblad_rhs
    rng = np.random.default_rng(31)
    cfg = ArrayConfig(4, rng.uniform(-1, 1, 4), 0.35)
    h = build_hamiltonian(cfg)
    gamma, dt = 0.12, 0.01
    rho = random_density(rng, 5)
    run = integrate_master(rho, h, gamma, dt, dt)
    assert run.n_steps == 1
    explicit = explicit_rk4_step(rho, h, gamma, dt)
    assert np.max(np.abs(run.final.matrix - explicit)) <= 1e-14


def test_thousand_steps_equal_repeated_explicit_steps():
    # R(dt*mu)^k is k steps, not an approximation to them; dt is small enough
    # for the always-on dt/2 check
    rng = np.random.default_rng(37)
    cfg = ArrayConfig(3, rng.uniform(-1, 1, 3), 0.3)
    h = build_hamiltonian(cfg)
    rho = random_density(rng, 4)
    run = integrate_master(rho, h, 0.05, 2.0, 2e-3)
    assert run.n_steps == 1000
    loop = rho
    for _ in range(1000):
        loop = explicit_rk4_step(loop, h, 0.05, run.dt)
    assert np.max(np.abs(run.final.matrix - loop)) <= 1e-12


def explicit_checkpoints(rho, h, gamma, dt, counts):
    """States after counts[i] explicit RK4 steps of size dt, one step loop."""
    states, k = [], 0
    for count in counts:
        while k < count:
            rho = explicit_rk4_step(rho, h, gamma, dt)
            k += 1
        states.append(rho)
    return states


def checkpoint_run():
    rng = np.random.default_rng(43)
    cfg = ArrayConfig(4, rng.uniform(-1, 1, 4), 0.35)
    h = build_hamiltonian(cfg)
    rho = random_density(rng, 5)
    gamma, dt = 0.08, 0.02
    return rho, h, gamma, dt, integrate_master(rho, h, gamma, 32 * dt, dt)


def test_checkpoint_states_equal_explicit_steps():
    # 32 steps give the counts 2, 4, ..., 32: every row of the batched
    # evaluation must be the state after that many steps, in that order
    rho, h, gamma, dt, run = checkpoint_run()
    assert run.n_steps == 32 and run.dt == dt
    counts = np.arange(2, 33, 2)
    np.testing.assert_allclose(run.times, counts * dt, rtol=1e-15)
    explicit = explicit_checkpoints(rho, h, gamma, dt, counts)
    # the checked checkpoints come back as one read-only stack
    assert isinstance(run.states, np.ndarray)
    assert run.states.shape == (16, 5, 5)
    assert not run.states.flags.writeable
    for state, want in zip(run.states, explicit):
        assert np.max(np.abs(state - want)) <= 1e-13
    assert run.final.matrix.tobytes() == run.states[-1].tobytes()


def test_step_defect_equals_explicit_halving():
    rho, h, gamma, dt, run = checkpoint_run()
    coarse = explicit_checkpoints(rho, h, gamma, dt, [32])[0]
    fine = explicit_checkpoints(rho, h, gamma, dt / 2.0, [64])[0]
    defect = float(np.max(np.abs(coarse - fine)))
    assert 1e-12 < run.step_defect <= 1e-8
    # each side carries ~1e-15 of rounding (the state test above)
    assert abs(run.step_defect - defect) <= 1e-14


# R(z)^k for k in RK4_POWER_COUNTS, with R the RK4 polynomial and z taken as
# the exact float64 value   [mpmath, 50 dps, printed to 20 digits]
RK4_POWER_COUNTS = (1, 7, 99, 100, 3125, 10 ** 7, 2 * 10 ** 7)
FROZEN_RK4_POWERS = {
    complex(-1.3e-7, -2.5e-4): (  # damped: a site coherence of the benchmark's long runs
        complex(9.9999983875001267526e-1, -2.4999996489583578958e-4),
        complex(9.9999755875219827411e-1, -1.7499975142725075138e-3),
        complex(9.9968086840881264944e-1, -2.4747154759146859346e-2),
        complex(9.996745204224642312e-1, -2.499707095067770991e-2),
        complex(7.0974549088461072312e-1, -7.0388150150271029398e-1),
        complex(2.0707650057174726682e-1, 1.7718041970063470897e-1),
        complex(1.1487775963747782029e-2, 7.3379802562881808019e-2),
    ),
    complex(-6.5e-8, 1e-3): (  # damped: their vacuum row
        complex(9.9999943500007627917e-1, 9.9999976833334629998e-4),
        complex(9.9997504511129246807e-1, 6.999939648500068668e-3),
        complex(9.950970977055657134e-1, 9.8837726707861396846e-2),
        complex(9.9499769777197095894e-1, 9.9832767731728097145e-2),
        complex(-9.9965926866848787853e-1, 1.6588522343530403271e-2),
        complex(-4.9706868883318981628e-1, -1.5954470099518514836e-1),
        complex(2.2162276980270344949e-1, 1.5860935066791999225e-1),
    ),
    complex(-2e-5, 0.02): (  # damped, R^k down to 1e-174
        complex(9.9978001086662533333e-1, 1.9998266697333307083e-2),
        complex(9.9007737570071819221e-1, 1.3952357979053647544e-1),
        complex(-3.9709185059813855483e-1, 9.1562322632596629418e-1),
        complex(-4.1531537218039477683e-1, 9.0748065043430992126e-1),
        complex(8.8815888950147728996e-1, -3.0605667427478629913e-1),
        complex(1.3803286415448457654e-87, -9.9249793682770702753e-89),
        complex(1.8954566371229667598e-174, -2.739946657754901981e-175),
    ),
    1e-3j: (  # lossless, |R| = 1 - 7e-21
        complex(9.9999950000004166667e-1, 9.9999983333333335415e-4),
        complex(9.9997550010004150362e-1, 6.9999428334733333168e-3),
        complex(9.9510350117599259245e-1, 9.883836273067916313e-2),
        complex(9.9500416527802584839e-1, 9.9833416646827325139e-2),
        complex(-9.9986234508168613168e-1, 1.6591892229373876989e-2),
        complex(-9.5215536828435296722e-1, -3.0561438880908287294e-1),
        complex(8.131996907055625536e-1, 5.8198476185901948582e-1),
    ),
    0.3j: (  # lossless, |R| = 1 - 5e-6
        complex(9.5533750000000000328e-1, 2.954999999999999894e-1),
        complex(-5.0470996459394221464e-1, 8.6324838609056109799e-1),
        complex(-1.464686907405779855e-1, -9.8871447363284299209e-1),
        complex(1.5223809411812817197e-1, -9.8783751156805693836e-1),
        complex(3.159071524074463087e-1, 9.3241737059885620337e-1),
        complex(-1.2475645376117816154e-22, -1.3309255935137684257e-22),
        complex(-2.1494565996347827757e-45, 3.3208311453353810373e-44),
    ),
    0j: (  # a population mode without loss: R = 1
        complex(1.0, 0.0),
        complex(1.0, 0.0),
        complex(1.0, 0.0),
        complex(1.0, 0.0),
        complex(1.0, 0.0),
        complex(1.0, 0.0),
        complex(1.0, 0.0),
    ),
    1j * (2.0 * math.sqrt(2.0) * (1.0 - 1e-6)): (  # just inside the edge on the imaginary axis
        complex(-3.3333599998800002693e-1, -9.4280055631200278027e-1),
        complex(6.9083935046144144767e-1, -7.2293944503887366565e-1),
        complex(7.9086773765174999586e-1, -6.1083648503451047346e-1),
        complex(-8.3952166609459818026e-1, -5.4201675245915140163e-1),
        complex(-1.449167316951564541e-1, -9.6722688858306139717e-1),
        complex(-5.8599007086226885787e-33, 1.3073206518305004471e-31),
        complex(-1.7056534430710329033e-62, -1.5321538428117249409e-63),
    ),
    # (1 - 1e-7) times the real-axis edge x = -2.78529356340528, where R(x) = 1
    complex(-2.7852932848759258): (
        complex(9.9999958006606672924e-1, 0.0),
        complex(9.9999706046617033675e-1, 0.0),
        complex(9.9995842739604178939e-1, 0.0),
        complex(9.9995800747956626572e-1, 0.0),
        complex(9.9868856686399162532e-1, 0.0),
        complex(1.5005473950304297544e-2, 0.0),
        complex(2.2516424847326086024e-4, 0.0),
    ),
}


def test_rk4_powers_match_high_precision():
    # The bound, derived before the comparison was run. fl(R(z)) =
    # R(z)(1 + rho) with |rho| <= 8 eps kappa, where kappa = sum_j |z|^j/j!
    # / |R(z)| is the conditioning of the five-term sum (a few roundings per
    # term); log then adds eps |log R| per component, the product k * log R
    # eps |k log R|, and exp a few eps. Each error in the exponent is
    # multiplied by k, so
    #     |exp(k log fl R) - R^k| / |R^k| <= 8 eps (k (kappa + |log R|) + 1).
    # Counts below 100 are covered too: there numpy's complex power
    # multiplied, so their last bits may differ from what it gave.
    eps = float(np.finfo(float).eps)
    counts = np.array(RK4_POWER_COUNTS, dtype=float)
    for z, refs in FROZEN_RK4_POWERS.items():
        got = _rk4_powers(np.array([[z]]), counts,
                          np.zeros(len(counts), dtype=int))[:, 0]
        r = abs(z)
        factor = 1.0 + z + z * z / 2.0 + z ** 3 / 6.0 + z ** 4 / 24.0
        kappa = sum(r ** j / math.factorial(j) for j in range(5)) / abs(factor)
        log_r = abs(np.log(factor))
        for k, value, want in zip(RK4_POWER_COUNTS, got, refs):
            bound = 8.0 * eps * (k * (kappa + log_r) + 1.0)
            assert abs(value - want) <= bound * abs(want), (z, k)


def test_integrator_matches_dense_superoperator_expm():
    # shares nothing with decompose: the (N+1)^2-dim Lindblad superoperator is
    # assembled column by column from dense_lindblad and exponentiated by
    # scipy; mixed start
    rng = np.random.default_rng(41)
    n, gamma, t_end = 4, 0.1, 5.0
    cfg = ArrayConfig(n, rng.uniform(-1, 1, n), 0.7)
    h = build_hamiltonian(cfg)
    dim = n + 1
    basis = np.eye(dim * dim, dtype=complex).reshape(dim * dim, dim, dim)
    superop = np.stack([dense_lindblad(e, h.matrix, gamma).ravel()
                        for e in basis], axis=1)
    rho0 = random_density(rng, dim)
    exact = (expm(superop * t_end) @ rho0.ravel()).reshape(dim, dim)
    run = integrate_master(rho0, h, gamma, t_end, 1e-3)
    assert np.max(np.abs(run.final.matrix - exact)) <= 1e-8   # measured ~1e-12


def test_single_mode_decay_closed_form():
    # one cavity: rho_11 decays at gamma, coherence at gamma/2 with phase
    # rotation at omega
    omega, gamma = 1.7, 0.31
    h = np.array([[omega]], dtype=complex)
    alpha, beta = math.sqrt(0.3), math.sqrt(0.7)
    rho0 = DensityMatrix.from_state(qubit_state(1, 1, alpha, beta))
    for t in (0.5, 2.0, 7.0):
        run = integrate_master(rho0, h, gamma, t, 1e-3)
        got = run.final.matrix
        p1 = beta ** 2 * math.exp(-gamma * t)
        coh = alpha * beta * math.exp(-gamma * t / 2) * np.exp(1j * omega * t)
        assert got[1, 1].real == pytest.approx(p1, abs=1e-8)
        assert got[0, 0].real == pytest.approx(1 - p1, abs=1e-8)
        assert got[0, 1] == pytest.approx(coh, abs=1e-8)


def test_integrator_matches_factorized_oracle():
    cases = [
        ((1, 3), single_photon_state(6, 1), 0.02, 50.0),
        # the benchmark's long runs: 1e7 steps, vacuum row included
        ((1, 4), qubit_state(6, 1, 0.6, 0.8j), 0.1 * 0.0013, 1e4),
    ]
    for pair, psi0, gamma, t_end in cases:
        cfg = ArrayConfig(6, switching_frequencies(1.0, *pair, 6), 0.0013)
        h = build_hamiltonian(cfg)
        spec = decompose(h)
        rho0 = DensityMatrix.from_state(psi0)
        run = integrate_master(rho0, h, gamma, t_end, 1e-3)
        assert len(run.states) == 16
        oracle = lossy_pure_state_oracle(psi0, spec, gamma, t_end)
        assert np.max(np.abs(run.final.matrix - oracle)) <= 1e-8
        assert run.converged and run.step_defect <= 1e-8


def test_integrator_matches_unitary_flow_without_loss():
    cfg = ArrayConfig(6, switching_frequencies(1.0, 1, 3, 6), 0.0013)
    h = build_hamiltonian(cfg)
    spec = decompose(h)
    psi0 = single_photon_state(6, 1)
    run = integrate_master(DensityMatrix.from_state(psi0), h, 0.0, 200.0, 1e-3)
    psi_t = evolve(psi0, spec, 200.0).amplitudes
    exact = np.outer(psi_t, psi_t.conj())
    assert np.max(np.abs(run.final.matrix - exact)) <= 1e-9


def test_integrator_checkpoint_invariants():
    cfg = ArrayConfig(6, switching_frequencies(1.0, 2, 4, 6), 0.0013)
    h = build_hamiltonian(cfg)
    rho0 = DensityMatrix.from_state(qubit_state(6, 2, 0.6, 0.8))
    run = integrate_master(rho0, h, 5e-3, 400.0, 2e-3)
    assert len(run.states) == len(run.times)
    assert run.times[-1] == pytest.approx(400.0)
    vac = []
    for matrix in run.states:
        assert np.max(np.abs(matrix - matrix.conj().T)) <= 1e-10
        assert abs(np.trace(matrix).real - 1.0) <= 1e-8
        assert np.linalg.eigvalsh(matrix)[0] >= -1e-8
        vac.append(matrix[0, 0].real)
    # vacuum population only ever grows under pure loss
    assert all(b >= a - 1e-12 for a, b in zip(vac, vac[1:]))


def test_purity_dips_then_recovers():
    # purity of an initially pure state falls until half the excitation is
    # gone (gamma t = ln 2) and climbs back toward the pure vacuum later
    cfg = resonant_template(4, coupling=0.2)
    h = build_hamiltonian(cfg)
    rho0 = DensityMatrix.from_state(qubit_state(4, 1, math.sqrt(0.5),
                                                math.sqrt(0.5)))
    gamma = 0.5
    t_half = math.log(2.0) / gamma

    def purity(t):
        if t == 0.0:
            return 1.0
        run = integrate_master(rho0, h, gamma, t, 5e-4)
        m = run.final.matrix
        return float(np.trace(m @ m).real)

    early = [purity(f * t_half) for f in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert all(b <= a + 1e-9 for a, b in zip(early, early[1:]))
    late = purity(8.0 * t_half)
    assert late > purity(t_half) + 0.1
    assert late > 0.8


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_integrator_flags_too_coarse_steps():
    # one site, gamma = 0.5, one step of dt = 1: RK4 is stable there
    # (R(-0.5) = 0.6068) and every checkpoint passes, but the dt/2 rerun
    # differs by R(-0.5) - R(-0.25)^2 = 2.28e-4, so the halving check refuses
    one_site = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
    with pytest.raises(NumericalInvariantError, match="step-halving defect 2.280e-04"):
        integrate_master(one_site, np.array([[1.0]]), 0.5, 1.0, 1.0)
    # a step this coarse already drives a checkpoint's population negative,
    # before the halving comparison is reached
    cfg = resonant_template(4, coupling=0.3)
    h = build_hamiltonian(cfg)
    rho0 = DensityMatrix.from_state(single_photon_state(4, 1))
    with pytest.raises(NumericalInvariantError, match="negative population"):
        integrate_master(rho0, h, 0.1, 40.0, 1.3)
    # outside RK4's stability region the modes overflow: still a numerical
    # refusal (exit 4), not a complaint about the input, and it names the
    # first checkpoint (2083 of 33334 steps), where the run already fails
    t_first = 2083 * (1e5 / 33334)
    with pytest.raises(NumericalInvariantError, match=f"at t = {t_first:.6g} "):
        integrate_master(rho0, h, 0.1, 1e5, 3.0)
    # 5e18 steps: the dt/2 rerun's 1e19 steps do not fit an int64, and the
    # lossless coherences grow by R(dt*mu)'s rounding raised to 5e18; a
    # numerical refusal, with no overflow warning on the way (the mark above
    # would hide one)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalInvariantError, match="negative population"):
            integrate_master(rho0, h, 0.0, 5e9, 1e-9)


def test_integrator_names_the_earliest_failing_checkpoint():
    # Two sites, no loss: the only moving mode is the coherence between the
    # two eigenstates (splitting 1), and just past RK4's stability edge
    # y = dt * 1 > 2 sqrt 2 one step multiplies it by |R(iy)| = g > 1. From
    # |1><1| the smallest eigenvalue after k steps is -(g^k - 1)/2, so with
    # ln g = 2e-8 / 7.5 checkpoints k = 1..7 stay inside the -1e-8 bound and
    # k = 8 is the first one out; the later ones fail too.
    h = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
    rho0 = DensityMatrix.from_state(single_photon_state(2, 1))
    log_g = 2e-8 / 7.5
    # |R(iy)|^2 = 1 + (y^6 / 72)(y^2 / 8 - 1), to first order past y^2 = 8
    dt = math.sqrt(8.0 * (1.0 + 2.0 * log_g * 72.0 / 512.0))
    states = explicit_checkpoints(rho0.matrix, h, 0.0, dt, range(1, 17))
    assert all(np.max(np.abs(m - m.conj().T)) <= 1e-10 for m in states)
    lowest = [np.linalg.eigvalsh(m)[0] for m in states]
    assert all(-1e-8 < ev for ev in lowest[:7])
    assert all(ev < -1e-8 for ev in lowest[7:])
    with pytest.raises(NumericalInvariantError,
                       match=f"negative population.* at t = {8 * dt:.6g} "):
        integrate_master(rho0, h, 0.0, 16 * dt, dt)


def test_integrator_input_validation():
    cfg = resonant_template(3)
    h = build_hamiltonian(cfg)
    rho0 = DensityMatrix.from_state(single_photon_state(3, 1))
    with pytest.raises(ConfigError):
        integrate_master(rho0, h, -0.1, 1.0, 1e-3)
    with pytest.raises(ConfigError):
        integrate_master(rho0, h, 0.1, -1.0, 1e-3)
    with pytest.raises(ConfigError):
        integrate_master(rho0, h, 0.1, 1.0, 0.0)
    wrong_dim = DensityMatrix.from_state(single_photon_state(5, 1))
    with pytest.raises(ConfigError):
        integrate_master(wrong_dim, h, 0.1, 1.0, 1e-3)
    # Hermitian but not tridiagonal: the eigenmode route needs a chain
    dense = np.full((3, 3), 0.2, dtype=complex) + np.diag([1.0, 1.1, 1.2])
    with pytest.raises(ConfigError):
        integrate_master(rho0, dense, 0.1, 1.0, 1e-3)
    # t_end = 0 takes no step and returns the initial state as it is
    run = integrate_master(rho0, h, 0.1, 0.0, 1e-3)
    assert np.array_equal(run.final.matrix, rho0.matrix)
    assert run.n_steps == 0
    assert run.times.tolist() == [0.0]
    assert run.states.shape == (1, 4, 4)


@pytest.mark.parametrize("diagonal", [
    [0.0, 1.0, 1.0, 0.0],         # trace 2
    [0.0, 1.5, -0.5, 0.0],        # smallest eigenvalue -0.5
    [0.0, 1e307, -1e307, 1.0],    # entries of +-1e307
], ids=["trace2", "negative", "huge"])
@pytest.mark.parametrize("t_end", [1.0, 0.0])
def test_integrator_refuses_an_invalid_initial_state(diagonal, t_end):
    # an invalid state is refused before any step, whether or not the run
    # would step, and without a floating-point warning: as a DensityMatrix it
    # cannot be constructed, and integrate_master makes a raw array one first.
    # The message ends at its bound, without a checkpoint's "at t = ...".
    h = build_hamiltonian(resonant_template(3))
    matrix = np.diag(np.array(diagonal, dtype=complex))
    refusal = r"(exceeds 1e-08|below -1e-08)$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalInvariantError, match=refusal):
            DensityMatrix(matrix)
        with pytest.raises(NumericalInvariantError, match=refusal):
            integrate_master(matrix, h, 0.1, t_end, 1e-2)


def test_state_fidelity_basics():
    psi = qubit_state(3, 2, 0.6, 0.8)
    rho = DensityMatrix.from_state(psi)
    assert state_fidelity(rho, psi) == pytest.approx(1.0, abs=1e-14)
    other = qubit_state(3, 2, 0.8, -0.6)
    assert state_fidelity(rho, other) == pytest.approx(0.0, abs=1e-14)
    mixed = DensityMatrix(np.eye(4, dtype=complex) / 4.0)
    assert state_fidelity(mixed, psi) == pytest.approx(0.25, abs=1e-14)


def test_haar_sampler_is_deterministic_and_unbiased():
    a1, b1 = sample_qubit_states(300, 20260823)
    a2, b2 = sample_qubit_states(300, 20260823)
    np.testing.assert_array_equal(a1, a2)
    np.testing.assert_array_equal(b1, b2)
    a3, _ = sample_qubit_states(300, 1)
    assert np.max(np.abs(a1 - a3)) > 1e-3
    np.testing.assert_allclose(np.abs(a1) ** 2 + np.abs(b1) ** 2, 1.0,
                               atol=1e-12)
    assert np.all(a1.real >= 0) and np.all(a1.imag == 0)
    # E|alpha|^2 = 1/2 for the uniform measure
    assert np.mean(np.abs(a1) ** 2) == pytest.approx(0.5, abs=0.06)


def test_reference_states_are_the_four_fixed_qubits():
    alphas, betas = reference_qubit_states()
    assert alphas.shape == (4,)
    np.testing.assert_allclose(np.abs(alphas) ** 2 + np.abs(betas) ** 2, 1.0,
                               rtol=1e-12)
    np.testing.assert_allclose(alphas[0], 0.5, rtol=1e-12)
    np.testing.assert_allclose(betas[0], math.sqrt(3) / 2, rtol=1e-12)


STUDY_GRID = np.logspace(-3.0, 0.0, 9)


@pytest.fixture(scope="module")
def curve_13(plan_13):
    return average_transfer_fidelity(plan_13, STUDY_GRID,
                                     *sample_qubit_states(60, 20260823))


class TestAveragedFidelityStudy:
    GRID = STUDY_GRID

    def test_shapes_and_metadata(self, curve_13, plan_13):
        c = curve_13
        assert c.samples == 60
        assert c.transfer_time == pytest.approx(plan_13.transfer_time)
        assert c.gamma_over_J.shape == c.mean_fidelity.shape == c.stderr.shape
        assert np.all(c.stderr > 0)

    def test_lossless_limit_is_nearly_perfect(self, plan_13):
        # gamma/J = 0 is a legal grid point; only doublet leakage remains
        curve = average_transfer_fidelity(plan_13, np.array([0.0]),
                                          *sample_qubit_states(60, 20260823))
        assert curve.mean_fidelity[0] >= 0.999
        assert curve.mean_fidelity[0] == pytest.approx(0.99999289, abs=2e-6)

    def test_visible_decay_at_moderate_loss(self, curve_13, plan_13):
        # gamma/J = 1e-3 already costs ~ 1 - e^{-gamma t*} of the excitation
        gamma_t = curve_13.gamma_over_J[0] * 0.0013 * plan_13.transfer_time
        assert 0.3 < gamma_t < 0.6
        assert 0.8 < curve_13.mean_fidelity[0] < 0.95

    def test_monotone_with_shared_random_numbers(self, curve_13):
        f = curve_13.mean_fidelity
        # one common state ensemble across the grid: downward trend should
        # hold sample by sample, far inside one standard error
        assert np.all(np.diff(f) <= curve_13.stderr[:-1])
        assert f[-1] < 0.6

    def test_same_seed_reproduces_bitwise(self, plan_13, curve_13):
        again = average_transfer_fidelity(plan_13, self.GRID,
                                          *sample_qubit_states(60, 20260823))
        np.testing.assert_array_equal(again.mean_fidelity,
                                      curve_13.mean_fidelity)
        np.testing.assert_array_equal(again.stderr, curve_13.stderr)

    def test_frozen_endpoints_for_study_seed(self, plan_13):
        # 200 Haar samples, seed 20260823: values pinned from the first
        # validated run of this code
        grid = np.array([0.0, 1.0])
        curve = average_transfer_fidelity(plan_13, grid,
                                          *sample_qubit_states(200, 20260823))
        assert curve.mean_fidelity[0] == pytest.approx(0.9999927, abs=2e-6)
        assert curve.mean_fidelity[1] == pytest.approx(0.4832726, abs=2e-6)
        # fully damped channel keeps only the vacuum overlap |alpha|^4 term:
        # the sample mean of |alpha|^2 for this seed
        alphas, _ = sample_qubit_states(200, 20260823)
        floor = float(np.mean(np.abs(alphas) ** 2))
        assert curve.mean_fidelity[1] == pytest.approx(floor, abs=1e-4)

    def test_reference_state_override(self, plan_13):
        states = reference_qubit_states()
        curve = average_transfer_fidelity(plan_13, np.array([0.0, 1.0]),
                                          *states)
        assert curve.samples == 4
        assert curve.mean_fidelity[0] == pytest.approx(0.99999236, abs=2e-6)
        # (1/16 + 1/9 + 1/4 + 9/16) / 4 at full damping
        assert curve.mean_fidelity[1] == pytest.approx(0.45833333, abs=1e-4)

    def test_grid_and_sample_validation(self, plan_13):
        with pytest.raises(ConfigError):
            average_transfer_fidelity(plan_13, np.array([-0.1, 1.0]),
                                      *reference_qubit_states())
        with pytest.raises(ConfigError):
            average_transfer_fidelity(plan_13, np.array([1e-3]),
                                      *sample_qubit_states(0, 1))
        for grid in (np.array([[1e-3, 1.0]]), np.array([])):
            with pytest.raises(ConfigError, match="non-empty 1-d grid"):
                average_transfer_fidelity(plan_13, grid, *reference_qubit_states())
        with pytest.raises(ConfigError, match="equal length"):
            average_transfer_fidelity(plan_13, np.array([1e-3]), [0.6, 0.8], [0.8])
        for samples in (True, 2.0):
            with pytest.raises(ConfigError, match="must be an integer"):
                sample_qubit_states(samples, 1)
        # a seed is a non-negative integer, never None: every draw reproduces
        for seed in (1.5, "a", -1, None, True):
            with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
                sample_qubit_states(3, seed)
        # a NaN, inf or overflowing norm fails the check too: it is
        # `not <= tol`, and the squares overflow with no warning
        for bad in (([0.9, 0.9], [0.9, 0.1]), ([math.nan, 1.0], [1.0, 0.0]),
                    ([1.0], [math.inf]), ([1e200], [0.0])):
            with pytest.raises(ConfigError, match="normalized"):
                average_transfer_fidelity(plan_13, np.array([0.0, 1e-3]), *bad)
        for alpha, beta in ((1e200, 0.0), (0.0, 1e155j)):
            with pytest.raises(ConfigError, match="not normalized"):
                qubit_fidelity_curve(plan_13, alpha, beta, [1.0])
        # an ensemble is a 1-d list or array of numbers: numeric strings and
        # bools are not scored, and a 2-d ensemble is not flattened
        for bad in (([0.6], ["0.8"]), (["0.6"], ["0.8"]), ([True], [False]),
                    ([[0.6, 0.8]], [[0.8, 0.6]]),
                    (np.array([[0.6, 0.8]]), np.array([[0.8, 0.6]]))):
            with pytest.raises(ConfigError, match="1-d ensembles of numbers"):
                average_transfer_fidelity(plan_13, [0.1], *bad)


def per_cell_scores(plan, gammas, alpha, beta):
    """Mean and stderr cell by cell with scalar math factors: the scalar
    formula the broadcast in average_transfer_fidelity must reproduce bit
    for bit."""
    t_star = plan.transfer_time
    spec = decompose(build_hamiltonian(plan_config(plan)))
    a = transfer_amplitude(plan.source, plan.target, spec, t_star) * cmath.exp(
        -1j * (plan.target - plan.source) * plan.eta_star)
    a2, b2 = np.abs(alpha) ** 2, np.abs(beta) ** 2
    n_samp = len(a2)
    means, errs = [], []
    for g_over_j in gammas.tolist():
        gamma_t = g_over_j * plan.coupling_scale * t_star
        fids = (np.abs(a2 + b2 * math.exp(-0.5 * gamma_t) * a) ** 2
                - a2 * b2 * math.expm1(-gamma_t))
        means.append(float(np.mean(fids)))
        errs.append(0.0 if n_samp < 2
                    else float(np.std(fids, ddof=1) / math.sqrt(n_samp)))
    return np.array(means), np.array(errs)


@pytest.mark.parametrize("ensemble", ["haar200", "reference4", "single"])
def test_broadcast_scoring_equals_per_cell_formula(plan_13, ensemble):
    grid = np.concatenate([[0.0], np.logspace(-3.0, 0.0, 25)])
    if ensemble == "haar200":
        alpha, beta = sample_qubit_states(200, 1)
    elif ensemble == "reference4":
        alpha, beta = reference_qubit_states()
    else:
        alpha, beta = sample_qubit_states(1, 1)
    curve = average_transfer_fidelity(plan_13, grid, alpha, beta)
    means, errs = per_cell_scores(plan_13, grid, alpha, beta)
    assert np.array_equal(curve.mean_fidelity, means)
    assert np.array_equal(curve.stderr, errs)
    if len(alpha) == 1:
        assert not np.any(curve.stderr)


@pytest.mark.parametrize("pair", [(1, 3), (2, 4), (1, 4), (2, 5), (1, 5), (3, 5)])
def test_lossless_cell_equals_qubit_curve_at_transfer_time(pair):
    # the library's two qubit scores of one plan: a gamma = 0 cell of the loss
    # study and the closed-system curve at t* score the same state, to
    # rounding (4 eps measured over these 202 states on every pair)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DoubletPurityWarning)
        plan = make_plan(resonant_template(), *pair)
    alphas, betas = (np.concatenate(parts) for parts in
                     zip(sample_qubit_states(198, 7), reference_qubit_states()))
    for alpha, beta in zip(alphas, betas):
        cell = average_transfer_fidelity(plan, [0.0], [alpha], [beta]).mean_fidelity[0]
        (at_star,), _ = qubit_fidelity_curve(plan, alpha, beta, plan.transfer_time)
        assert abs(cell - at_star) <= 8.0 * np.finfo(float).eps


def test_exact_loss_path_matches_integrator_oracle():
    # average_transfer_fidelity scores cells from the exact no-jump
    # factorization; integrate_master is the independent RK4 oracle. The plan
    # (N = 4, J = 0.02, 1 -> 3, t* ~ 1.4e3) is short enough for the oracle's
    # dt vs dt/2 guarantee (1e-8 per entry of rho; a fidelity sums at most
    # (|alpha| + |beta|)^2 <= 2 entries' worth of it). The plan runs at
    # eta*, which the integrator (real H only) takes by the gauge: with
    # D = diag(e^{-i k eta}), scoring U_eta|psi> against |phi> is scoring
    # U D^dag|psi> against D^dag|phi>, i.e. beta e^{i (site - 1) eta} on each
    j = 0.02
    plan = make_plan(resonant_template(4, coupling=j), 1, 3)
    h = build_hamiltonian(plan_config(plan))
    d_dag = np.conj(gauge(4, plan.eta_star))
    grid = np.array([0.0, 0.05, 0.5])
    alphas, betas = reference_qubit_states()
    curve = average_transfer_fidelity(plan, grid, alphas, betas)
    for g_over_j, mean in zip(grid, curve.mean_fidelity):
        fids = []
        for alpha, beta in zip(alphas, betas):
            rho0 = DensityMatrix.from_state(qubit_state(4, 1, alpha, beta * d_dag[0]))
            run = integrate_master(rho0, h, g_over_j * j, plan.transfer_time, 2e-3)
            assert run.converged
            fids.append(state_fidelity(run.final, qubit_state(4, 3, alpha, beta * d_dag[2])))
        assert mean == pytest.approx(np.mean(fids), abs=2e-8)   # measured ~1e-11
