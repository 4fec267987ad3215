"""Lindblad evolution with uniform photon loss, in the vacuum + one-photon
subspace, and the dissipation-vs-fidelity study built on it.

Uniform loss on every cavity reduces, in this subspace, to three coupled
blocks: the site-site density block feels the commutator and a uniform decay
gamma, the vacuum-site coherences decay at gamma/2 while rotating under H,
and the vacuum population collects everything the sites lose. The tests
write this generator out term by term (tests/oracles.py) and pin it with
the dense jump-operator form, the single-mode closed form and the
gamma = 0 limit.

integrate_master is classical fixed-step RK4 evaluated per eigenmode of H:
k steps multiply each mode by R(dt*mu)^k (_rk4_stack). Its 16 checkpoints
and the dt/2 rerun that verifies it by step halving are one batched
evaluation: one log R per step size and mode, then exp(k log R) for each
row's step count k. One function checks the subspace invariants (trace,
Hermiticity, positivity) on the whole stack, which the run returns as one
read-only array.

The dissipation study does not integrate: with jumps |vac><k| only, the
evolution of a single excitation factorizes exactly (no-jump picture), and
average_transfer_fidelity scores the qubit states it is given (a Haar
sample from sample_qubit_states, or the four reference_qubit_states) in
each cell from that closed form. The RK4 integrator is the independent
oracle the tests tie it to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _NORM_TOL, ExcitationState, decompose
from .errors import ConfigError, NumericalInvariantError
from .model import HamiltonianMatrix, _is_integer, _readonly
from .protocol import TransferPlan, _arrival_amplitude, _register_fidelity

__all__ = [
    "DensityMatrix",
    "FidelityCurve",
    "MasterRun",
    "integrate_master",
    "sample_qubit_states",
    "reference_qubit_states",
    "average_transfer_fidelity",
]

_TRACE_TOL = 1e-8
_HERM_TOL = 1e-10
_POS_TOL = 1e-8
_STEP_AGREEMENT = 1e-8
_CHECKPOINT_COUNT = 16


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """(N+1) x (N+1) density matrix over {vacuum, sites 1..N}.

    Construction enforces shape and Hermiticity (1e-10); trace and
    positivity are checked by validate(), which integrate_master calls on
    its initial state (its checkpoints are checked as one stack).
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        rho = np.asarray(self.matrix, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape[0] < 2:
            raise ConfigError(f"density matrix must be square, got shape {rho.shape}")
        if not np.all(np.isfinite(rho.view(float))):
            raise ConfigError("density matrix entries must be finite")
        defect = float(np.max(np.abs(rho - rho.conj().T)))
        if defect > _HERM_TOL:
            raise ConfigError(
                f"density matrix not Hermitian: max|rho - rho^dag| = {defect:.3e}"
            )
        object.__setattr__(self, "matrix", _readonly(rho))

    @classmethod
    def from_state(cls, state: ExcitationState) -> "DensityMatrix":
        psi = state.amplitudes
        return cls(np.outer(psi, psi.conj()))

    def trace_defect(self) -> float:
        return abs(float(np.trace(self.matrix).real) - 1.0)

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])

    def validate(self, context: str = "") -> None:
        _check_states(self.matrix[None], lambda i: context)


def _check_states(stack: np.ndarray, where) -> None:
    """Hermiticity (1e-10), trace (1e-8) and positivity (-1e-8) of every
    state in a (k, N+1, N+1) stack; the earliest failing row raises, with
    where(row) naming it in the message.

    Every comparison is `not x <= tol`, so NaN from an overflowing step
    fails.
    """
    herm = np.max(np.abs(stack - stack.conj().transpose(0, 2, 1)), axis=(1, 2))
    trace = np.abs(np.trace(stack, axis1=1, axis2=2).real - 1.0)
    hermitian = herm <= _HERM_TOL
    lowest = np.full(stack.shape[0], np.nan)
    # LAPACK sees only the states that came out finite and Hermitian
    lowest[hermitian] = np.linalg.eigvalsh(stack[hermitian])[:, 0]
    failing = np.flatnonzero(~(hermitian & (trace <= _TRACE_TOL)
                               & (-lowest <= _POS_TOL)))
    if not failing.size:
        return
    i = failing[0]
    context = where(i)
    suffix = f" {context}" if context else ""
    if not hermitian[i]:
        raise NumericalInvariantError(
            f"Hermiticity defect {herm[i]:.3e} exceeds {_HERM_TOL:.0e}{suffix}"
        )
    if not trace[i] <= _TRACE_TOL:
        raise NumericalInvariantError(
            f"trace drift {trace[i]:.3e} exceeds {_TRACE_TOL:.0e}{suffix}"
        )
    raise NumericalInvariantError(
        f"negative population: min eigenvalue {lowest[i]:.3e} "
        f"below -{_POS_TOL:.0e}{suffix}"
    )


def _rk4_powers(z: np.ndarray, steps: np.ndarray,
                which: np.ndarray) -> np.ndarray:
    """Row i is R(z[which[i]])^steps[i], where R(z) = 1 + z + z^2/2 + z^3/6
    + z^4/24 is one classical RK4 step of x' = mu x with z = dt*mu, one row
    of z per step size and one column per mode. It is exp(steps[i] * log R):
    one log per step size and mode, however many rows share it."""
    log_r = np.log(1.0 + z + z * z / 2.0 + z ** 3 / 6.0 + z ** 4 / 24.0)
    return np.exp(steps[:, None] * log_r[which])


def _rk4_stack(h: HamiltonianMatrix, gamma: float, rho: np.ndarray,
               dt: float, counts: np.ndarray) -> np.ndarray:
    """RK4 states from rho after counts[i] steps of size dt, then after
    2 * counts[-1] steps of size dt/2, as one (len(counts) + 1, N+1, N+1)
    stack.

    In the eigenbasis H = V diag(lambda) V^dag the site block rotates mode
    by mode: entry (j, k) of V^dag rho_ss V obeys x' = mu_jk x with
    mu_jk = -i(lambda_j - lambda_k) - gamma, and component k of the
    vacuum-site row v V has mu_k = i lambda_k - gamma/2. The RK4 map of a
    linear equation is the polynomial R(dt*L), so k steps multiply each mode
    by R(dt*mu)^k exactly: log R is taken once per step size and mode, and
    row i is exp(k_i * log R). counts are floats, exact below 2^53 steps.
    The full generator is trace-free, so the full RK4 map keeps the trace
    and rho00 is whatever the site block lost.
    """
    spec = decompose(h)
    lam, vec = spec.eigenvalues, spec.eigenvectors
    vec_h = vec.T
    n = lam.size
    # one rate per mode: the N^2 site-block entries (j, k), then the N
    # vacuum-site components k
    mu = np.append(-1j * (lam[:, None] - lam[None, :]) - gamma, 1j * lam - 0.5 * gamma)
    # row i takes steps[i] steps of size sizes[which[i]]
    sizes = np.array([dt, dt / 2.0])
    steps = np.append(counts, 2.0 * counts[-1])
    which = np.zeros(steps.shape[0], dtype=int)
    which[-1] = 1
    # the modal powers come before any complex matmul: straight after one,
    # complex log and exp (as inside a complex power) ran ~5x slower on
    # AVX-512 hardware
    f = _rk4_powers(sizes[:, None] * mu, steps, which)
    f_ss, f_v = f[:, :-n].reshape(-1, n, n), f[:, -n:]
    ss = vec @ ((vec_h @ rho[1:, 1:] @ vec) * f_ss) @ vec_h
    v = ((rho[0, 1:] @ vec) * f_v) @ vec_h
    out = np.empty((steps.shape[0],) + rho.shape, dtype=complex)
    out[:, 0, 0] = (rho[0, 0] + np.trace(rho[1:, 1:])
                    - np.trace(ss, axis1=1, axis2=2))
    out[:, 0, 1:] = v
    out[:, 1:, 0] = np.conj(v)
    out[:, 1:, 1:] = ss
    return out


@dataclass(frozen=True, eq=False)
class MasterRun:
    """Result of integrate_master: final state plus checkpoint trail.

    times holds the checkpoint times and states the checked checkpoint
    matrices as one read-only (len(times), N+1, N+1) array, whose last row
    is final.matrix; step_defect is max|rho(dt) - rho(dt/2)| at t_end.
    Every returned run passed that check, so converged is always True.
    """

    final: DensityMatrix
    times: np.ndarray
    states: np.ndarray
    dt: float
    n_steps: int
    step_defect: float
    converged: bool


def integrate_master(rho0: DensityMatrix, hamiltonian, gamma: float,
                     t_end: float, dt: float) -> MasterRun:
    """Propagate rho0 for t_end under uniform loss gamma with RK4 steps <= dt.

    The step is shrunk slightly so an integer number of steps lands exactly
    on t_end. A HamiltonianMatrix is used as checked; an array must pass as
    one (ConfigError otherwise). Subspace invariants (trace 1e-8, Hermiticity 1e-10, smallest
    eigenvalue >= -1e-8) are enforced at 16 evenly spaced checkpoint times; a
    violation aborts with the measured defect at the earliest failing
    checkpoint (step too large). The run is repeated at dt/2 and the final
    states must agree to 1e-8. The checkpoints and the dt/2 run are one
    batched evaluation (_rk4_stack).
    """
    if not isinstance(rho0, DensityMatrix):
        rho0 = DensityMatrix(np.asarray(rho0))
    gamma = float(gamma)
    if not math.isfinite(gamma) or gamma < 0.0:
        raise ConfigError(f"decay rate must be >= 0, got {gamma!r}")
    t_end = float(t_end)
    if not math.isfinite(t_end) or t_end < 0.0:
        raise ConfigError(f"t_end must be finite and >= 0, got {t_end!r}")
    dt = float(dt)
    if not math.isfinite(dt) or dt <= 0.0:
        raise ConfigError(f"dt must be > 0, got {dt!r}")
    h = hamiltonian if isinstance(hamiltonian, HamiltonianMatrix) else HamiltonianMatrix(hamiltonian)
    if rho0.matrix.shape[0] != h.dim + 1:
        raise ConfigError(
            f"density matrix shape {rho0.matrix.shape} does not match "
            f"{h.dim} sites"
        )
    rho0.validate("in initial state")
    if t_end == 0.0:
        return MasterRun(rho0, np.zeros(1), rho0.matrix[None], dt, 0, 0.0,
                         True)

    n_steps = max(1, math.ceil(t_end / dt - 1e-12))
    dt_eff = t_end / n_steps
    # float64: 2 * counts[-1] for the dt/2 run cannot wrap as int64 would
    counts = np.array(sorted({max(1, round(n_steps * i / _CHECKPOINT_COUNT))
                              for i in range(1, _CHECKPOINT_COUNT + 1)}),
                      dtype=float)
    times = counts * dt_eff
    stack = _rk4_stack(h, gamma, rho0.matrix, dt_eff, counts)
    states = stack[:-1]
    _check_states(states, lambda i: f"at t = {times[i]:.6g} (step too large)")
    states.setflags(write=False)

    step_defect = float(np.max(np.abs(stack[-1] - stack[-2])))
    if not step_defect <= _STEP_AGREEMENT:
        raise NumericalInvariantError(
            f"step-halving defect {step_defect:.3e} exceeds "
            f"{_STEP_AGREEMENT:.0e}: dt = {dt_eff:.3e} too large for "
            f"t_end = {t_end:.6g}"
        )
    return MasterRun(DensityMatrix(states[-1]), times, states, dt_eff,
                     n_steps, step_defect, True)


def sample_qubit_states(samples: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Haar-uniform qubit amplitudes (alpha, beta), global phase on beta.

    alpha = cos(theta/2) real >= 0 with cos(theta) uniform on [-1, 1];
    beta = e^{i phi} sin(theta/2) with phi uniform on [0, 2 pi).
    """
    if not _is_integer(samples) or samples < 1:
        raise ConfigError(f"samples must be an integer >= 1, got {samples!r}")
    rng = np.random.default_rng(seed)
    cos_t = rng.uniform(-1.0, 1.0, int(samples))
    phi = rng.uniform(0.0, 2.0 * math.pi, int(samples))
    alpha = np.sqrt((1.0 + cos_t) / 2.0)
    beta = np.exp(1j * phi) * np.sqrt((1.0 - cos_t) / 2.0)
    return alpha, beta.astype(complex)


def reference_qubit_states() -> tuple[np.ndarray, np.ndarray]:
    """The four fixed benchmark superpositions used by the qubit studies."""
    alpha = np.array([0.5, 1.0 / math.sqrt(3.0), 1.0 / math.sqrt(2.0), math.sqrt(3.0) / 2.0])
    beta = np.array([
        math.sqrt(3.0) / 2.0,
        1j * math.sqrt(2.0 / 3.0),
        1.0 / math.sqrt(2.0),
        0.5,
    ], dtype=complex)
    return alpha, beta


@dataclass(frozen=True, eq=False)
class FidelityCurve:
    """Averaged transfer fidelity against gamma/J over `samples` qubit states.

    The cells come from the exact no-jump factorization, so there is no
    step size and nothing to converge.
    """

    gamma_over_J: np.ndarray
    mean_fidelity: np.ndarray
    stderr: np.ndarray
    samples: int
    transfer_time: float


def average_transfer_fidelity(plan: TransferPlan, gamma_over_J, alpha,
                              beta) -> FidelityCurve:
    """Mean transfer fidelity at t = plan.transfer_time versus gamma/J.

    For each decay rate, every superposition alpha[i]|vac> + beta[i]|m>
    evolves with uniform loss under the plan's Hamiltonian (bond phase
    eta_star) and is scored against alpha[i]|vac> + beta[i]|n>. The same
    states are scored in every cell, so with a random ensemble (for example
    sample_qubit_states) the curve's gamma-dependence is not polluted by
    sampling noise.

    Each cell is scored from the exact no-jump factorization of the master
    equation (Dalibard, Castin & Moelmer, PRL 68, 580 (1992)): at t the
    site block is e^{-gamma t} U|m><m|U^dag, the vacuum-site coherence is
    damped by e^{-gamma t/2}, and the vacuum holds the lost 1 - e^{-gamma t},
    with U = e^{-iHt} from decompose. With a = <n|U(t*)|m> a sample scores
        |a2 + b2 e^{-gamma t*/2} a|^2 - a2 b2 expm1(-gamma t*)
    (a2 = |alpha|^2, b2 = |beta|^2; protocol._register_fidelity), so no step
    size or horizon enters. integrate_master is the independent oracle the
    tests hold this against.

    Returns the per-cell mean and standard error of the sample mean.
    """
    gammas = np.atleast_1d(np.asarray(gamma_over_J, dtype=float))
    if gammas.ndim != 1 or gammas.size == 0:
        raise ConfigError("gamma_over_J must be a non-empty 1-d grid")
    if np.any(~np.isfinite(gammas)) or np.any(gammas < 0.0):
        raise ConfigError("gamma_over_J values must be finite and >= 0")
    alpha = np.asarray(alpha, dtype=complex).ravel()
    beta = np.asarray(beta, dtype=complex).ravel()
    if alpha.shape != beta.shape or alpha.size == 0:
        raise ConfigError("alpha and beta must be non-empty and of equal length")
    a2, b2 = np.abs(alpha) ** 2, np.abs(beta) ** 2
    if not np.max(np.abs(a2 + b2 - 1.0)) <= _NORM_TOL:
        raise ConfigError("states must be normalized qubit amplitudes")
    n_samp = alpha.shape[0]

    t_star = plan.transfer_time
    a = _arrival_amplitude(plan, t_star)

    # one (cells x samples) array; the per-cell damping factors come from
    # math as column vectors, so every element is the scalar formula's float
    gamma_t = [g * plan.coupling_scale * t_star for g in gammas.tolist()]
    half = np.array([[math.exp(-0.5 * x)] for x in gamma_t])
    lost = np.array([[math.expm1(-x)] for x in gamma_t])
    fids = _register_fidelity(a2, b2, a, half, lost)
    means = np.mean(fids, axis=1)
    errs = np.zeros(len(gamma_t)) if n_samp < 2 \
        else np.std(fids, axis=1, ddof=1) / math.sqrt(n_samp)
    return FidelityCurve(gammas, means, errs, n_samp, t_star)
