"""Independent references for the benchmark's correctness gates.

Everything here uses numpy alone: a dense Hermitian eigendecomposition
(`numpy.linalg.eigh`) and closed forms. None of it goes through gfsim's own
spectral route (scipy's tridiagonal solver behind a bond-phase gauge) or its
RK4 stepper, so a gate that compares the two compares two implementations.
"""

from __future__ import annotations

import math

import numpy as np

EPS = float(np.finfo(float).eps)

# Stated accuracy of a transfer time. A backward-stable eigensolver returns
# each eigenvalue within a small multiple of eps*||H||_2, so the doublet
# splitting 2*theta carries an absolute error of order eps*||H||_2 and
# t* = pi/(2*theta) a relative error of order eps*||H||_2/(2*theta). A plan
# whose t* is good to T_STAR_ACCURACY therefore needs
# 2*theta >= eps*||H||_2 / T_STAR_ACCURACY; below that the library should
# have refused it.
T_STAR_ACCURACY = 1e-3
RESOLVABILITY_FACTOR = 1.0 / T_STAR_ACCURACY

# README, "Numerical notes": the RK4 dissipation grid is within 2e-5 of the
# factorized analytic solution.
FIG5_TOLERANCE = 2e-5
# README, "Numerical notes": integrate_master agrees with itself at dt/2 to
# 1e-8; the factorized solution is held to the same figure.
MASTER_TOLERANCE = 1e-8


def chain_hamiltonian(frequencies, coupling: float, eta: float = 0.0) -> np.ndarray:
    """Dense site block: frequencies on the diagonal, J*sqrt(k)*e^{i eta} above."""
    freqs = np.asarray(frequencies, dtype=float)
    n = freqs.shape[0]
    h = np.diag(freqs).astype(complex)
    idx = np.arange(n - 1)
    bonds = coupling * np.sqrt(idx + 1.0) * np.exp(1j * eta)
    h[idx, idx + 1] = bonds
    h[idx + 1, idx] = np.conj(bonds)
    return h


def propagator(h: np.ndarray, t: float) -> np.ndarray:
    """e^{-iHt} from a dense Hermitian eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def transfer_amplitudes(h: np.ndarray, source: int, target: int, times) -> np.ndarray:
    """<target| e^{-iHt} |source> over a time grid (sites 1-based)."""
    w, v = np.linalg.eigh(h)
    weights = v[target - 1, :] * np.conj(v[source - 1, :])
    return np.exp(-1j * np.outer(np.asarray(times, dtype=float), w)) @ weights


def spectral_norm(h: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvalsh(h))))


def resolvability_margin(theta: float, h: np.ndarray) -> float:
    """2*theta in units of eps*||H||_2 (the float64 resolution of a splitting)."""
    return 2.0 * theta / (EPS * spectral_norm(h))


def nojump_mean_fidelity(h: np.ndarray, source: int, target: int,
                         t_star: float, gammas, alpha, beta) -> np.ndarray:
    """Exact mean transfer fidelity under uniform loss, per decay rate.

    With jumps |vac><k| the evolution of alpha|vac> + beta|m> factorizes
    into a no-jump branch alpha|vac> + beta*e^{-gamma t/2} U|m> plus the
    vacuum fed by the jumps, so with u = <n|U(t*)|m>
    F = |a|^2 rho00 + 2|a|^2|b|^2 Re(u) e^{-gamma t*/2} + |b|^4 |u|^2 e^{-gamma t*},
    rho00 = |a|^2 + |b|^2 (1 - e^{-gamma t*}).
    """
    u = propagator(h, t_star)[target - 1, source - 1]
    a2 = np.abs(np.asarray(alpha)) ** 2
    b2 = np.abs(np.asarray(beta)) ** 2
    means = []
    for gamma in np.asarray(gammas, dtype=float):
        decay = math.exp(-gamma * t_star)
        rho00 = a2 + b2 * (1.0 - decay)
        fid = (a2 * rho00 + 2.0 * a2 * b2 * u.real * math.sqrt(decay)
               + b2 * b2 * abs(u) ** 2 * decay)
        means.append(float(np.mean(fid)))
    return np.asarray(means)


def factorized_master_state(rho0: np.ndarray, h: np.ndarray, gamma: float,
                            t: float) -> np.ndarray:
    """Exact rho(t) of the uniform-loss master equation in {vac, 1 photon}.

    Site block e^{-gamma t} U rho U^dag, vacuum-site row e^{-gamma t/2} v U^dag,
    vacuum population 1 - (site trace).
    """
    u = propagator(h, t)
    out = np.empty_like(rho0, dtype=complex)
    ss = math.exp(-gamma * t) * (u @ rho0[1:, 1:] @ u.conj().T)
    row = math.exp(-0.5 * gamma * t) * (rho0[0, 1:] @ u.conj().T)
    out[1:, 1:] = ss
    out[0, 1:] = row
    out[1:, 0] = np.conj(row)
    out[0, 0] = 1.0 - np.trace(ss).real
    return out


def _poisson_below(n: int, x: float) -> float:
    """P(Poisson(x) < n) by direct summation of the terms."""
    if x == 0.0:
        return 1.0
    return math.fsum(math.exp(-x + j * math.log(x) - math.lgamma(j + 1.0))
                     for j in range(n))


def walk_deviation_bound(coupling: float, t: float, n_sites: int) -> float:
    """Upper bound on max_k |exact amplitude - truncated closed form|.

    On the infinite chain a photon launched from site 1 is the coherent
    state c_k = e^{-x/2}(-iJt)^{k-1}/sqrt((k-1)!), x = (Jt)^2. The N-site
    chain differs from it only by the missing bond J*sqrt(N) to site N+1,
    so (Duhamel) ||psi_N(t) - P psi_inf(t)|| <= J sqrt(N) int_0^t |c_{N+1}(s)| ds.
    The closed form is P psi_inf / sqrt(Q), Q = P(Poisson(x) < N), which sits
    1 - sqrt(Q) from P psi_inf. The max-abs deviation is bounded by the sum.
    The deviation README criterion 1 reports (4.9e-6 at omega t ~ 15 for
    N = 10, J = 0.05) is this bound's leading term.
    """
    reach = coupling * t
    if reach == 0.0:
        return 0.0
    # u = J s; integrand sqrt(N)/sqrt(N!) * e^{-u^2/2} u^N, composite Simpson
    u = np.linspace(0.0, reach, 4097)
    log_f = (-0.5 * u[1:] ** 2 + n_sites * np.log(u[1:])
             + 0.5 * math.log(n_sites) - 0.5 * math.lgamma(n_sites + 1.0))
    f = np.concatenate(([0.0], np.exp(log_f)))
    step = reach / (u.size - 1)
    integral = step / 3.0 * (f[0] + f[-1] + 4.0 * np.sum(f[1:-1:2])
                             + 2.0 * np.sum(f[2:-1:2]))
    return float(integral) + (1.0 - math.sqrt(_poisson_below(n_sites, reach * reach)))
