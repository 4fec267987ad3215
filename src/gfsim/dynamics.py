"""Exact closed-system evolution in the single-excitation sector.

Propagation is spectral: diagonalize the Hermitian tridiagonal site block
once, then e^{-iHt} is exact at any t, with no error accumulation over the
very long horizons the weak-coupling protocols need (omega*t ~ 1e5 and up).

The uniform bond phase eta is handled by a gauge transform: with
D = diag(e^{+i*k*eta}) the matrix D H(eta) D^dag is real symmetric
tridiagonal, so numpy.linalg.eigh solves a real symmetric problem.
Eigenvectors are rotated back afterwards, so probabilities come out
eta-independent while amplitudes keep their physical phases.

Every amplitude comes from one kernel, sum_k V[target, k] c_k e^{-i lambda_k t}:
transfer_amplitude takes c = conj(V[initial, :]), evolve c = V^dag psi.
The long uniform sweeps the protocols are read from (omega_1 t* ~ 1e4-1e11)
get their phases by blocked angle addition, about 2 sqrt(T) N complex exps
instead of T N, when the grid itself passes a 4 eps split test; each phase
is then within a few eps max|lambda| max|t|, the order of the direct route's
own rounding of lambda t. Other times (lists, single times, and the qubit
sweep, whose grid ends with t* appended) take the direct exp, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalInvariantError
from .model import HamiltonianMatrix, _is_integer, _readonly, _tridiagonal

__all__ = [
    "ExcitationState",
    "SpectralDecomposition",
    "decompose",
    "evolve",
    "transfer_amplitude",
    "transfer_probability",
    "single_photon_state",
    "qubit_state",
]

_NORM_TOL = 1e-10
_EPS = np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class ExcitationState:
    """Normalized state vector: index 0 vacuum, 1..N site amplitudes."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.shape[0] < 2:
            raise ConfigError(
                f"amplitudes must be a vector of length >= 2, got shape {amps.shape}"
            )
        if not np.all(np.isfinite(amps.view(float))):
            raise ConfigError("amplitudes must be finite")
        norm_sq = float(np.vdot(amps, amps).real)
        if abs(norm_sq - 1.0) > _NORM_TOL:
            raise ConfigError(
                f"state not normalized: sum |c|^2 = {norm_sq!r} (tolerance 1e-10)"
            )
        object.__setattr__(self, "amplitudes", _readonly(amps))

    @property
    def n_sites(self) -> int:
        return self.amplitudes.shape[0] - 1

    @property
    def vacuum_amplitude(self) -> complex:
        return complex(self.amplitudes[0])


def single_photon_state(n_sites: int, site: int) -> ExcitationState:
    """One photon localized at `site` (1-based), vacuum amplitude 0."""
    return qubit_state(n_sites, site, 0.0, 1.0)


def qubit_state(n_sites: int, site: int, alpha: complex, beta: complex) -> ExcitationState:
    """Superposition alpha|vacuum> + beta|photon at site>."""
    if not (_is_integer(n_sites) and _is_integer(site)):
        raise ConfigError(f"n_sites and site must be integers, got {n_sites!r}, {site!r}")
    if not (1 <= site <= n_sites):
        raise ConfigError(f"site must lie in [1, {n_sites}], got {site}")
    amps = np.zeros(n_sites + 1, dtype=complex)
    amps[0] = alpha
    amps[site] = beta
    return ExcitationState(amps)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (ascending) and unitary eigenvector columns of the site block."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "eigenvalues", _readonly(np.asarray(self.eigenvalues, float)))
        object.__setattr__(self, "eigenvectors", _readonly(np.asarray(self.eigenvectors, complex)))

    @property
    def n_sites(self) -> int:
        return self.eigenvalues.shape[0]


def decompose(hamiltonian: HamiltonianMatrix) -> SpectralDecomposition:
    """Eigendecomposition of the site block.

    Accepts a HamiltonianMatrix as checked, or a bare array, which it checks
    by constructing one. Internally gauges the bond phases away, solves the
    real symmetric tridiagonal problem, restores the phases on the
    eigenvector rows, and verifies the multiply-back residual (NaN fails).
    """
    if not isinstance(hamiltonian, HamiltonianMatrix):
        hamiltonian = HamiltonianMatrix(hamiltonian)
    h = hamiltonian.matrix
    n = h.shape[0]
    off = h.diagonal(1)
    # Row phases theta with theta_1 = 0, theta_{k+1} = theta_k - arg(H[k,k+1])
    # make diag(e^{-i theta}) H diag(e^{+i theta}) real symmetric; the physical
    # eigenvectors are then diag(e^{+i theta}) times the real ones.
    phases = np.zeros(n)
    phases[1:] = -np.cumsum(np.angle(off))
    off_abs = np.abs(off)
    gauged = _tridiagonal(h.diagonal().real, off_abs, off_abs, float)
    try:
        lam, vec_real = np.linalg.eigh(gauged)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure path
        raise NumericalInvariantError(
            f"symmetric eigensolver failed to converge: {exc}"
        ) from exc
    vectors = np.exp(1j * phases)[:, None] * vec_real

    scale = float(np.max(np.abs(h))) or 1.0
    residual = float(np.max(np.abs((vectors * lam) @ vectors.conj().T - h)))
    if not residual <= 1e-10 * scale:
        raise NumericalInvariantError(
            f"eigendecomposition residual {residual:.3e} exceeds 1e-10 relative"
        )
    return SpectralDecomposition(lam, vectors)


def _block_size(t: np.ndarray) -> int:
    """B = ceil(sqrt(T)) when a 1-d grid of T times is uniform enough that
    t[aB] + (t[b] - t[0]) lands within 4 eps max|t| of t[aB+b] for every
    index, and when B cuts the exp count (ceil(T/B) + B < T); otherwise 1."""
    size = t.size
    block = math.isqrt(size - 1) + 1 if size else 1
    if -(-size // block) + block >= size:
        return 1
    split = (t[::block, None] + (t[:block] - t[0])).ravel()[:size]
    return block if np.abs(split - t).max() <= 4.0 * _EPS * np.abs(t).max() else 1


def _mode_sum(rows: np.ndarray, coeffs: np.ndarray, eigenvalues: np.ndarray,
              t: np.ndarray) -> np.ndarray:
    """sum_k rows[..., k] coeffs[k] e^{-i lambda_k t} for each t of a 1-d
    array: shape (t.size,) + rows.shape[:-1].

    On a uniform grid the phases come by blocked angle addition: with B from
    _block_size, e^{-i lambda t[aB+b]} = e^{-i lambda t[aB]} e^{-i lambda
    (t[b] - t[0])}, one exp table over t[::B] and one over t[:B] - t[0], so
    about 2 sqrt(T) N complex exps instead of T N. Each phase is then off by
    a few eps max|lambda| max|t| (the 4 eps split test plus the rounding of
    both arguments), the order of the direct route's own rounding of
    lambda t. Any other input (non-uniform, fewer than 6 times, one time)
    has B = 1 and takes the direct exp(t (x) -i lambda), byte for byte.
    cmd_qubit's sweep is one of them: it appends t* to its grid so that one
    call and one decomposition serve both; a second call on the grid alone
    would cost another decomposition for what the blocks save.

    The weights (a complex multiply) come before the exp, which ran 5-15x
    slower straight after a complex matmul such as decompose's. einsum, not
    a BLAS mat-vec, sums in one thread and one order under any BLAS build,
    the same for a row alone or in a stack.
    """
    weights = rows * coeffs
    rate = -1j * eigenvalues
    block = _block_size(t)
    phases = np.exp(np.multiply.outer(t[::block], rate))
    if block > 1:
        fine = np.exp(np.multiply.outer(t[:block] - t[0], rate))
        phases = (phases[:, None, :] * fine).reshape(-1, rate.size)[:t.size]
    return np.einsum("tk,...k->t...", phases, weights)


def evolve(state: ExcitationState, spec: SpectralDecomposition, t: float) -> ExcitationState:
    """Apply e^{-iHt} to the site block; the vacuum amplitude is untouched.

    The vacuum carries energy 0 by convention, so it acquires no phase.
    """
    t = float(t)
    if not np.isfinite(t):
        raise ConfigError(f"time must be finite, got {t!r}")
    if state.n_sites != spec.n_sites:
        raise ConfigError(
            f"state has {state.n_sites} sites but decomposition has {spec.n_sites}"
        )
    v = spec.eigenvectors
    coeffs = np.einsum("jk,j->k", v.conj(), state.amplitudes[1:])
    sites = _mode_sum(v, coeffs, spec.eigenvalues, np.array([t]))[0]
    return ExcitationState(np.append(state.amplitudes[0], sites))


def transfer_amplitude(initial_site: int, target_site, spec: SpectralDecomposition,
                       t) -> np.ndarray | complex:
    """<target| e^{-iHt} |initial>, vectorized over t; sites are 1-based.

    Sites are integers (not bools); target_site is one site, or a 1-d array
    of sites that adds a trailing axis to the result, each column bitwise
    equal to its single-target call. One target at a scalar t is a complex.
    """
    n = spec.n_sites
    targets = low = high = target_site
    if not _is_integer(target_site):
        targets = np.asarray(target_site)
        if targets.ndim != 1 or targets.dtype.kind not in "iu":
            raise ConfigError("target_site must be a site or a 1-d sequence of "
                              f"sites, got {target_site!r}")
        low, high = targets.min(initial=1), targets.max(initial=1)
    for name, site in (("initial_site", initial_site), ("target_site", low),
                       ("target_site", high)):
        if not _is_integer(site) or not 1 <= site <= n:
            raise ConfigError(f"{name} must be an integer in [1, {n}], got {site}")
    t_arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t_arr)):
        raise ConfigError("times must be finite")
    v = spec.eigenvectors
    amps = _mode_sum(v[targets - 1], np.conj(v[initial_site - 1, :]),
                     spec.eigenvalues, t_arr.ravel())
    if t_arr.ndim == 0 and amps.ndim == 1:
        return complex(amps[0])
    return amps.reshape(t_arr.shape + amps.shape[1:])


def transfer_probability(initial_site: int, target_site,
                         spec: SpectralDecomposition, t) -> np.ndarray | float:
    """|<target| e^{-iHt} |initial>|^2, vectorized over t.

    Scalar t and one target return a float; otherwise an array shaped as
    transfer_amplitude's. Sites are 1-based.
    """
    probs = np.abs(transfer_amplitude(initial_site, target_site, spec, t)) ** 2
    return float(probs) if np.ndim(probs) == 0 else probs
