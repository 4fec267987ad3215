"""Exact closed-system evolution in the single-excitation sector.

Propagation is spectral: diagonalize the Hermitian tridiagonal site block
once, then e^{-iHt} is exact at any t, with no error accumulation over the
very long horizons the weak-coupling protocols need (omega*t ~ 1e5 and up).

The uniform bond phase eta is handled by a gauge transform: with
D = diag(e^{+i*k*eta}) the matrix D H(eta) D^dag is real symmetric
tridiagonal, so numpy.linalg.eigh solves a real symmetric problem.
Eigenvectors are rotated back afterwards, so probabilities come out
eta-independent while amplitudes keep their physical phases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalInvariantError
from .model import HamiltonianMatrix

__all__ = [
    "ExcitationState",
    "SpectralDecomposition",
    "decompose",
    "evolve",
    "site_probabilities",
    "transfer_amplitude",
    "transfer_probability",
    "single_photon_state",
    "qubit_state",
]

_NORM_TOL = 1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


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
    if not (1 <= site <= n_sites):
        raise ConfigError(f"site must lie in [1, {n_sites}], got {site}")
    amps = np.zeros(n_sites + 1, dtype=complex)
    amps[site] = 1.0
    return ExcitationState(amps)


def qubit_state(n_sites: int, site: int, alpha: complex, beta: complex) -> ExcitationState:
    """Superposition alpha|vacuum> + beta|photon at site>."""
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

    Accepts a HamiltonianMatrix (or a bare Hermitian tridiagonal array in
    tests). Internally gauges the bond phases away, solves the real
    symmetric tridiagonal problem, restores the phases on the eigenvector
    rows, and verifies the multiply-back residual.
    """
    h = np.asarray(getattr(hamiltonian, "matrix", hamiltonian), dtype=complex)
    n = h.shape[0]
    off = h.diagonal(1)
    # Row phases theta with theta_1 = 0, theta_{k+1} = theta_k - arg(H[k,k+1])
    # make diag(e^{-i theta}) H diag(e^{+i theta}) real symmetric; the physical
    # eigenvectors are then diag(e^{+i theta}) times the real ones.
    phases = np.zeros(n)
    phases[1:] = -np.cumsum(np.angle(off))
    off_abs = np.abs(off)
    gauged = np.diag(h.diagonal().real) + np.diag(off_abs, 1) + np.diag(off_abs, -1)
    try:
        lam, vec_real = np.linalg.eigh(gauged)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure path
        raise NumericalInvariantError(
            f"symmetric eigensolver failed to converge: {exc}"
        ) from exc
    vectors = np.exp(1j * phases)[:, None] * vec_real

    scale = float(np.max(np.abs(h))) or 1.0
    residual = float(np.max(np.abs(vectors @ np.diag(lam) @ vectors.conj().T - h)))
    if residual > 1e-10 * scale:
        raise NumericalInvariantError(
            f"eigendecomposition residual {residual:.3e} exceeds 1e-10 relative"
        )
    return SpectralDecomposition(lam, vectors)


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
    site_amps = state.amplitudes[1:]
    v = spec.eigenvectors
    rotated = v @ (np.exp(-1j * spec.eigenvalues * t) * (v.conj().T @ site_amps))
    out = np.empty_like(state.amplitudes)
    out[0] = state.amplitudes[0]
    out[1:] = rotated
    return ExcitationState(out)


def site_probabilities(state: ExcitationState) -> np.ndarray:
    """Per-site detection probabilities |c_k|^2, k = 1..N (vacuum excluded)."""
    return np.abs(state.amplitudes[1:]) ** 2


def transfer_amplitude(initial_site: int, target_site: int,
                       spec: SpectralDecomposition, t) -> np.ndarray | complex:
    """<target| e^{-iHt} |initial>, vectorized over t.

    Scalar t returns a complex; an array of times returns an array. Sites
    are 1-based.
    """
    n = spec.n_sites
    for name, site in (("initial_site", initial_site), ("target_site", target_site)):
        if not (1 <= site <= n):
            raise ConfigError(f"{name} must lie in [1, {n}], got {site}")
    t_arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t_arr)):
        raise ConfigError("times must be finite")
    v = spec.eigenvectors
    weights = v[target_site - 1, :] * np.conj(v[initial_site - 1, :])
    # einsum, not a BLAS mat-vec: the sum runs in one thread and in one
    # order whatever the BLAS build or its thread count
    amps = np.einsum("tk,k->t",
                     np.exp(-1j * np.outer(t_arr.ravel(), spec.eigenvalues)),
                     weights)
    if t_arr.ndim == 0:
        return complex(amps[0])
    return amps.reshape(t_arr.shape)


def transfer_probability(initial_site: int, target_site: int,
                         spec: SpectralDecomposition, t) -> np.ndarray | float:
    """|<target| e^{-iHt} |initial>|^2, vectorized over t.

    Scalar t returns a float; an array of times returns an array. Sites are
    1-based.
    """
    probs = np.abs(transfer_amplitude(initial_site, target_site, spec, t)) ** 2
    return float(probs) if np.ndim(probs) == 0 else probs
