"""Exact closed-system evolution in the single-excitation sector.

Propagation is spectral: diagonalize the real symmetric tridiagonal site
block once, then e^{-iHt} is exact at any t, with no error accumulation over
the very long horizons the weak-coupling protocols need (omega*t ~ 1e5 and
up). The eigenvectors are real (no bond phase in H; see model), and each
HamiltonianMatrix's spectrum is computed once. Every argument passes model's
number rule; only a time array's finiteness is the kernel's (_mode_sum).

Every amplitude comes from one kernel, sum_k V[target, k] c_k e^{-i lambda_k t}:
transfer_amplitude takes c = V[initial, :], evolve c = V^T psi. It splits
each time grid once as t[aB + b] = coarse[a] + offsets[b] and contracts one
exp table per factor: a uniform sweep (omega_1 t* ~ 1e4-1e11) takes
B = ceil(sqrt(T)), about 2 sqrt(T) N complex exps instead of T N; any other
grid (lists, single times) splits as (t, [0.0]), the plain
exp(t (x) -i lambda) sum, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalInvariantError
from .model import (HamiltonianMatrix, _derived, _integer, _is_amplitude, _is_integer,
                    _is_numeric, _readonly, _real, _real_grid)

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
_EPS = float(np.finfo(float).eps)


def _qubit_weights(alpha, beta):
    """(|alpha|^2, |beta|^2) of alpha|vac> + beta|site>: floats, in Python, for
    two numbers; arrays for two non-empty 1-d ensembles of equal length. Else a
    ConfigError, as is a sum off 1 by more than _NORM_TOL: NaN, or a component
    past 2, left unsquared so nothing overflows or warns."""
    if _is_amplitude(alpha) and _is_amplitude(beta):
        pair = complex(alpha), complex(beta)
        big = any(abs(z.real) > 2.0 or abs(z.imag) > 2.0 for z in pair)
    elif (all(_is_numeric(v, _is_amplitude, "iufc") and np.ndim(v) == 1 for v in (alpha, beta))
          and len(alpha) == len(beta) > 0):
        pair = [np.asarray(v, dtype=complex) for v in (alpha, beta)]
        big = any(np.any(abs(part) > 2.0) for z in pair for part in (z.real, z.imag))
    else:
        raise ConfigError("qubit amplitudes must be two numbers or two non-empty 1-d "
                          "ensembles of numbers of equal length")
    a2, b2 = (math.inf, math.inf) if big else (abs(pair[0]) ** 2, abs(pair[1]) ** 2)
    total = a2 + b2
    worst = total if isinstance(total, float) else float(total[np.argmax(np.abs(total - 1.0))])
    if not abs(worst - 1.0) <= _NORM_TOL:
        raise ConfigError(f"qubit amplitudes not normalized: |alpha|^2 + |beta|^2 = {worst!r}")
    return a2, b2


@dataclass(frozen=True, eq=False)
class ExcitationState:
    """Normalized state vector: index 0 vacuum, 1..N site amplitudes."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if not _is_numeric(self.amplitudes, _is_amplitude, "iufc"):
            raise ConfigError(f"amplitudes must be numbers, got {self.amplitudes!r}")
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
    """Superposition alpha|vacuum> + beta|photon at site>, checked as an
    ExcitationState: alpha and beta are numbers and normalized."""
    n_sites, site = _integer(n_sites, "n_sites", 1), _integer(site, "site", 1)
    if site > n_sites:
        raise ConfigError(f"site must lie in [1, {n_sites}], got {site}")
    amps = [0.0] * (n_sites + 1)
    amps[0], amps[site] = alpha, beta
    return ExcitationState(amps)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (ascending) and real orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "eigenvalues", _readonly(_real_grid(self.eigenvalues, "eigenvalues")))
        object.__setattr__(self, "eigenvectors",
                           _readonly(_real_grid(self.eigenvectors, "eigenvectors", depth=2)))

    @property
    def n_sites(self) -> int:
        return self.eigenvalues.shape[0]


def _eigensystem(hamiltonian: HamiltonianMatrix) -> SpectralDecomposition:
    h = hamiltonian.matrix
    try:
        lam, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure path
        raise NumericalInvariantError(f"eigensolver failed to converge: {exc}") from exc
    scale = float(np.max(np.abs(h))) or 1.0
    residual = float(np.max(np.abs((vectors * lam) @ vectors.T - h)))
    if not residual <= 1e-10 * scale:
        raise NumericalInvariantError(
            f"eigendecomposition residual {residual:.3e} exceeds 1e-10 relative")
    return SpectralDecomposition(lam, vectors)


def decompose(hamiltonian: HamiltonianMatrix) -> SpectralDecomposition:
    """numpy.linalg.eigh of the real symmetric site block, with the
    multiply-back residual verified (NaN fails). A HamiltonianMatrix's
    spectrum is computed once (the same object on later calls); a bare array
    is checked as a HamiltonianMatrix, and its spectrum is not kept."""
    if not isinstance(hamiltonian, HamiltonianMatrix):
        return _eigensystem(HamiltonianMatrix(hamiltonian))
    return _derived(hamiltonian, "_spectrum", _eigensystem)


def _split(t: np.ndarray, t_max: float) -> tuple[np.ndarray, np.ndarray]:
    """(coarse, offsets) with t[aB + b] = coarse[a] + offsets[b] for every
    index of the 1-d grid t (t_max = max|t|). They are t[::B] and
    t[:B] - t[0], B = ceil(sqrt(T)), when that lands within 4 eps t_max of
    every t[aB + b] and cuts the exp count (ceil(T/B) + B < T); otherwise
    (t, [0.0]): non-uniform grids, fewer than 6 times, one time."""
    size = t.size
    block = math.isqrt(size - 1) + 1 if size else 1
    if -(-size // block) + block < size:
        coarse, offsets = t[::block], t[:block] - t[0]
        split = (coarse[:, None] + offsets).ravel()[:size]
        if np.abs(split - t).max() <= 4.0 * _EPS * t_max:
            return coarse, offsets
    return t, np.zeros(1)


def _mode_sum(rows: np.ndarray, coeffs: np.ndarray, eigenvalues: np.ndarray,
              t: np.ndarray) -> np.ndarray:
    """sum_k rows[..., k] coeffs[k] e^{-i lambda_k t} for each t of a 1-d
    array: shape (t.size,) + rows.shape[:-1].

    One route: with t[aB + b] = coarse[a] + offsets[b] from _split, one exp
    table per factor, the weights rows * coeffs folded into the offset table,
    and one einsum over k, not a BLAS mat-vec, so each row sums in one thread
    and one order under any BLAS build, alone or in a stack. A uniform grid's
    phases are each off by a few eps max|lambda| max|t| (the 4 eps split test
    plus the rounding of both arguments), the order of the rounding of lambda
    t itself; any other grid has offsets [0.0], an offset table of exact
    ones, and the sum is the plain exp(t (x) -i lambda) contraction, byte
    for byte.

    max|t| is taken once: a NaN or infinite time raises ConfigError, and
    since rounding lambda t alone costs up to eps max|lambda| max|t| rad,
    past 1 rad no digit of a phase survives: that raises
    NumericalInvariantError rather than return a wrong or NaN amplitude.
    max|lambda| is read off the two ends of the ascending eigenvalues.
    """
    t_max = float(np.abs(t).max(initial=0.0))
    if not math.isfinite(t_max):
        raise ConfigError("times must be finite")
    phase_error = _EPS * max(-float(eigenvalues[0]), float(eigenvalues[-1])) * t_max
    if phase_error > 1.0:
        raise NumericalInvariantError(
            f"phases e^(-i lambda t) unresolved in float64: eps*max|lambda|*max|t| "
            f"= {phase_error:.3e} rad > 1")
    coarse, offsets = _split(t, t_max)
    rate = -1j * eigenvalues
    weights = rows * coeffs
    fine = weights[..., None, :] * np.exp(np.multiply.outer(offsets, rate))
    amps = np.einsum("ak,...bk->ab...", np.exp(np.multiply.outer(coarse, rate)), fine)
    # explicit sizes: a -1 is ambiguous when the target list is empty
    return amps.reshape((coarse.size * offsets.size,) + weights.shape[:-1])[:t.size]


def evolve(state: ExcitationState, spec: SpectralDecomposition, t: float) -> ExcitationState:
    """Apply e^{-iHt} to the site block; the vacuum amplitude is untouched.

    The vacuum carries energy 0 by convention, so it acquires no phase.
    """
    if state.n_sites != spec.n_sites:
        raise ConfigError(
            f"state has {state.n_sites} sites but decomposition has {spec.n_sites}"
        )
    v = spec.eigenvectors
    coeffs = np.einsum("jk,j->k", v, state.amplitudes[1:])
    sites = _mode_sum(v, coeffs, spec.eigenvalues, np.array([_real(t, "t")]))[0]
    return ExcitationState(np.append(state.amplitudes[0], sites))


def transfer_amplitude(initial_site: int, target_site, spec: SpectralDecomposition,
                       t) -> np.ndarray | complex:
    """<target| e^{-iHt} |initial>, vectorized over t; sites are 1-based.

    Sites are integers (not bools, also inside a sequence); target_site is
    one site, or a 1-d sequence or array of sites that adds a trailing axis
    to the result, each column bitwise equal to its single-target call. One
    target at a scalar t is a complex.
    """
    n = spec.n_sites
    targets = low = high = target_site
    if not _is_integer(target_site):
        targets = np.asarray(target_site)
        if (targets.ndim != 1 or targets.dtype.kind not in "iu"
                or not all(map(_is_integer, target_site))):
            raise ConfigError("target_site must be a site or a 1-d sequence of "
                              f"sites, got {target_site!r}")
        low, high = targets.min(initial=1), targets.max(initial=1)
    for name, site in (("initial_site", initial_site), ("target_site", low),
                       ("target_site", high)):
        if not _is_integer(site) or not 1 <= site <= n:
            raise ConfigError(f"{name} must be an integer in [1, {n}], got {site}")
    t_arr = _real_grid(t, "times")
    v = spec.eigenvectors
    amps = _mode_sum(v[targets - 1], v[initial_site - 1, :],
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
