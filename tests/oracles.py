"""Test-only oracles: routes the package does not run, kept so the tests
can hold its results against an independent computation. lindblad_rhs
writes the loss generator out term by term (integrate_master works per
eigenmode); identify_doublet reads the doublet off the eigensolver
(make_plan partitions the chain instead) and reference_doublet at 60 digits
(mpmath, imported on call); phased_hamiltonian and
complex_transfer_amplitude are the complex route with the bond phase inside
H (the package keeps H real and puts the phase on the amplitude)."""

import math

import numpy as np

from gfsim.dynamics import ExcitationState, SpectralDecomposition
from gfsim.errors import ConfigError, DoubletNotResolvedError
from gfsim.model import ArrayConfig, HamiltonianMatrix, build_couplings, build_hamiltonian
from gfsim.open_system import DensityMatrix

_PURITY_RESOLVED = 0.5


def phased_hamiltonian(config: ArrayConfig, eta: float) -> np.ndarray:
    """Dense complex site block of `config` with the uniform bond phase eta:
    J*sqrt(k)*e^{i eta} on bond (k, k+1), its conjugate below."""
    bonds = build_couplings(config.coupling_scale, config.n_sites) * np.exp(1j * eta)
    return (np.diag(config.frequencies.astype(complex)) + np.diag(bonds, 1)
            + np.diag(bonds.conj(), -1))


def gauge(n_sites: int, eta: float) -> np.ndarray:
    """Diagonal of D = diag(e^{-i k eta}), k = 0..N-1: phased_hamiltonian(c,
    eta) = D H D^dag with H the real (eta = 0) matrix, so <n|U_eta(t)|m> =
    e^{-i (n-m) eta} <n|U(t)|m>."""
    return np.exp(-1j * eta * np.arange(n_sites))


def complex_transfer_amplitude(h: np.ndarray, m: int, n: int, times) -> np.ndarray:
    """<n|e^{-iHt}|m> for a complex Hermitian H, from numpy's complex eigh
    and the direct exp at each time (sites 1-based)."""
    lam, vec = np.linalg.eigh(h)
    phases = np.exp(np.multiply.outer(np.asarray(times, dtype=float), -1j * lam))
    return phases @ (vec[n - 1] * vec[m - 1].conj())


def lindblad_rhs(rho, hamiltonian, gamma: float) -> np.ndarray:
    """Time derivative of the full (N+1)-dim density matrix.

    Site-site block: -i[H, rho] - gamma*rho. Vacuum-site coherences rotate
    under H and decay at gamma/2. Vacuum population gains gamma * (total
    site population). H must be Hermitian tridiagonal, as for
    integrate_master (ConfigError otherwise). Returns a plain Hermitian
    traceless array, not a DensityMatrix (a derivative is not a state).
    """
    gamma = float(gamma)
    if not math.isfinite(gamma) or gamma < 0.0:
        raise ConfigError(f"decay rate must be >= 0, got {gamma!r}")
    h = HamiltonianMatrix(getattr(hamiltonian, "matrix", hamiltonian)).matrix
    r = np.asarray(getattr(rho, "matrix", rho), dtype=complex)
    n = h.shape[0]
    if r.shape != (n + 1, n + 1):
        raise ConfigError(
            f"density matrix shape {r.shape} does not match {n} sites"
        )
    out = np.zeros_like(r)
    ss = r[1:, 1:]
    out[1:, 1:] = -1j * (h @ ss - ss @ h) - gamma * ss
    v = r[0, 1:]
    out[0, 1:] = 1j * (v @ h) - 0.5 * gamma * v
    out[1:, 0] = np.conj(out[0, 1:])
    out[0, 0] = gamma * float(np.trace(ss).real)
    return out


def state_fidelity(rho: DensityMatrix, target: ExcitationState) -> float:
    """Overlap <Psi|rho|Psi> with a pure target (the pure-target fidelity)."""
    r = np.asarray(getattr(rho, "matrix", rho), dtype=complex)
    psi = target.amplitudes
    if r.shape[0] != psi.shape[0]:
        raise ConfigError(
            f"density matrix dim {r.shape[0]} does not match state dim {psi.shape[0]}"
        )
    return float(np.real(np.conj(psi) @ r @ psi))


def _doublet_indices(spec: SpectralDecomposition, m: int, n: int):
    """Indices of the eigenvectors closest to (|m> +- |n>)/sqrt2, with overlaps."""
    v = spec.eigenvectors
    row_m = np.conj(v[m - 1, :])
    row_n = np.conj(v[n - 1, :])
    ov_plus = np.abs(row_m + row_n) ** 2 / 2.0
    ov_minus = np.abs(row_m - row_n) ** 2 / 2.0
    idx_plus = int(np.argmax(ov_plus))
    idx_minus = int(np.argmax(ov_minus))
    if idx_plus == idx_minus:
        raise DoubletNotResolvedError(
            "doublet not resolved: one eigenvector dominates both "
            f"(|m>+|n>) and (|m>-|n>) combinations (overlaps "
            f"{ov_plus[idx_plus]:.3f}, {ov_minus[idx_minus]:.3f})"
        )
    purity = float(min(ov_plus[idx_plus], ov_minus[idx_minus]))
    return idx_plus, idx_minus, purity


def identify_doublet(spec: SpectralDecomposition, m: int, n: int):
    """Locate the transfer doublet in a spectral decomposition.

    Returns (lambda_plus, lambda_minus, purity) where lambda_plus belongs to
    the eigenvector matching the symmetric combination (|m>+|n>)/sqrt2 and
    lambda_minus to the antisymmetric one; note the values are *not*
    guaranteed ordered (the symmetric level sits at the bottom for even
    n-m). purity is the smaller of the two squared overlaps; below 0.5 the
    two-level reduction is meaningless and an error is raised.
    """
    nn = spec.n_sites
    for name, site in (("m", m), ("n", n)):
        if not (1 <= site <= nn):
            raise ConfigError(f"{name} must lie in [1, {nn}], got {site}")
    if m == n:
        raise ConfigError(f"source and target sites must differ, got m = n = {m}")
    idx_plus, idx_minus, purity = _doublet_indices(spec, m, n)
    if purity < _PURITY_RESOLVED:
        raise DoubletNotResolvedError(
            f"doublet not resolved: purity {purity:.4f} < {_PURITY_RESOLVED} "
            "(coupling too large relative to the neighbour detunings)"
        )
    return float(spec.eigenvalues[idx_plus]), float(spec.eigenvalues[idx_minus]), purity


def reference_doublet(config: ArrayConfig, m: int, n: int, dps: int = 60) -> dict:
    """The m <-> n doublet of config's float64 Hamiltonian at dps digits.

    Each entry of build_hamiltonian(config) is converted exactly to mpmath
    and diagonalized with mpmath.eigsy; the doublet is the two eigenvectors
    with the most weight on sites m and n (1-based), top and bottom by
    eigenvalue. Returns what a plan measures, as dps-digit mpmath numbers:
    theta = (lambda+ - lambda-)/2, transfer_time = pi/(2 theta), mean =
    (lambda+ + lambda-)/2, purity (the smaller overlap of (|m>+-|n>)/sqrt2
    with its level) and peak = (|v_m+ v_n+| + |v_m- v_n-|)^2; and sign, +1
    when (|m>+|n>)/sqrt2 is the top level and -1 when the bottom.
    """
    import mpmath

    with mpmath.workdps(dps):
        lam, vec = mpmath.eigsy(mpmath.matrix(build_hamiltonian(config).matrix.tolist()))
        weight = {k: vec[m - 1, k] ** 2 + vec[n - 1, k] ** 2 for k in range(config.n_sites)}
        bottom, top = sorted(sorted(weight, key=weight.get)[-2:], key=lambda k: lam[k])
        (top_m, top_n), (bot_m, bot_n) = ((vec[m - 1, k], vec[n - 1, k]) for k in (top, bottom))
        sign = 1 if top_m * top_n > 0 else -1
        theta = (lam[top] - lam[bottom]) / 2
        return dict(theta=theta, transfer_time=mpmath.pi / (2 * theta),
                    mean=(lam[top] + lam[bottom]) / 2, sign=sign,
                    purity=min((top_m + sign * top_n) ** 2, (bot_m - sign * bot_n) ** 2) / 2,
                    peak=(abs(top_m * top_n) + abs(bot_m * bot_n)) ** 2)
