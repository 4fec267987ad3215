"""Array configuration and Hamiltonian assembly.

A chain of N coupled cavities restricted to the single-excitation sector.
Basis ordering is fixed everywhere in the package: index 0 is the vacuum,
indices 1..N are the site states (photon in cavity k). This module only
builds the N x N site block; the vacuum row/column (identically zero for
closed dynamics) is added where needed by open_system.

Couplings follow the square-root law J_k = J*sqrt(k), so the bond pattern
matches the matrix elements of a truncated harmonic ladder. A uniform bond
phase eta (complex couplings) is supported; frequencies are stored relative
to the first cavity's resonance.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ConfigError

__all__ = [
    "ArrayConfig",
    "HamiltonianMatrix",
    "build_couplings",
    "build_hamiltonian",
    "switching_frequencies",
    "config_from_dict",
    "config_to_dict",
    "wrap_phase",
]


def wrap_phase(eta: float) -> float:
    """Wrap an angle into [-pi, pi)."""
    eta = float(eta)
    if not math.isfinite(eta):
        raise ConfigError(f"coupling_phase must be finite, got {eta!r}")
    wrapped = (eta + math.pi) % (2.0 * math.pi) - math.pi
    # fmod can land exactly on +pi for inputs like pi - 1e-17
    if wrapped >= math.pi:
        wrapped -= 2.0 * math.pi
    return wrapped


def _is_integer(value) -> bool:
    """True for a Python or numpy integer; bool is not a count or a site."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """True for a Python or numpy int or float that a finite float64 holds;
    bool and numeric strings are not numbers (NaN fails the comparison)."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool) and abs(value) <= sys.float_info.max)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class ArrayConfig:
    """Immutable description of one cavity array.

    frequencies are the on-site resonance frequencies (length n_sites, in
    units of the reference frequency), coupling_scale is J > 0,
    coupling_phase is the uniform bond phase in [-pi, pi).
    """

    n_sites: int
    frequencies: np.ndarray
    coupling_scale: float
    coupling_phase: float = 0.0

    def __post_init__(self) -> None:
        n = self.n_sites
        if not _is_integer(n):
            raise ConfigError(f"n_sites must be an integer, got {n!r}")
        if n < 2:
            raise ConfigError(f"n_sites must be >= 2 (chain degenerates), got {n}")
        object.__setattr__(self, "n_sites", int(n))

        freqs = np.asarray(self.frequencies, dtype=float)
        if freqs.ndim != 1 or freqs.shape[0] != self.n_sites:
            raise ConfigError(
                f"frequencies must be a length-{self.n_sites} vector, "
                f"got shape {freqs.shape}"
            )
        if not np.all(np.isfinite(freqs)):
            raise ConfigError("frequencies must all be finite")
        object.__setattr__(self, "frequencies", _readonly(freqs))

        scale = float(self.coupling_scale)
        if not math.isfinite(scale) or scale <= 0.0:
            raise ConfigError(f"coupling_scale must be > 0, got {scale!r}")
        object.__setattr__(self, "coupling_scale", scale)

        object.__setattr__(self, "coupling_phase", wrap_phase(self.coupling_phase))


@dataclass(frozen=True, eq=False)
class HamiltonianMatrix:
    """Hermitian tridiagonal single-excitation Hamiltonian (site block only).

    Construction copies the input once and checks shape, finiteness,
    Hermiticity and tridiagonality (1e-14 relative), so code can rely on it.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        h = np.array(self.matrix, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] < 1:
            raise ConfigError(f"Hamiltonian must be square, got shape {h.shape}")
        mag = np.abs(h)  # serves the finiteness, scale and off-band tests
        scale = float(mag.max()) or 1.0  # NaN or inf exactly when an entry is
        if not math.isfinite(scale):
            raise ConfigError("Hamiltonian entries must be finite")
        herm_defect = float(np.max(np.abs(h - h.conj().T)))
        if herm_defect > 1e-14 * scale:
            raise ConfigError(
                f"Hamiltonian not Hermitian: max|H - H^dag| = {herm_defect:.3e} "
                f"exceeds 1e-14 * {scale:.3e}"
            )
        k = np.arange(h.shape[0])
        above = np.subtract.outer(k, k) < -1  # j - i > 1; its transpose is below
        band_defect = float(mag[above].max(initial=0.0) + mag[above.T].max(initial=0.0))
        if band_defect > 1e-14 * scale:
            raise ConfigError(
                f"Hamiltonian not tridiagonal: off-band magnitude {band_defect:.3e}"
            )
        h.setflags(write=False)
        object.__setattr__(self, "matrix", h)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def build_couplings(scale: float, n_sites: int) -> np.ndarray:
    """Bond strengths J*sqrt(k) for k = 1..n_sites-1 (strictly increasing)."""
    if not _is_integer(n_sites) or n_sites < 2:
        raise ConfigError(f"n_sites must be an integer >= 2, got {n_sites!r}")
    scale = float(scale)
    if not math.isfinite(scale) or scale <= 0.0:
        raise ConfigError(f"coupling scale must be > 0, got {scale!r}")
    return scale * np.sqrt(np.arange(1, int(n_sites), dtype=float))


def _tridiagonal(diagonal, upper, lower, dtype) -> np.ndarray:
    """N x N matrix with these main, upper and lower bands."""
    n = len(diagonal)
    h = np.zeros(n * n, dtype=dtype)
    h[::n + 1], h[1::n + 1], h[n::n + 1] = diagonal, upper, lower
    return h.reshape(n, n)


def build_hamiltonian(config: ArrayConfig) -> HamiltonianMatrix:
    """Assemble the N x N site-block Hamiltonian from a config.

    Diagonal carries the frequencies; bond (k, k+1) carries
    J*sqrt(k)*exp(i*eta), with the conjugate below the diagonal. The bands
    are written straight into one array, which HamiltonianMatrix checks.
    """
    bonds = build_couplings(config.coupling_scale, config.n_sites) * np.exp(
        1j * config.coupling_phase)
    return HamiltonianMatrix(
        _tridiagonal(config.frequencies, bonds, np.conj(bonds), complex))


def switching_frequencies(base: float, m: int, n: int, n_sites: int) -> np.ndarray:
    """Inverted-parabola frequency profile that makes sites m and n degenerate.

    omega_k = base + (k-1) - (k-1)^2/(m+n-2). The profile is symmetric about
    k = (m+n)/2, so omega_m == omega_n exactly; neighbouring detunings are
    of order unity, which keeps weak bonds (J << 1) perturbative. It is
    evaluated as base + k(s-k)/s with k = 0-based index and s = m+n-2: at
    k = m-1 and k = n-1 the integer product k(s-k) is the same, so the two
    frequencies are bitwise equal, not merely equal to rounding.
    """
    for name, val in (("m", m), ("n", n), ("n_sites", n_sites)):
        if not _is_integer(val):
            raise ConfigError(f"{name} must be an integer, got {val!r}")
    if n_sites < 2:
        raise ConfigError(f"n_sites must be >= 2, got {n_sites}")
    if m == n:
        raise ConfigError(f"source and target sites must differ, got m = n = {m}")
    if not (1 <= m <= n_sites) or not (1 <= n <= n_sites):
        raise ConfigError(
            f"sites must lie in [1, {n_sites}], got m = {m}, n = {n}"
        )
    if m + n == 2:
        raise ConfigError("m + n = 2 puts the parabola's curvature at 1/0")
    base = float(base)
    if not math.isfinite(base) or base <= 0.0:
        raise ConfigError(f"base frequency must be > 0, got {base!r}")
    k = np.arange(int(n_sites), dtype=float)  # k-1 in the formula, 0-based here
    s = float(m + n - 2)
    return base + k * (s - k) / s


# JSON config schema. "frequencies" is either an explicit list or a preset
# object {"preset": "resonant"|"switching", "C": ..., "m": ..., "n": ...};
# C defaults to 1.0 (the reference frequency), eta defaults to 0.
_TOP_KEYS = {"n_sites", "frequencies", "J", "eta"}
_PRESET_KEYS = {"preset", "C", "m", "n"}


def _require_number(data: Mapping, key: str, default=None):
    if key not in data:
        if default is None:
            raise ConfigError(f"config missing required field '{key}'")
        return default
    val = data[key]
    if not _is_real(val):
        raise ConfigError(f"config field '{key}' must be a finite number, got {val!r}")
    return val


def config_from_dict(data: Mapping) -> ArrayConfig:
    """Build an ArrayConfig from the JSON schema mapping.

    Unknown fields are rejected with the offending key named, so typos fail
    loudly instead of silently running defaults.
    """
    if not isinstance(data, Mapping):
        raise ConfigError(f"config must be a mapping, got {type(data).__name__}")
    for key in data:
        if key not in _TOP_KEYS:
            raise ConfigError(f"unknown config field '{key}'")
    n_raw = data.get("n_sites")
    if not isinstance(n_raw, int) or isinstance(n_raw, bool):
        raise ConfigError(f"config field 'n_sites' must be an integer, got {n_raw!r}")
    if n_raw < 2:
        raise ConfigError(f"n_sites must be >= 2 (chain degenerates), got {n_raw}")
    n_sites = n_raw

    if "frequencies" not in data:
        raise ConfigError("config missing required field 'frequencies'")
    freq_spec = data["frequencies"]
    if isinstance(freq_spec, Mapping):
        for key in freq_spec:
            if key not in _PRESET_KEYS:
                raise ConfigError(f"unknown frequency-preset field '{key}'")
        preset = freq_spec.get("preset")
        c = _require_number(freq_spec, "C", 1.0)
        if preset == "resonant":
            for key in ("m", "n"):
                if key in freq_spec:
                    raise ConfigError(
                        f"frequency preset 'resonant' does not take '{key}'"
                    )
            frequencies = np.full(n_sites, float(c))
        elif preset == "switching":
            m = freq_spec.get("m")
            n = freq_spec.get("n")
            if not isinstance(m, int) or not isinstance(n, int):
                raise ConfigError(
                    "frequency preset 'switching' requires integer 'm' and 'n'"
                )
            frequencies = switching_frequencies(float(c), m, n, n_sites)
        else:
            raise ConfigError(
                f"frequency preset must be 'resonant' or 'switching', got {preset!r}"
            )
    elif isinstance(freq_spec, (list, tuple)):
        if not all(map(_is_real, freq_spec)):
            raise ConfigError(
                f"config field 'frequencies' must list finite numbers, got {freq_spec!r}"
            )
        frequencies = freq_spec
    else:
        raise ConfigError(
            "config field 'frequencies' must be a list or a preset object, "
            f"got {type(freq_spec).__name__}"
        )

    return ArrayConfig(
        n_sites=n_sites,
        frequencies=np.asarray(frequencies, dtype=float),
        coupling_scale=float(_require_number(data, "J")),
        coupling_phase=float(_require_number(data, "eta", 0.0)),
    )


def config_to_dict(config: ArrayConfig) -> dict:
    """Resolved (explicit-frequency) schema form, for metadata emission."""
    return {
        "n_sites": config.n_sites,
        "frequencies": [float(w) for w in config.frequencies],
        "J": config.coupling_scale,
        "eta": config.coupling_phase,
    }
