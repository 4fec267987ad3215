"""Array configuration and Hamiltonian assembly.

A chain of N coupled cavities restricted to the single-excitation sector.
Basis ordering is fixed everywhere in the package: index 0 is the vacuum,
indices 1..N are the site states (photon in cavity k). This module only
builds the N x N site block; the vacuum row/column (identically zero for
closed dynamics) is added where needed by open_system.

Couplings follow the square-root law J_k = J*sqrt(k), so the bond pattern
matches the matrix elements of a truncated harmonic ladder; frequencies are
stored relative to the first cavity's resonance. H is real symmetric: a
uniform bond phase eta is the gauge D H D^dag with D = diag(e^{-i k eta}),
so it changes no population and enters an amplitude <n|U|m> only as the
factor e^{-i (n-m) eta}, which the qubit score applies (protocol). Each
immutable object computes what derives from it once (_derived): a config
its Hamiltonian, a Hamiltonian its spectrum, a plan its config.
"""

from __future__ import annotations

import functools
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
    "config_and_pair",
    "config_to_dict",
    "wrap_phase",
]


def wrap_phase(eta: float) -> float:
    """Wrap an angle into [-pi, pi)."""
    eta = float(eta)
    if not math.isfinite(eta):
        raise ConfigError(f"phase must be finite, got {eta!r}")
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


def _is_real_vector(values) -> bool:
    """True for an int or float ndarray, on its dtype alone (shape and
    finiteness are the caller's to check), or for a list or tuple of _is_real
    numbers: a bool, string, nested or ragged element fails here before
    numpy can cast it or raise."""
    if isinstance(values, np.ndarray):
        return values.dtype.kind in "iuf"
    return isinstance(values, (list, tuple)) and all(map(_is_real, values))


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


def _derived(owner, key: str, make):
    """make(owner) on the first call, the same object on later ones: kept in
    the frozen owner's instance dict, outside its dataclass fields."""
    stored = vars(owner)
    if key not in stored:
        stored[key] = make(owner)
    return stored[key]


@dataclass(frozen=True, eq=False)
class ArrayConfig:
    """Immutable description of one cavity array.

    frequencies are the on-site resonance frequencies (length n_sites, in
    units of the reference frequency), coupling_scale is J > 0.
    """

    n_sites: int
    frequencies: np.ndarray
    coupling_scale: float

    def __post_init__(self) -> None:
        n = self.n_sites
        if not _is_integer(n):
            raise ConfigError(f"n_sites must be an integer, got {n!r}")
        if n < 2:
            raise ConfigError(f"n_sites must be >= 2 (chain degenerates), got {n}")
        object.__setattr__(self, "n_sites", int(n))

        if not _is_real_vector(self.frequencies):
            raise ConfigError(
                f"frequencies must be a list or array of numbers, got {self.frequencies!r}")
        freqs = np.asarray(self.frequencies, dtype=float)
        if freqs.ndim != 1 or freqs.shape[0] != self.n_sites:
            raise ConfigError(
                f"frequencies must be a length-{self.n_sites} vector, "
                f"got shape {freqs.shape}"
            )
        if not np.all(np.isfinite(freqs)):
            raise ConfigError("frequencies must all be finite")
        object.__setattr__(self, "frequencies", _readonly(freqs))

        if not _is_real(self.coupling_scale):
            raise ConfigError(
                f"coupling_scale must be a finite number, got {self.coupling_scale!r}")
        scale = float(self.coupling_scale)
        if scale <= 0.0:
            raise ConfigError(f"coupling_scale must be > 0, got {scale!r}")
        object.__setattr__(self, "coupling_scale", scale)


@functools.cache
def _above_band(n: int) -> np.ndarray:
    """Read-only mask of the entries with j - i > 1 (its transpose: below)."""
    return _readonly(np.subtract.outer(np.arange(n), np.arange(n)) < -1)


@dataclass(frozen=True, eq=False)
class HamiltonianMatrix:
    """Real symmetric tridiagonal single-excitation Hamiltonian (site block).

    Construction copies the input once as float64 and checks shape,
    finiteness, symmetry and tridiagonality (1e-14 relative), so code can
    rely on it. An imaginary part is refused (no bond phase; module docstring).
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        h = np.asarray(self.matrix)
        if np.iscomplexobj(h) and np.any(h.imag):
            raise ConfigError("Hamiltonian must be real (a bond phase is a gauge)")
        h = np.array(h.real, dtype=float)
        if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] < 1:
            raise ConfigError(f"Hamiltonian must be square, got shape {h.shape}")
        mag = np.abs(h)  # serves the finiteness, scale and off-band tests
        scale = float(mag.max()) or 1.0  # NaN or inf exactly when an entry is
        if not math.isfinite(scale):
            raise ConfigError("Hamiltonian entries must be finite")
        sym_defect = float(np.abs(h - h.T).max())
        if sym_defect > 1e-14 * scale:
            raise ConfigError(
                f"Hamiltonian not symmetric: max|H - H^T| = {sym_defect:.3e} "
                f"exceeds 1e-14 * {scale:.3e}"
            )
        above = _above_band(h.shape[0])
        band_defect = float(mag[above].max(initial=0.0) + mag.T[above].max(initial=0.0))
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
    """Bond strengths J*sqrt(k) for k = 1..n_sites-1 (strictly increasing).

    The last bond is checked first, in Python floats (the same bits as
    numpy's): one beyond float range is a ConfigError, not an inf and a
    numpy overflow warning."""
    if not _is_integer(n_sites) or n_sites < 2:
        raise ConfigError(f"n_sites must be an integer >= 2, got {n_sites!r}")
    scale = float(scale)
    if not math.isfinite(scale) or scale <= 0.0:
        raise ConfigError(f"coupling scale must be > 0, got {scale!r}")
    if not math.isfinite(scale * math.sqrt(n_sites - 1)):
        raise ConfigError(f"bond J*sqrt({n_sites - 1}) overflows float64 at J = {scale!r}")
    return scale * np.sqrt(np.arange(1, int(n_sites), dtype=float))


def _assemble(config: ArrayConfig) -> HamiltonianMatrix:
    n, bonds = config.n_sites, build_couplings(config.coupling_scale, config.n_sites)
    h = np.zeros(n * n)
    h[::n + 1], h[1::n + 1], h[n::n + 1] = config.frequencies, bonds, bonds
    return HamiltonianMatrix(h.reshape(n, n))


def build_hamiltonian(config: ArrayConfig) -> HamiltonianMatrix:
    """The config's N x N site block, built once (the same object on later
    calls): the frequencies on the diagonal, J*sqrt(k) on bonds (k, k+1) and
    (k+1, k), written by strided slices into one float64 array."""
    return _derived(config, "_hamiltonian", _assemble)


def switching_frequencies(base: float, m: int, n: int, n_sites: int) -> np.ndarray:
    """Inverted-parabola frequency profile that makes sites m and n degenerate.

    omega_k = base + (k-1) - (k-1)^2/(m+n-2). The profile is symmetric about
    k = (m+n)/2, so omega_m == omega_n exactly; neighbouring detunings are
    of order unity, which keeps weak bonds (J << 1) perturbative. It is
    evaluated as base + k(s-k)/s with k = 0-based index and s = m+n-2 >= 1
    (the sites are distinct and >= 1): at k = m-1 and k = n-1 the integer
    product k(s-k) is the same, so the two frequencies are bitwise equal,
    not merely equal to rounding.
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
    base = float(base)
    if not math.isfinite(base) or base <= 0.0:
        raise ConfigError(f"base frequency must be > 0, got {base!r}")
    k = np.arange(int(n_sites), dtype=float)  # k-1 in the formula, 0-based here
    s = float(m + n - 2)
    return base + k * (s - k) / s


# JSON config schema. "frequencies" is either an explicit list or a preset
# object {"preset": "resonant"|"switching", "C": ..., "m": ..., "n": ...};
# C defaults to 1.0 (the reference frequency). No bond phase: populations
# are gauge-invariant, and the qubit score takes eta* from its plan.
_TOP_KEYS = {"n_sites", "frequencies", "J"}
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


def config_and_pair(data: Mapping) -> tuple[ArrayConfig, tuple[int, int] | None]:
    """Build an ArrayConfig from the JSON schema mapping, with the site pair
    (m, n) its switching profile names (None for any other profile).

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
    pair = None
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
            pair = (freq_spec.get("m"), freq_spec.get("n"))
            if not all(isinstance(site, int) for site in pair):
                raise ConfigError(
                    "frequency preset 'switching' requires integer 'm' and 'n'"
                )
            frequencies = switching_frequencies(float(c), *pair, n_sites)
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
    ), pair


def config_to_dict(config: ArrayConfig) -> dict:
    """Resolved (explicit-frequency) schema form, for metadata emission."""
    return {
        "n_sites": config.n_sites,
        "frequencies": [float(w) for w in config.frequencies],
        "J": config.coupling_scale,
    }
