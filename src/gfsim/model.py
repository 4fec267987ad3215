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
its Hamiltonian, a Hamiltonian its spectrum (a plan holds its config).

One number rule, here: a number is a Python or numpy int or float (_is_real;
complex too for an amplitude), never a bool or a numeric string. Every scalar,
count, grid and matrix a public function takes passes _real, _integer,
_real_grid or _is_numeric, whose ConfigError names the argument.
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
    eta = _real(eta, "phase")
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


def _is_amplitude(value) -> bool:
    """True for a Python or numpy number, complex, NaN and inf included; bool,
    numeric strings and ints past float range are not amplitudes."""
    return (isinstance(value, (float, complex, np.number))
            or _is_integer(value) and abs(value) <= sys.float_info.max)


def _is_numeric(values, is_number=_is_real, kinds: str = "iuf", depth: int = 1) -> bool:
    """True for an ndarray of a dtype kind in kinds, on its dtype alone (shape
    and finiteness are the caller's to check), or for lists or tuples nested
    depth deep (rows of a matrix at 2) of is_number values: a bool, string or
    too deeply nested element fails here before numpy can cast it or raise."""
    if isinstance(values, np.ndarray):
        return values.dtype.kind in kinds
    return isinstance(values, (list, tuple)) and all(
        _is_numeric(v, is_number, kinds, depth - 1) if depth > 1 else is_number(v)
        for v in values)


def _real(value, name: str, low: float | None = None, strict: bool = False) -> float:
    """value as a float if it is a number (_is_real) and, given low, >= low
    (> low when strict); a ConfigError naming it otherwise."""
    if not _is_real(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    value = float(value)
    if low is not None and not (value > low if strict else value >= low):
        raise ConfigError(f"{name} must be {'>' if strict else '>='} {low:g}, got {value!r}")
    return value


def _integer(value, name: str, low: int) -> int:
    """value as an int if it is an integer >= low; a ConfigError naming it otherwise."""
    if not (_is_integer(value) and value >= low):
        raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def _real_grid(values, name: str, low: float | None = None, depth: int = 1) -> np.ndarray:
    """values as a float64 array if they are a number, lists or tuples of
    numbers nested depth deep (flat at 1) or an iuf ndarray of any shape; a
    ConfigError naming them otherwise. An ndarray's entries are checked finite
    and >= low only given low (a time grid's finiteness is the kernel's)."""
    if not (_is_real(values) or _is_numeric(values, depth=depth)):
        raise ConfigError(f"{name} must be finite numbers: one, a list or tuple of them, "
                          f"or a real array; got {values!r}")
    grid = np.asarray(values, dtype=float)
    if low is not None and not np.all(np.isfinite(grid) & (grid >= low)):
        raise ConfigError(f"{name} must be finite and >= {low:g}")
    return grid


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
        object.__setattr__(self, "n_sites", _integer(self.n_sites, "n_sites", 2))
        freqs = _real_grid(self.frequencies, "frequencies")
        if freqs.ndim != 1 or freqs.shape[0] != self.n_sites:
            raise ConfigError(
                f"frequencies must be a length-{self.n_sites} vector, "
                f"got shape {freqs.shape}"
            )
        if not np.all(np.isfinite(freqs)):
            raise ConfigError("frequencies must all be finite")
        object.__setattr__(self, "frequencies", _readonly(freqs))
        object.__setattr__(self, "coupling_scale",
                           _real(self.coupling_scale, "coupling_scale", 0.0, strict=True))


@functools.cache
def _above_band(n: int) -> np.ndarray:
    """Read-only mask of the entries with j - i > 1 (its transpose: below)."""
    return _readonly(np.subtract.outer(np.arange(n), np.arange(n)) < -1)


@dataclass(frozen=True, eq=False)
class HamiltonianMatrix:
    """Real symmetric tridiagonal single-excitation Hamiltonian (site block).

    Construction refuses entries that are not numbers, copies the input once
    as float64 and checks shape, finiteness, symmetry and tridiagonality
    (1e-14 relative). An imaginary part is refused (no bond phase; module docstring).
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        if not _is_numeric(self.matrix, _is_amplitude, "iufc", depth=2):
            raise ConfigError(f"Hamiltonian entries must be numbers, got {self.matrix!r}")
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
    n_sites = _integer(n_sites, "n_sites", 2)
    scale = _real(scale, "coupling scale", 0.0, strict=True)
    if not math.isfinite(scale * math.sqrt(n_sites - 1)):
        raise ConfigError(f"bond J*sqrt({n_sites - 1}) overflows float64 at J = {scale!r}")
    return scale * np.sqrt(np.arange(1, n_sites, dtype=float))


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
    m, n, n_sites = _integer(m, "m", 1), _integer(n, "n", 1), _integer(n_sites, "n_sites", 2)
    if m == n:
        raise ConfigError(f"source and target sites must differ, got m = n = {m}")
    if max(m, n) > n_sites:
        raise ConfigError(f"sites must lie in [1, {n_sites}], got m = {m}, n = {n}")
    base = _real(base, "base frequency", 0.0, strict=True)
    k = np.arange(n_sites, dtype=float)  # k-1 in the formula, 0-based here
    s = float(m + n - 2)
    return base + k * (s - k) / s


# JSON config schema. "frequencies" is either an explicit list or a preset
# object {"preset": "resonant"|"switching", "C": ..., "m": ..., "n": ...};
# C defaults to 1.0 (the reference frequency). No bond phase: populations
# are gauge-invariant, and the qubit score takes eta* from its plan.
_TOP_KEYS = ("n_sites", "frequencies", "J")
_PRESET_KEYS = {"preset", "C", "m", "n"}


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
    for key in _TOP_KEYS:
        if key not in data:
            raise ConfigError(f"config missing required field '{key}'")
    n_sites = _integer(data["n_sites"], "config field 'n_sites'", 2)
    freq_spec = data["frequencies"]
    pair, frequencies = None, freq_spec     # ArrayConfig checks a list
    if isinstance(freq_spec, Mapping):
        for key in freq_spec:
            if key not in _PRESET_KEYS:
                raise ConfigError(f"unknown frequency-preset field '{key}'")
        preset = freq_spec.get("preset")
        c = _real(freq_spec.get("C", 1.0), "config field 'C'")
        if preset == "resonant":
            for key in ("m", "n"):
                if key in freq_spec:
                    raise ConfigError(
                        f"frequency preset 'resonant' does not take '{key}'"
                    )
            frequencies = np.full(n_sites, c)
        elif preset == "switching":
            pair = (freq_spec.get("m"), freq_spec.get("n"))
            frequencies = switching_frequencies(c, *pair, n_sites)
        else:
            raise ConfigError(
                f"frequency preset must be 'resonant' or 'switching', got {preset!r}"
            )
    elif not isinstance(freq_spec, (list, tuple)):
        raise ConfigError(
            "config field 'frequencies' must be a list or a preset object, "
            f"got {type(freq_spec).__name__}"
        )

    return ArrayConfig(n_sites, frequencies, _real(data["J"], "config field 'J'")), pair


def config_to_dict(config: ArrayConfig) -> dict:
    """Resolved (explicit-frequency) schema form, for metadata emission."""
    return {
        "n_sites": config.n_sites,
        "frequencies": [float(w) for w in config.frequencies],
        "J": config.coupling_scale,
    }
