"""The closed form for the resonant array, used as an independent oracle.

A photon launched from site 1 of a resonant square-root-coupled chain
spreads like a coherent state truncated at the chain boundary: amplitude
on site k is proportional to (-iJt)^(k-1)/sqrt((k-1)!), with an
incomplete-gamma normalization. The form is exact in its own right
(separately normalized), and agrees with the exact dynamics only while
the boundary site is essentially unpopulated; the deviation is measured,
not assumed away.

Everything is computed in log-magnitude + phase form, so the expression
stays finite for every finite (Jt)^2, far past the naive factorial overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import _is_integer, _readonly

__all__ = [
    "TruncatedCoherentProfile",
    "truncated_coherent_amplitudes",
]


def _log_tail(n: int, x: float) -> tuple[np.ndarray, float]:
    """(rel, log S) for x > 0, S = sum_{j<n} x^j / j! summed in log space:
    rel[j] is the term x^j / j! over the largest one. Q(n, x) = e^{-x} S;
    e^{-x} cancels from rel, and added there it swamps j log x at x ~ 1e16."""
    j = np.arange(n, dtype=float)
    logs = j * math.log(x) - np.array([math.lgamma(k + 1.0) for k in j])
    peak = float(np.max(logs))
    rel = np.exp(logs - peak)
    return rel, peak + math.log(float(np.sum(rel)))


@dataclass(frozen=True, eq=False)
class TruncatedCoherentProfile:
    """Boundary-truncated coherent profile at excitation x = (Jt)^2.

    amplitudes[k-1] is the site-k amplitude (length N, no vacuum slot, the
    launch site is k = 1); normalization is the closed-form prefactor
    e^{-x/2}/sqrt(Q(N, x)).
    """

    excitation_scale: float
    amplitudes: np.ndarray
    normalization: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitudes",
                           _readonly(np.asarray(self.amplitudes, dtype=complex)))


def truncated_coherent_amplitudes(coupling: float, t: float, n_sites: int) -> TruncatedCoherentProfile:
    """Closed-form site amplitudes for a photon launched from site 1.

    Valid for a resonant array in the frame rotating at the common
    resonance; site k carries phase (-i)^(k-1) and weight given by a
    Poisson distribution in k-1 conditioned on k <= N, with x = (J t)^2.
    Exactly normalized by construction; a (J t)^2 past float range is refused.
    """
    coupling = float(coupling)
    if not math.isfinite(coupling) or coupling <= 0.0:
        raise ConfigError(f"coupling must be > 0, got {coupling!r}")
    t = float(t)
    if not math.isfinite(t) or t < 0.0:
        raise ConfigError(f"time must be finite and >= 0, got {t!r}")
    if not _is_integer(n_sites) or n_sites < 1:
        raise ConfigError(f"n_sites must be an integer >= 1, got {n_sites!r}")
    n = int(n_sites)

    try:
        x = (coupling * t) ** 2
    except OverflowError:  # a finite J t whose square is past float range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"(J t)^2 = ({coupling!r} * {t!r})^2 is beyond float range")
    phase = (-1j) ** np.arange(n)
    if x == 0.0:
        amps = np.zeros(n, dtype=complex)
        amps[0] = 1.0
        return TruncatedCoherentProfile(0.0, amps, 1.0)

    rel, log_sum = _log_tail(n, x)
    weights = rel / float(np.sum(rel))  # conditioned Poisson, sums to 1 exactly
    amps = phase * np.sqrt(weights)
    normalization = math.exp(-0.5 * log_sum)  # e^{-x/2} / sqrt(Q), e^{-x} cancelled
    return TruncatedCoherentProfile(x, amps, normalization)
