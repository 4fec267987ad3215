"""Perfect-transfer protocol design between two sites of the array.

The parabolic frequency profile makes sites m and n degenerate while every
intermediate site is detuned by order unity. For weak coupling the spectrum
then contains a near-degenerate eigenvector pair (the doublet) living almost
entirely on |m> and |n>; its splitting 2*theta sets the transfer time
t* = pi/(2*theta), and a uniform bond phase eta* makes the transferred
amplitude land with phase +1 so superpositions with the vacuum survive. The
phase is a gauge (model): the qubit score multiplies the real-H amplitude by
e^{-i(n-m) eta}.

make_plan does not read the doublet off an eigensolver: theta is a
difference of two O(1) eigenvalues, so a backward-stable solver gets it only
to an absolute ~eps*||H||, and the doublet vectors only to ~eps*||H||/theta.
Instead the chain is partitioned exactly onto {m, n} (Loewdin, J. Chem.
Phys. 19, 1396 (1951)) in the frame shifted by omega_m. The three
blocks left over (outside m, between m and n, outside n) enter through
continued fractions for the self-energies Sigma_m(x), Sigma_n(x) and a
continuant for the coupling V(x) = prod(J*sqrt(k)) / det(x - H_mid); each
has relative accuracy, so the self-consistent doublet levels x+- carry
relative accuracy and lambda+- = omega_m + x+- is rounded once. Doublets
too narrow for float64 propagation to resolve are refused outright. The
eigensolver route (tests/oracles.py) is kept only as the tests' independent
cross-check.

Orientation subtlety: the effective m<->n coupling appears at order |n-m|
in the coupling with |n-m|-1 energy denominators of alternating sign, so
whether the symmetric combination (|m>+|n>)/sqrt2 is the top or bottom of
the doublet alternates with the site distance. TransferPlan stores the
doublet ordered by eigenvalue (theta > 0 always) and keeps the orientation
in plus_overlap_sign; the closed-form fidelity and eta* both consume it.
TransferPlan stores what make_plan measures and the checked ArrayConfig it
measured; n_sites, theta, lambda_mean, t* and eta* derive from those once.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .dynamics import _EPS, _qubit_weights, decompose, transfer_amplitude
from .errors import ConfigError, DoubletNotResolvedError
from .model import (ArrayConfig, _integer, _real, _real_grid, build_couplings,
                    build_hamiltonian, switching_frequencies, wrap_phase)

__all__ = [
    "TransferPlan",
    "DoubletPurityWarning",
    "make_plan",
    "plan_config",
    "qubit_fidelity_curve",
]

# Plans with purity below this are refused outright; between this and
# 0.99 they are emitted with a warning (perturbative picture degrading).
_PURITY_REFUSE = 0.9
_PURITY_WARN = 0.99

# The plan is run through decompose, whose eigenvalues are good to a small
# multiple of eps*||H||; the splitting it propagates is then off by that
# much and t* by eps*||H||/(2*theta) relative. Requiring
# 2*theta >= 1e3 * eps*||H|| holds t* to 1e-3 in the propagated curves.
_RESOLVABLE_FACTOR = 1e3
# The self-consistency map contracts by the doublet's weight outside
# {m, n} (below 0.1 for any plan that is not refused), so this is generous.
_MAX_ITERATIONS = 200
# A level has settled once an iteration moves it by less than this many eps
# of |Sigma_m| + |Sigma_n| + |V|, the rounding noise of one evaluation of
# the continued fractions (measured at a few eps).
_SETTLE_EPS = 64.0


class DoubletPurityWarning(UserWarning):
    """Plan emitted outside the high-purity regime; transfer will be imperfect."""


@dataclass(frozen=True, eq=False)
class TransferPlan:
    """Everything needed to run and to predict one m -> n transfer.

    Stored (the constructor's arguments, what make_plan measures): the
    sites, config (the designed profile as an ArrayConfig, which checked it),
    the doublet eigenvalues lambda_plus > lambda_minus, doublet_purity (the
    smaller of the two doublet overlap weights), plus_overlap_sign (+1 when
    (|m>+|n>)/sqrt2 is the top level, -1 when the bottom) and predicted_peak
    (the doublet-model max_t P_mn). Read off config: n_sites, frequencies
    and coupling_scale. Derived once from the stored values: theta =
    (lambda_plus - lambda_minus)/2 > 0, lambda_mean, transfer_time =
    pi/(2*theta), and eta_star, the bond phase that makes the transferred
    amplitude +1 at t*. to_dict writes every field but config.
    """

    source: int
    target: int
    config: ArrayConfig
    n_sites: int = field(init=False)
    frequencies: np.ndarray = field(init=False)
    coupling_scale: float = field(init=False)
    lambda_plus: float
    lambda_minus: float
    theta: float = field(init=False)
    lambda_mean: float = field(init=False)
    transfer_time: float = field(init=False)
    eta_star: float = field(init=False)
    doublet_purity: float
    plus_overlap_sign: int
    predicted_peak: float

    def __post_init__(self) -> None:
        config = self.config
        if not isinstance(config, ArrayConfig):
            raise ConfigError(f"plan config must be an ArrayConfig, got {type(config).__name__}")
        stored = vars(self)  # frozen: assign through the instance dict
        for name, low in (("source", 1), ("target", 1), ("plus_overlap_sign", -1)):
            stored[name] = _integer(stored[name], f"plan {name}", low)
        for name in ("lambda_plus", "lambda_minus", "doublet_purity", "predicted_peak"):
            stored[name] = _real(stored[name], f"plan {name}")
        n, m, t, sign = config.n_sites, self.source, self.target, self.plus_overlap_sign
        if not (1 <= m <= n and 1 <= t <= n) or m == t:
            raise ConfigError(f"plan sites must be distinct and in [1, {n}], got {m} -> {t}")
        if not (0.0 <= self.doublet_purity <= 1.0):
            raise ConfigError(f"plan doublet_purity must lie in [0, 1], got {self.doublet_purity!r}")
        if sign not in (-1, 1):
            raise ConfigError(f"plus_overlap_sign must be +1 or -1, got {sign!r}")
        theta = (self.lambda_plus - self.lambda_minus) / 2.0
        if not (theta > 0.0):
            raise ConfigError(f"plan theta must be > 0, got {theta!r}")
        lambda_mean = (self.lambda_plus + self.lambda_minus) / 2.0
        transfer_time = math.pi / (2.0 * theta)
        # the transferred amplitude at t* is -i * sign * exp(-i lambda_mean t*)
        # * exp(-i (n-m) eta); eta_star makes it exactly +1
        eta_star = wrap_phase((-sign * 0.5 * math.pi - lambda_mean * transfer_time) / (t - m))
        stored.update(n_sites=n, frequencies=config.frequencies,
                      coupling_scale=config.coupling_scale, theta=theta, lambda_mean=lambda_mean,
                      transfer_time=transfer_time, eta_star=eta_star)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "config"}
        out["frequencies"] = [float(w) for w in self.frequencies]
        return out


def _chain_run(d, b2, sites):
    """(d_k, squared bond to the previous site) along `sites`, a run of
    chain sites listed from its far end inwards."""
    run, prev = [], None
    for k in sites:
        run.append((d[k], 0.0 if prev is None else b2[min(k, prev)]))
        prev = k
    return run


def _end_resolvent(x: float, run):
    """Resolvent of a chain run (see _chain_run) at its inner end.

    Returns the diagonal element g of (x - H_run)^-1 at the last site, by
    the continued fraction g <- 1/(x - d_k - b^2 g), its x-derivative, the
    product of the partial fractions (which is 1/det(x - H_run)) and the
    x-derivative of that product's log.
    """
    g = dg = dlog = 0.0
    inv_det = 1.0
    for d_k, feed in run:
        step = 1.0 - feed * dg
        g = 1.0 / (x - d_k - feed * g)
        dg = -g * g * step
        dlog -= g * step
        inv_det *= g
    return g, dg, inv_det, dlog


def _partitioned_doublet(shifted: np.ndarray, bonds: np.ndarray, lo: int, hi: int):
    """Doublet of a real tridiagonal chain by exact partitioning onto {lo, hi}.

    shifted is the diagonal in a frame where shifted[lo] = 0 (shifted[hi]
    is then 0 up to the profile's rounding) and bonds[k] couples sites k
    and k+1 (0-based). Each level x solves x = eig H_eff(x),
    H_eff = [[Sigma_m, V], [V, shifted[hi] + Sigma_n]], by fixed-point
    iteration from x = 0. The eigenvector is the 2x2 null vector c on
    {lo, hi} plus q = (x - H_QQ)^-1 H_QP c on the other sites, and
    |q|^2 = -c^T H_eff'(x) c. Returns (x, amplitude on lo, amplitude on hi)
    of the normalized eigenvector, for the top level and then the bottom.
    """
    d = shifted.tolist()
    # squared as Python floats: the same bits as numpy's, and an overflow
    # to inf raises no warning
    b2 = [b * b for b in bonds.tolist()]
    n_sites = len(d)
    left = _chain_run(d, b2, range(lo))
    right = _chain_run(d, b2, range(n_sites - 1, hi, -1))
    middle = _chain_run(d, b2, range(lo + 1, hi))
    middle_back = _chain_run(d, b2, range(hi - 1, lo, -1))
    bond_product = math.prod(bonds[lo:hi].tolist())

    def effective(x):
        """(Sigma_m, Sigma_n, V) at x and their x-derivatives."""
        sigma_m = d_sigma_m = d_sigma_n = d_v = 0.0
        sigma_n, v = d[hi], bond_product
        if left:
            g, dg, _, _ = _end_resolvent(x, left)
            sigma_m += b2[lo - 1] * g
            d_sigma_m += b2[lo - 1] * dg
        if right:
            g, dg, _, _ = _end_resolvent(x, right)
            sigma_n += b2[hi] * g
            d_sigma_n += b2[hi] * dg
        if middle:
            g, dg, inv_det, dlog = _end_resolvent(x, middle)
            sigma_n += b2[hi - 1] * g
            d_sigma_n += b2[hi - 1] * dg
            g, dg, _, _ = _end_resolvent(x, middle_back)
            sigma_m += b2[lo] * g
            d_sigma_m += b2[lo] * dg
            v *= inv_det
            d_v = v * dlog
        return (sigma_m, sigma_n, v), (d_sigma_m, d_sigma_n, d_v)

    def level(branch):
        x = 0.0
        for _ in range(_MAX_ITERATIONS):
            (sigma_m, sigma_n, v), slopes = effective(x)
            half = 0.5 * (sigma_m - sigma_n)
            x_new = 0.5 * (sigma_m + sigma_n) + branch * math.hypot(half, v)
            noise = _SETTLE_EPS * _EPS * (abs(sigma_m) + abs(sigma_n) + abs(v))
            if abs(x_new - x) <= noise:
                # null vector of H_eff - x, written without cancellation
                a = math.hypot(half, v) + abs(half)
                if half >= 0.0:
                    c_m, c_n = (a, v) if branch > 0 else (v, -a)
                else:
                    c_m, c_n = (v, a) if branch > 0 else (-a, v)
                d_sigma_m, d_sigma_n, d_v = slopes
                q_weight = -(c_m * c_m * d_sigma_m + 2.0 * c_m * c_n * d_v
                             + c_n * c_n * d_sigma_n)
                norm = math.sqrt(c_m * c_m + c_n * c_n + q_weight)
                return x_new, c_m / norm, c_n / norm
            x = x_new
        raise DoubletNotResolvedError(
            f"doublet not resolved: the levels of sites {lo + 1} and {hi + 1} "
            "do not settle under partitioning (coupling too large relative "
            "to the neighbour detunings)"
        )

    return level(1), level(-1)


def make_plan(template: ArrayConfig, m: int, n: int) -> TransferPlan:
    """Design the m -> n transfer for an array like `template`.

    The template supplies n_sites, coupling_scale and the base frequency
    (its first entry); the parabolic profile for the requested pair replaces
    the template's own frequencies (the plan derives its own eta_star; loss
    is applied by open_system at run time). m > n is allowed and plans the
    reverse transfer over the same profile.

    The doublet comes from exact partitioning onto {m, n} (module
    docstring), so purity, predicted_peak and the orientation sign do not
    depend on the LAPACK build; lambda+- are each rounded once to float64.
    These values, the sites and the profile's ArrayConfig (built once every
    gate has passed) are all the plan is given; TransferPlan derives the rest.

    The gates run in this order, each on values the one before has passed.
    Refuses (DoubletNotResolvedError) first when float64 cannot carry the
    partitioning (a level on an exact pole, amplitudes that underflow, a
    level or amplitude that is not finite), so purity and splitting are only
    ever read off finite values; then below purity 0.9; then when the
    splitting 2*theta is below 1e3 * eps * ||H|| (too narrow for the float64
    propagation of the plan to time to 1e-3). Last, it warns
    (DoubletPurityWarning) in [0.9, 0.99).
    """
    base = float(template.frequencies[0])
    lo, hi = (m, n) if m < n else (n, m)
    freqs = switching_frequencies(base, lo, hi, template.n_sites)
    bonds = build_couplings(template.coupling_scale, template.n_sites)
    omega = float(freqs[lo - 1])
    try:
        (x_hi, *top), (x_lo, *bottom) = _partitioned_doublet(freqs - omega, bonds,
                                                             lo - 1, hi - 1)
        lambda_plus, lambda_minus = omega + x_hi, omega + x_lo
        if not all(map(math.isfinite, (lambda_plus, lambda_minus, *top, *bottom))):
            raise ValueError("a doublet level or amplitude is not finite")
    except (ZeroDivisionError, ValueError) as exc:
        # a level on an exact pole of a side chain, doublet amplitudes that
        # underflow, or levels or amplitudes that overflow: J and the
        # profile's O(1) detunings at omega_1 are too far apart in scale
        raise DoubletNotResolvedError(
            f"doublet not resolved for {m} -> {n}: partitioning failed in float64 "
            f"({exc}); J = {template.coupling_scale!r} and the detunings at "
            f"omega_1 = {base!r} are too far apart in scale") from exc

    # +1 when the symmetric combination (|m>+|n>)/sqrt2 is the top level
    sign = 1 if top[0] * top[1] > 0.0 else -1
    sym, anti = (top, bottom) if sign == 1 else (bottom, top)
    # an overlap of unit vectors; the clamp drops rounding above 1
    purity = min((sym[0] + sym[1]) ** 2 / 2.0, (anti[0] - anti[1]) ** 2 / 2.0, 1.0)
    if purity < _PURITY_REFUSE:
        raise DoubletNotResolvedError(
            f"doublet not resolved for {m} -> {n}: purity {purity:.4f} < "
            f"{_PURITY_REFUSE}; the two-level reduction has failed "
            "(reduce the coupling or pick a pair with detuned neighbours)"
        )
    # ||H||_inf bounds ||H||_2, so this errs on the side of refusing; row k
    # sums (|omega_k| + J_k) + J_{k-1} in that order
    b = [0.0, *bonds.tolist(), 0.0]
    h_norm = max((abs(w) + b[k + 1]) + b[k] for k, w in enumerate(freqs.tolist()))
    if x_hi - x_lo < _RESOLVABLE_FACTOR * _EPS * h_norm:
        raise DoubletNotResolvedError(
            f"doublet not resolved for {m} -> {n}: splitting {x_hi - x_lo:.3e} "
            f"is below {_RESOLVABLE_FACTOR:.0e} * eps * ||H|| = "
            f"{_RESOLVABLE_FACTOR * _EPS * h_norm:.3e}; float64 propagation "
            "cannot time this transfer (increase the coupling or pick a "
            "closer pair)"
        )
    if purity < _PURITY_WARN:
        warnings.warn(
            f"transfer plan {m} -> {n} has doublet purity {purity:.4f} "
            f"(< {_PURITY_WARN}); peak transfer will fall short of ideal",
            DoubletPurityWarning,
            stacklevel=2,
        )

    return TransferPlan(
        source=m,
        target=n,
        config=ArrayConfig(template.n_sites, freqs, template.coupling_scale),
        lambda_plus=lambda_plus,
        lambda_minus=lambda_minus,
        doublet_purity=purity,
        plus_overlap_sign=sign,
        predicted_peak=(abs(top[0] * top[1]) + abs(bottom[0] * bottom[1])) ** 2,
    )


def plan_config(plan: TransferPlan) -> ArrayConfig:
    """The ArrayConfig that realizes a plan: its config field."""
    return plan.config


def _applied_phase(plan: TransferPlan, eta: float | None = None) -> float:
    """The bond phase a qubit score runs at: eta wrapped into [-pi, pi), or
    the plan's eta_star when eta is None."""
    return plan.eta_star if eta is None else wrap_phase(eta)


def _arrival_amplitude(plan: TransferPlan, t, eta: float | None = None):
    """<n|U(t)|m> with bond phase eta (default eta*): the real-H amplitude on
    the plan's spectrum times the gauge factor e^{-i(n-m) eta}. Both qubit
    scores (qubit_fidelity_curve, open_system) take their amplitude here."""
    spec = decompose(build_hamiltonian(plan.config))
    return transfer_amplitude(plan.source, plan.target, spec, t) * cmath.exp(
        -1j * (plan.target - plan.source) * _applied_phase(plan, eta))


def _register_fidelity(a2, b2, a, damping=1.0, lost=0.0):
    """|a2 + b2 damping a|^2 - a2 b2 lost: the fidelity of alpha|vac> + beta|m>
    (a2 = |alpha|^2, b2 = |beta|^2) sent with amplitude a = <n|U|m>, against
    alpha|vac> + beta|n>. Uniform loss gamma over t gives damping =
    e^{-gamma t/2} and lost = expm1(-gamma t); the defaults are no loss."""
    return np.abs(a2 + b2 * damping * a) ** 2 - a2 * b2 * lost


def qubit_fidelity_curve(plan: TransferPlan, alpha: complex, beta: complex,
                         times, eta: float | None = None):
    """Transfer fidelity of alpha|vac> + beta|m> against alpha|vac> + beta|n>.

    Returns (numeric, closed_form) arrays over the time grid. numeric is the
    exact |<target|psi(t)>|^2 under the full Hamiltonian with bond phase eta
    (default: the plan's eta_star), the real-H amplitude times e^{-i(n-m) eta};
    closed_form is the two-level doublet-model prediction computed from the
    plan fields alone, an independent cross-check of the numerics.
    """
    a2, b2 = _qubit_weights(alpha, beta)
    if not isinstance(a2, float):
        raise ConfigError("qubit amplitudes must be two numbers here, not ensembles")
    t_arr = np.atleast_1d(_real_grid(times, "times"))
    numeric = _register_fidelity(a2, b2, _arrival_amplitude(plan, t_arr, eta))

    # the doublet amplitude -i s e^{-i phi} sin(theta t), phi = lambda_mean t +
    # (n-m) eta, has real part -s sin(phi) sin(theta t): two real sines per time
    phi = plan.lambda_mean * t_arr + (plan.target - plan.source) * _applied_phase(plan, eta)
    s_t = np.sin(plan.theta * t_arr)
    closed = (a2 * a2 + b2 * b2 * s_t * s_t
              - 2.0 * a2 * b2 * plan.plus_overlap_sign * np.sin(phi) * s_t)
    return numeric, closed
