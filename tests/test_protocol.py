"""Transfer-plan construction, the two-level reduction, and its closed form.

Frozen plan numbers are 60-digit mpmath values for the float64 Hamiltonian
the plan runs on (recipe above FROZEN_PLANS), pasted in as constants; they
guard against silent regressions in the doublet route, sign bookkeeping,
and phase formulas, and hold on any LAPACK build.
"""

import json
import math
import warnings
from dataclasses import fields

import numpy as np
import pytest

from gfsim.errors import ConfigError, DoubletNotResolvedError
from gfsim.model import (ArrayConfig, build_hamiltonian, switching_frequencies,
                         wrap_phase)
from gfsim.dynamics import decompose, transfer_probability
from gfsim.protocol import (
    DoubletPurityWarning,
    TransferPlan,
    make_plan,
    plan_config,
    qubit_fidelity_curve,
)

from conftest import resonant_template
from oracles import identify_doublet

# template: six resonant cavities at omega = 1, J = 0.0013. Recipe: build the
# float64 matrix with build_hamiltonian(ArrayConfig(6, switching_frequencies(
# 1.0, m, n, 6), 0.0013)), convert each entry exactly to mpmath at 60 digits,
# mpmath.eigsy; the doublet is the pair of eigenvectors with the largest
# overlaps with (|m> +- |n>)/sqrt2. theta = (lambda+ - lambda-)/2,
# t* = pi/(2 theta), mean = (lambda+ + lambda-)/2, purity the smaller of the
# two overlaps, peak = (|v_m+ v_n+| + |v_m- v_n-|)^2. Rounded to 17 digits.
FROZEN_PLANS = {
    (1, 3): dict(theta=4.7799556757411613e-06, transfer_time=328621.52566955238,
                 mean=0.99999662008567986, sign=-1,
                 purity=0.99997917433117793, peak=0.99997746786123253),
    (1, 4): dict(theta=1.2108325064326402e-08, transfer_time=129728622.12155035,
                 mean=0.99999746499036131, sign=1,
                 purity=0.99999045740870125, peak=0.99998098754049577),
    (2, 4): dict(theta=1.655656117744753e-05, transfer_time=94874.552146405383,
                 mean=1.7499887353012293, sign=-1,
                 purity=0.99985870411882506, peak=0.99984983270905667),
    (2, 5): dict(theta=6.7266455800975625e-08, transfer_time=23351852.094638142,
                 mean=1.7999936623494181, sign=1,
                 purity=0.99995998811953393, peak=0.99992053445716331),
}
# Same recipe for (1, 5), the low-purity pair.
PURITY_15 = 0.9693122434591746
PEAK_15 = 0.88103977245189191

# eta* = wrap((-sign pi/2 - mean t*)/(n - m)) amplifies any error in t* by
# mean*t*/(n - m) (up to 4e7 here), so eta* itself is not portable; what a
# plan promises is the phase condition at its own t*. Its float64 residual is
# at most ETA_PHASE_ULPS * eps * mean * t*: eps for the mean of two
# once-rounded levels, eps/2 each for the product mean*t*, the wrap, the
# pasted mean and this test's own product.
ETA_PHASE_ULPS = 4.0

REFERENCE_QUBITS = [
    (0.5, math.sqrt(3) / 2),
    (1 / math.sqrt(3), 1j * math.sqrt(2 / 3)),
    (1 / math.sqrt(2), 1 / math.sqrt(2)),
    (math.sqrt(3) / 2, 0.5),
]


@pytest.fixture(params=sorted(FROZEN_PLANS), ids=lambda p: f"{p[0]}to{p[1]}")
def frozen_pair(request):
    return request.param


def test_plan_matches_frozen_values(frozen_pair, plan_13, plan_14, plan_24, plan_25):
    plans = {(1, 3): plan_13, (1, 4): plan_14, (2, 4): plan_24, (2, 5): plan_25}
    plan = plans[frozen_pair]
    ref = FROZEN_PLANS[frozen_pair]
    assert plan.theta == pytest.approx(ref["theta"], rel=1e-9)
    assert plan.transfer_time == pytest.approx(ref["transfer_time"], rel=1e-9)
    delta = plan.target - plan.source
    residual = wrap_phase(-ref["sign"] * math.pi / 2
                          - ref["mean"] * plan.transfer_time - delta * plan.eta_star)
    eps = np.finfo(float).eps
    assert abs(residual) <= ETA_PHASE_ULPS * eps * ref["mean"] * plan.transfer_time
    assert plan.plus_overlap_sign == ref["sign"]
    assert plan.doublet_purity == pytest.approx(ref["purity"], rel=1e-9)
    assert plan.predicted_peak == pytest.approx(ref["peak"], rel=1e-9)


def test_plan_internal_relations(plan_24):
    p = plan_24
    # the constructor takes what make_plan measures; the rest is derived
    assert [f.name for f in fields(TransferPlan) if f.init] == [
        "source", "target", "frequencies", "coupling_scale", "lambda_plus",
        "lambda_minus", "doublet_purity", "plus_overlap_sign", "predicted_peak"]
    assert p.n_sites == len(p.frequencies)
    assert p.theta == (p.lambda_plus - p.lambda_minus) / 2
    assert p.transfer_time == math.pi / (2 * p.theta)
    assert -math.pi <= p.eta_star < math.pi
    assert p.lambda_minus < p.lambda_plus
    np.testing.assert_allclose(p.frequencies,
                               switching_frequencies(1.0, 2, 4, 6), rtol=1e-15)


def test_overlap_sign_parity_law(plan_13, plan_14, plan_24, plan_25):
    # the symmetric doublet combination sits on top iff n - m is odd
    for plan in (plan_13, plan_14, plan_24, plan_25):
        parity = (-1) ** (plan.target - plan.source - 1)
        assert plan.plus_overlap_sign == parity


def test_reverse_direction_plan_also_transfers(template):
    plan = make_plan(template, 4, 2)
    fwd = FROZEN_PLANS[(2, 4)]
    assert plan.transfer_time == pytest.approx(fwd["transfer_time"], rel=1e-9)
    np.testing.assert_allclose(plan.frequencies,
                               switching_frequencies(1.0, 2, 4, 6), rtol=1e-15)
    num, closed = qubit_fidelity_curve(plan, 0.5, math.sqrt(3) / 2,
                                       [plan.transfer_time])
    assert num[0] >= 0.99
    assert closed[0] == pytest.approx(1.0, abs=1e-12)


def test_identify_doublet_overlap_contract(template):
    freqs = switching_frequencies(1.0, 2, 4, 6)
    cfg = ArrayConfig(6, freqs, template.coupling_scale)
    spec = decompose(build_hamiltonian(cfg))
    lam_p, lam_m, purity = identify_doublet(spec, 2, 4)
    # overlap-matched levels, not eigenvalue-ordered: even n - m puts the
    # symmetric combination at the bottom of the doublet
    assert purity == pytest.approx(FROZEN_PLANS[(2, 4)]["purity"], rel=1e-9)
    assert lam_p < lam_m
    assert abs(lam_m - lam_p) == pytest.approx(
        2 * FROZEN_PLANS[(2, 4)]["theta"], rel=1e-9)


def test_doublet_refusals():
    tmpl = resonant_template()
    # pairs ending on the last cavity: the level shifts of m and n differ by
    # ~1e-5, far more than their effective coupling, so each level sits on
    # one site and the reduction carries no weight (purity ~ 0.5)
    with pytest.raises(DoubletNotResolvedError):
        make_plan(tmpl, 1, 6)
    with pytest.raises(DoubletNotResolvedError):
        make_plan(tmpl, 2, 6)
    with pytest.raises(ConfigError):
        make_plan(tmpl, 3, 3)
    with pytest.raises(ConfigError):
        make_plan(tmpl, 0, 4)


def test_two_cavity_plan_is_the_exact_rabi_doublet():
    # nothing to partition away: the levels are omega +- J exactly, the
    # doublet is (|1> +- |2>)/sqrt2 with the symmetric level on top
    plan = make_plan(resonant_template(n_sites=2, coupling=0.01), 1, 2)
    assert plan.theta == pytest.approx(0.01, rel=1e-12)
    assert plan.plus_overlap_sign == 1
    assert plan.doublet_purity == pytest.approx(1.0, abs=1e-15)
    assert plan.predicted_peak == pytest.approx(1.0, abs=1e-15)


def test_low_purity_plan_warns_but_builds():
    with pytest.warns(DoubletPurityWarning):
        plan = make_plan(resonant_template(), 1, 5)
    assert plan.doublet_purity == pytest.approx(PURITY_15, rel=1e-9)
    assert plan.predicted_peak == pytest.approx(PEAK_15, rel=1e-9)


def test_unresolvable_doublet_is_refused():
    # N = 10, J = 0.0013, 2 -> 8: the splitting 2 theta = 1.6e-15 (mpmath
    # theta 7.98e-16) is about eps*||H||, below what float64 propagation can
    # time; the plan must be refused, not returned with t* off
    tmpl = resonant_template(n_sites=10)
    with pytest.raises(DoubletNotResolvedError, match="splitting"):
        make_plan(tmpl, 2, 8)


def test_transfer_curve_follows_sin_squared_law(plan_24):
    plan = plan_24
    cfg = plan_config(plan)
    spec = decompose(build_hamiltonian(cfg))
    times = np.linspace(0.0, 2.0 * plan.transfer_time, 2001)
    probs = transfer_probability(plan.source, plan.target, spec, times)
    model = plan.predicted_peak * np.sin(plan.theta * times) ** 2
    assert np.max(np.abs(probs - model)) <= 0.01   # measured ~3e-4
    assert np.max(probs) >= 0.99


def test_leakage_stays_small_during_transfer(plan_24):
    cfg = plan_config(plan_24)
    spec = decompose(build_hamiltonian(cfg))
    times = np.linspace(0.0, 2.0 * plan_24.transfer_time, 1501)
    p_src = transfer_probability(plan_24.source, plan_24.source, spec, times)
    p_tgt = transfer_probability(plan_24.source, plan_24.target, spec, times)
    leakage = 1.0 - p_src - p_tgt
    assert np.max(leakage) <= 0.02                 # measured ~3e-4


def test_qubit_closed_form_tracks_numerics(plan_14):
    times = np.linspace(0.0, 2.0 * plan_14.transfer_time, 801)
    for alpha, beta in REFERENCE_QUBITS:
        num, closed = qubit_fidelity_curve(plan_14, alpha, beta, times)
        assert np.max(np.abs(num - closed)) <= 0.02     # measured ~2.3e-5
        peak = float(np.max(num))
        assert peak >= 0.99


def test_qubit_fidelity_at_transfer_time(plan_14):
    expected = [0.99999054, 0.99999159, 0.99999369, 0.99999685]
    for (alpha, beta), ref in zip(REFERENCE_QUBITS, expected):
        num, closed = qubit_fidelity_curve(plan_14, alpha, beta,
                                           [plan_14.transfer_time])
        assert num[0] == pytest.approx(ref, abs=1e-7)
        assert closed[0] == pytest.approx(1.0, abs=1e-12)


def test_wrong_phase_collapses_fidelity(plan_14):
    # offsetting eta rotates the arrival phase by (n - m) * offset; the
    # closed form gives |alpha|^4 + |beta|^4 + 2 |alpha beta|^2 cos(3 offset)
    t = [plan_14.transfer_time]
    cases = [
        (0.5, math.sqrt(3) / 2, math.pi / 6, 0.625),
        (0.5, math.sqrt(3) / 2, math.pi / 3, 0.25),
        (1 / math.sqrt(2), 1 / math.sqrt(2), math.pi / 6, 0.5),
    ]
    for alpha, beta, offset, expected in cases:
        num, closed = qubit_fidelity_curve(plan_14, alpha, beta, t,
                                           eta=plan_14.eta_star + offset)
        # the lambda_mean * t_star product rounds at ~1e-9 for this pair
        assert closed[0] == pytest.approx(expected, abs=1e-7)
        assert num[0] == pytest.approx(expected, abs=1e-4)


def test_random_qubits_transfer_with_designed_phase(plan_24):
    rng = np.random.default_rng(17)
    t = [plan_24.transfer_time]
    fids = []
    for _ in range(100):
        cos_t = rng.uniform(-1.0, 1.0)
        phi = rng.uniform(0.0, 2 * math.pi)
        alpha = math.sqrt((1 + cos_t) / 2)
        beta = np.exp(1j * phi) * math.sqrt((1 - cos_t) / 2)
        num, _ = qubit_fidelity_curve(plan_24, alpha, beta, t)
        fids.append(num[0])
    assert np.mean(fids) >= 0.99
    assert np.min(fids) >= 0.99


def test_resonant_array_never_reaches_far_end():
    # without the switching profile the 1 -> N transfer stalls well below 1:
    # the spectral bound (sum_j |V_Nj V_1j|)^2 caps every time
    cfg = resonant_template()
    spec = decompose(build_hamiltonian(cfg))
    weights = np.abs(spec.eigenvectors[5, :] * spec.eigenvectors[0, :])
    bound = float(np.sum(weights) ** 2)
    assert bound < 0.99
    times = np.linspace(0.0, 1e5, 200001)
    probs = transfer_probability(1, 6, spec, times)
    assert float(np.max(probs)) < 0.99
    assert float(np.max(probs)) <= bound + 1e-12


def test_plan_json_roundtrip():
    # every plan make_plan builds for N = 3..8 at J = 1.3e-3, both directions
    built = 0
    for n_sites in range(3, 9):
        template = resonant_template(n_sites=n_sites)
        for m in range(1, n_sites + 1):
            for n in range(1, n_sites + 1):
                if m == n:
                    continue
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DoubletPurityWarning)
                    try:
                        plan = make_plan(template, m, n)
                    except DoubletNotResolvedError:
                        continue
                again = TransferPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
                for f in fields(TransferPlan):
                    ours, theirs = getattr(again, f.name), getattr(plan, f.name)
                    assert type(ours) is type(theirs), f.name
                    assert np.asarray(ours).tobytes() == np.asarray(theirs).tobytes(), f.name
                built += 1
    assert built > 50


def test_plan_from_dict_rejects_corruption(plan_24):
    # (key, corrupted value, what the refusal names)
    corruptions = [
        ("bogus", 1.0, "unknown"),
        ("theta", plan_24.theta * 1.5, "theta"),         # breaks theta = (l+ - l-)/2
        ("lambda_mean", plan_24.lambda_mean + 0.5, "lambda_mean"),
        ("eta_star", 0.0, "eta_star"),
        ("plus_overlap_sign", -plan_24.plus_overlap_sign, "eta_star"),
        ("n_sites", 6.7, "n_sites"),
        ("source", 1.5, "integer"),
        ("source", True, "integer"),
        ("coupling_scale", True, "coupling_scale"),
        ("doublet_purity", True, "doublet_purity"),
        ("lambda_plus", repr(plan_24.lambda_plus), "lambda_plus"),
        ("coupling_scale", math.inf, "coupling_scale"),
        ("predicted_peak", "nan", "predicted_peak"),
        ("frequencies", ["1.0"] + list(plan_24.frequencies[1:]), "frequencies"),
    ]
    for key, value, named in corruptions:
        data = plan_24.to_dict()
        data[key] = value
        with pytest.raises(ConfigError, match=named):
            TransferPlan.from_dict(data)
    data = plan_24.to_dict()
    del data["theta"]
    with pytest.raises(ConfigError):
        TransferPlan.from_dict(data)


def test_plan_config_carries_frequencies_and_phase(plan_24):
    cfg = plan_config(plan_24)
    assert cfg.coupling_phase == pytest.approx(plan_24.eta_star)
    np.testing.assert_array_equal(cfg.frequencies, plan_24.frequencies)
    custom = plan_config(plan_24, eta=0.0)
    assert custom.coupling_phase == 0.0


def test_qubit_curve_rejects_unnormalized_state(plan_24):
    # a NaN or inf norm fails the check too: it is `not <= tol`, not `> tol`
    for alpha, beta in ((0.9, 0.9), (math.nan, 1.0), (0.6, complex(0.8, math.nan)),
                        (math.inf, 0.0)):
        with pytest.raises(ConfigError, match="normalized"):
            qubit_fidelity_curve(plan_24, alpha, beta, [0.0])
