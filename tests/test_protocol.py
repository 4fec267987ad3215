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

from gfsim.errors import ConfigError, DoubletNotResolvedError, RegimeError
from gfsim.model import (ArrayConfig, build_hamiltonian, config_and_pair, config_to_dict,
                         switching_frequencies, wrap_phase)
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


def stored_fields(doc):
    """The constructor's arguments out of a plan document: its profile
    becomes the plan's config, an ArrayConfig, which checks it."""
    stored = {f.name: doc[f.name] for f in fields(TransferPlan) if f.init and f.name != "config"}
    stored["config"] = ArrayConfig(doc["n_sites"], doc["frequencies"], doc["coupling_scale"])
    return stored


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
        "source", "target", "config", "lambda_plus", "lambda_minus",
        "doublet_purity", "plus_overlap_sign", "predicted_peak"]
    # the profile is read off the config, not copied
    assert p.frequencies is p.config.frequencies
    assert (p.n_sites, p.coupling_scale) == (p.config.n_sites, p.config.coupling_scale)
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


# (N, m, n, C, J, refusal): valid configs whose partitioning float64 cannot
# carry. A level on an exact pole of a side chain (the profile's O(1)
# detunings round to multiples of ulp(C)), null-vector squares that
# underflow (norm 0) and a negative norm under the square root (J far above
# C) raised ZeroDivisionError or ValueError; squared bonds that overflow
# raised a numpy warning (filterwarnings = error) before their refusal.
# Amplitude squares that overflow (a NaN purity) and a level past float
# range reached TransferPlan's field checks as a ConfigError. The last four
# have NaN doublet amplitudes, beside a finite symmetric overlap in the first
# two: the finiteness gate must come before the purity and splitting gates,
# or they are refused as "purity 0.6220 < 0.9", "purity 0.8249 < 0.9" and
# splitting, values float64 did not measure.
NOT_FINITE = r"partitioning failed in float64 \(a doublet level or amplitude is not finite\)"
EXTREME_SCALES = [
    (6, 1, 3, 1e18, 0.0013, "for 1 -> 3: partitioning failed in float64"),
    (10, 8, 10, 1e15, 0.0013, "for 8 -> 10: partitioning failed in float64"),
    (6, 2, 4, 1.0, 1e-100, "for 2 -> 4: partitioning failed in float64"),
    (3, 1, 3, 1e-10, 1e16, "for 1 -> 3: partitioning failed in float64"),
    (7, 4, 7, 1.0, 1e200, "levels of sites 4 and 7 do not settle"),
    (2, 1, 2, 1.0, 1e200, "for 1 -> 2: partitioning failed in float64"),
    (4, 1, 4, 1.0, 1e131, "for 1 -> 4: partitioning failed in float64"),
    (3, 2, 1, 2.750647340889271e-41, 1.160038332294931e+84, NOT_FINITE),
    (3, 2, 3, 1.53927493052129e-117, 3.1485532531932503e+100, NOT_FINITE),
    (2, 2, 1, 1.99859684446354e+288, 2.6130656963674115e+216, NOT_FINITE),
    (2, 1, 2, 6.038324756280235e+297, 1.7010019728502907e+208, NOT_FINITE),
]


@pytest.mark.parametrize("n_sites, m, n, base, coupling, refusal", EXTREME_SCALES)
def test_extreme_scales_are_refused(n_sites, m, n, base, coupling, refusal):
    with pytest.raises(DoubletNotResolvedError, match=refusal):
        make_plan(resonant_template(n_sites, coupling, base), m, n)


def test_magnitude_sweep_plans_or_refuses():
    # N from 2 to 10, a random pair, J and C log-uniform on [1e-300, 1e300]:
    # each draw builds H and a plan or refuses it. A valid config is refused
    # as a regime (RegimeError), never as a config error; a numpy warning or
    # any other exception fails the test, a purity warning does not.
    rng = np.random.default_rng(20261020)
    outcomes = {"built": 0, "refused": 0}
    for _ in range(2000):
        n_sites = int(rng.integers(2, 11))
        m, n = (int(k) + 1 for k in rng.choice(n_sites, 2, replace=False))
        coupling, base = 10.0 ** rng.uniform(-300.0, 300.0, 2)
        config = ArrayConfig(n_sites, switching_frequencies(base, m, n, n_sites),
                             coupling)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DoubletPurityWarning)
            try:
                build_hamiltonian(config)
                make_plan(config, m, n)
                outcomes["built"] += 1
            except RegimeError:
                outcomes["refused"] += 1
    assert outcomes["built"] > 0 and outcomes["refused"] > 0, outcomes


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


def test_real_closed_form_equals_the_complex_amplitude_form(plan_14, plan_25):
    # |a2 + b2 c|^2 with c = -i s e^{-i phi} sin(theta t) is a2^2 + b2^2 S^2
    # - 2 a2 b2 s sin(phi) S; the two evaluations differ by rounding of
    # terms below (a2 + b2)^2 = 1: a few eps
    for plan in (plan_14, plan_25):
        times = np.linspace(0.0, 2.0 * plan.transfer_time, 2001)
        for (alpha, beta), eta in zip(REFERENCE_QUBITS, (None, 0.3, -2.0, 3.0)):
            _, closed = qubit_fidelity_curve(plan, alpha, beta, times, eta=eta)
            used = plan.eta_star if eta is None else wrap_phase(eta)
            phi = plan.lambda_mean * times + (plan.target - plan.source) * used
            c = -1j * plan.plus_overlap_sign * np.exp(-1j * phi) * np.sin(plan.theta * times)
            a2, b2 = abs(alpha) ** 2, abs(beta) ** 2
            assert np.max(np.abs(closed - np.abs(a2 + b2 * c) ** 2)) <= 8 * np.finfo(float).eps


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
                # the JSON document is the plan's values bit for bit
                doc = plan.to_dict()
                again = json.loads(json.dumps(doc))
                assert list(again) == list(doc)
                for key, value in doc.items():
                    assert type(again[key]) is type(value), key
                    assert np.asarray(again[key]).tobytes() == np.asarray(value).tobytes(), key
                # and its derived keys are what the constructor derives from
                # its stored ones (the config's values are three of the keys)
                rebuilt = TransferPlan(**stored_fields(again))
                for key in doc:
                    ours, theirs = getattr(rebuilt, key), getattr(plan, key)
                    assert type(ours) is type(theirs), key
                    assert np.asarray(ours).tobytes() == np.asarray(theirs).tobytes(), key
                built += 1
    assert built > 50


def test_plan_rejects_corrupt_stored_fields(plan_24):
    # (key, corrupted value, what the refusal names)
    corruptions = [
        ("source", 1.5, "integer"),
        ("source", True, "integer"),
        ("coupling_scale", True, "coupling_scale"),
        ("doublet_purity", True, "doublet_purity"),
        ("lambda_plus", repr(plan_24.lambda_plus), "lambda_plus"),
        ("coupling_scale", math.inf, "coupling_scale"),
        ("predicted_peak", "nan", "predicted_peak"),
        ("frequencies", ["1.0"] + list(plan_24.frequencies[1:]), "frequencies"),
        ("frequencies", [[1.0, 2.0], 1.0, 1.0, 1.0, 1.0, 1.0], "frequencies"),
        # the range checks (the named texts are regular expressions)
        ("source", 7, "sites"),                           # beyond N = 6
        ("target", 2, "sites"),                           # equals the source
        ("coupling_scale", -0.0013, "must be > 0"),
        ("doublet_purity", 1.5, r"must lie in \[0, 1\]"),
        ("plus_overlap_sign", 0, r"\+1 or -1"),
        ("lambda_plus", plan_24.lambda_minus, "theta must be > 0"),
    ]
    # a corrupt profile or J is refused as the plan's config is built
    for key, value, named in corruptions:
        doc = plan_24.to_dict()
        doc[key] = value
        with pytest.raises(ConfigError, match=named):
            TransferPlan(**stored_fields(doc))


# profiles refused with one ArrayConfig message whichever way they come in
BAD_PROFILES = [
    [1.0, True, 1.0, 1.0, 1.0, 1.0],                # a bool
    [1.0, "1.5", 1.0, 1.0, 1.0, 1.0],               # a numeric string
    [1.0, math.nan, 1.0, 1.0, 1.0, 1.0],
    [1.0, math.inf, 1.0, 1.0, 1.0, 1.0],
    [[1.0, 2.0], 1.0, 1.0, 1.0, 1.0, 1.0],          # ragged
    [1.0],                                          # one entry
    [[1.0] * 6, [1.5] * 6],                         # 2-d
]


def test_one_profile_rule(plan_24):
    for profile in BAD_PROFILES:
        with pytest.raises(ConfigError, match="^frequencies must be") as direct:
            ArrayConfig(6, profile, 0.0013)
        # as a --config JSON list, and as a hand-built plan's config
        text = json.dumps({"n_sites": 6, "frequencies": profile, "J": 0.0013})
        with pytest.raises(ConfigError) as from_json:
            config_and_pair(json.loads(text))
        with pytest.raises(ConfigError) as in_plan:
            TransferPlan(**stored_fields(dict(plan_24.to_dict(), frequencies=profile)))
        assert str(from_json.value) == str(in_plan.value) == str(direct.value), profile
    # a plan's config is an ArrayConfig, not its schema mapping
    stored = dict(stored_fields(plan_24.to_dict()), config=config_to_dict(plan_24.config))
    with pytest.raises(ConfigError, match="plan config must be an ArrayConfig, got dict"):
        TransferPlan(**stored)


def test_plan_config_carries_the_plan_and_is_made_once(plan_24):
    cfg = plan_config(plan_24)
    assert cfg is plan_24.config
    np.testing.assert_array_equal(cfg.frequencies, plan_24.frequencies)
    assert (cfg.n_sites, cfg.coupling_scale) == (plan_24.n_sites, plan_24.coupling_scale)
    assert plan_config(plan_24) is cfg
    # the phase is the qubit score's, not the config's
    with pytest.raises(TypeError):
        plan_config(plan_24, eta=0.0)
    # the plan document writes the config's values, not the config
    assert plan_24.to_dict() == TransferPlan(**stored_fields(plan_24.to_dict())).to_dict()
    assert "config" not in plan_24.to_dict()


def test_one_spectrum_per_plan(template, monkeypatch):
    # make_plan runs no eigensolver and builds the plan's one ArrayConfig
    # after its gates (none for a refused plan); a transfer curve and a
    # qubit curve of the plan then decompose its Hamiltonian once, and both
    # equal a cold computation bit for bit
    calls, configs = [], []
    eigh, check = np.linalg.eigh, ArrayConfig.__post_init__
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
    monkeypatch.setattr(ArrayConfig, "__post_init__", lambda c: configs.append(c) or check(c))
    plan = make_plan(template, 2, 4)
    with pytest.raises(DoubletNotResolvedError):
        make_plan(template, 1, 6)
    assert configs == [plan.config] and plan_config(plan) is plan.config
    assert not calls
    cold = TransferPlan(**stored_fields(plan.to_dict()))  # same values, a new config
    times = np.linspace(0.0, 2.0 * plan.transfer_time, 401)
    probs = transfer_probability(2, 4, decompose(build_hamiltonian(plan_config(plan))), times)
    numeric, closed = qubit_fidelity_curve(plan, 0.6, 0.8j, times)
    assert len(calls) == 1
    cold_probs = transfer_probability(2, 4, decompose(build_hamiltonian(plan_config(cold))),
                                      times)
    cold_numeric, cold_closed = qubit_fidelity_curve(cold, 0.6, 0.8j, times)
    assert len(calls) == 2
    assert probs.tobytes() == cold_probs.tobytes()
    assert numeric.tobytes() == cold_numeric.tobytes()
    assert closed.tobytes() == cold_closed.tobytes()


def test_qubit_curve_rejects_unnormalized_state(plan_24):
    # a NaN or inf norm fails the check too: it is `not <= tol`, not `> tol`
    for alpha, beta in ((0.9, 0.9), (math.nan, 1.0), (0.6, complex(0.8, math.nan)),
                        (math.inf, 0.0)):
        with pytest.raises(ConfigError, match="normalized"):
            qubit_fidelity_curve(plan_24, alpha, beta, [0.0])
    # amplitudes are numbers: a numeric string or a bool is not scored, and
    # an array or None is a config error, not a bare TypeError
    for alpha, beta in (("0.6", "0.8"), (True, False), (np.array([0.6]), 0.8),
                        (0.6, np.array([0.8])), (None, 1.0)):
        with pytest.raises(ConfigError, match="qubit amplitudes must be two numbers or two"):
            qubit_fidelity_curve(plan_24, alpha, beta, [1.0])
