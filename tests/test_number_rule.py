"""One number rule for every public argument: a bool or a numeric string is
not a number, and neither is a list where one number belongs, nor a matrix
with rows of unequal length.

Each row names an entry point and its argument, a call that takes one value
there, a value the call accepts, and the non-numbers it refuses. Every
refused value below was scored as a number, or reached numpy, before the
rule reached its entry point, so each row shows a refusal that is new; a
later public argument is one more row.
"""

import numpy as np
import pytest

from gfsim.analytics import truncated_coherent_amplitudes
from gfsim.dynamics import (ExcitationState, decompose, evolve, qubit_state, single_photon_state,
                            transfer_amplitude, transfer_probability)
from gfsim.errors import ConfigError
from gfsim.model import (ArrayConfig, HamiltonianMatrix, build_couplings, build_hamiltonian,
                         switching_frequencies, wrap_phase)
from gfsim.open_system import (DensityMatrix, average_transfer_fidelity, integrate_master,
                               reference_qubit_states)
from gfsim.protocol import make_plan, qubit_fidelity_curve

from conftest import resonant_template

SPEC = decompose(build_hamiltonian(ArrayConfig(5, np.ones(5), 0.1)))
H4 = build_hamiltonian(ArrayConfig(4, np.ones(4), 0.1))
SLOW = build_hamiltonian(ArrayConfig(4, np.full(4, 1e-6), 1e-6))  # dt = 1 converges
RHO = DensityMatrix.from_state(single_photon_state(4, 1))
PLAN = make_plan(resonant_template(), 2, 4)
STATE = single_photon_state(5, 1)

# entry point and argument: (call of one value, an accepted value, what the
# refusal names, the refused values)
REFUSALS = {
    "truncated_coherent_amplitudes.coupling": (
        lambda x: truncated_coherent_amplitudes(x, 1.0, 10), 0.05, "coupling", ["0.05", True]),
    "truncated_coherent_amplitudes.t": (
        lambda x: truncated_coherent_amplitudes(0.05, x, 10), 1.0, "time", ["1.0", True]),
    "integrate_master.gamma": (
        lambda x: integrate_master(RHO, H4, x, 10.0, 0.01), 0.0, "decay rate", ["0.0", False]),
    "integrate_master.t_end": (
        lambda x: integrate_master(RHO, H4, 0.0, x, 0.01), 10.0, "t_end", ["10", True]),
    "integrate_master.dt": (
        lambda x: integrate_master(RHO, SLOW, 0.0, 10.0, x), 0.01, "dt", ["0.01", True]),
    "wrap_phase.eta": (wrap_phase, 0.4, "phase", ["0.4", True]),
    "qubit_fidelity_curve.eta": (
        lambda x: qubit_fidelity_curve(PLAN, 0.6, 0.8, [1.0], eta=x), 0.4, "phase",
        ["0.4", True]),
    "build_couplings.scale": (lambda x: build_couplings(x, 5), 0.1, "coupling scale",
                              ["0.1", True]),
    "switching_frequencies.base": (lambda x: switching_frequencies(x, 1, 3, 6), 1.0,
                                   "base frequency", ["1.0", True]),
    "qubit_state.alpha_beta": (lambda x: qubit_state(5, 3, *x), (0.6, 0.8), "amplitudes",
                               [("0.6", "0.8"), (True, False)]),
    "average_transfer_fidelity.gamma_over_J": (
        lambda x: average_transfer_fidelity(PLAN, x, *reference_qubit_states()), [0.1, 1.0],
        "gamma_over_J", ["0.1", True, ["0.1", True]]),
    "transfer_amplitude.t": (lambda x: transfer_amplitude(1, 3, SPEC, x), [1.0, 2.0], "times",
                             ["1.0", True, ["1.0", "2"], [1.0, True]]),
    "transfer_probability.t": (lambda x: transfer_probability(1, 3, SPEC, x), [1.0, 2.0],
                               "times", ["1.0", True, ["1.0", "2"]]),
    "evolve.t": (lambda x: evolve(STATE, SPEC, x), 1.0, "t", ["1.0", True]),
    "qubit_fidelity_curve.times": (lambda x: qubit_fidelity_curve(PLAN, 0.6, 0.8, x), [1.0],
                                   "times", ["1.0", True, ["1.0"]]),
    "HamiltonianMatrix.matrix": (
        HamiltonianMatrix, [[1.0, 0.1], [0.1, 1.0]], "Hamiltonian entries",
        [[["1", "0.1"], ["0.1", "1"]], [[True, False], [False, True]],
         np.array([[True, False], [False, True]])]),
    "decompose.hamiltonian": (
        decompose, [[1.0, 0.1], [0.1, 1.0]], "Hamiltonian entries",
        [[["1", "0.1"], ["0.1", "1"]], [[True, False], [False, True]]]),
    "DensityMatrix.matrix": (
        DensityMatrix, [[1.0, 0.0], [0.0, 0.0]], "density matrix entries",
        [[["1", "0"], ["0", "0"]], [[True, False], [False, False]],
         np.array([["1", "0"], ["0", "0"]])]),
    "ExcitationState.amplitudes": (ExcitationState, [0.0, 1.0], "amplitudes",
                                   [["0", "1"], [False, True], np.array([False, True])]),
    # a sequence of sites holds integers only; numpy casts a bool among
    # them to site 1
    "transfer_amplitude.target_site": (
        lambda x: transfer_amplitude(1, x, SPEC, 1.0), range(1, 6), "target_site",
        [[True, 2], (3, True), [np.True_, 2]]),
    # a ragged matrix is refused before numpy raises a bare ValueError on it
    "HamiltonianMatrix.rows": (HamiltonianMatrix, [[1.0, 0.1], [0.1, 1.0]],
                               "Hamiltonian entries", [[[1.0, 0.1], [0.1]]]),
    "DensityMatrix.rows": (DensityMatrix, [[1.0, 0.0], [0.0, 0.0]], "density matrix entries",
                           [[[1.0, 0.0], [0.0]]]),
}

CASES = [(entry, value) for entry, row in REFUSALS.items() for value in row[3]]


@pytest.mark.parametrize("entry", sorted(REFUSALS))
def test_each_row_accepts_its_number(entry):
    call, good, _, _ = REFUSALS[entry]
    call(good)


@pytest.mark.parametrize("entry, value", CASES,
                         ids=[f"{entry}-{type(value).__name__}{i}"
                              for i, (entry, value) in enumerate(CASES)])
def test_a_non_number_is_refused(entry, value):
    call, _, named, _ = REFUSALS[entry]
    with pytest.raises(ConfigError, match=f"^{named} must be"):
        call(value)


# a list where one number belongs: a ConfigError naming the argument, where
# a float(...) cast used to raise a bare TypeError
SCALARS = {
    "truncated_coherent_amplitudes.coupling": ([0.05], "coupling"),
    "integrate_master.dt": ([0.01], "dt"),
    "wrap_phase.eta": ([0.4], "phase"),
    "build_couplings.scale": ([0.1], "coupling scale"),
    "switching_frequencies.base": ([1.0], "base frequency"),
    "evolve.t": ([1.0], "t"),
    "qubit_state.alpha_beta": (([0.6], [0.8]), "amplitudes"),
}


@pytest.mark.parametrize("entry", sorted(SCALARS))
def test_a_list_is_not_a_scalar(entry):
    value, named = SCALARS[entry]
    with pytest.raises(ConfigError, match=f"^{named} must be"):
        REFUSALS[entry][0](value)


def test_one_qubit_is_two_numbers():
    # the qubit curve scores one qubit: two ensembles are refused, not
    # broadcast against the time grid
    with pytest.raises(ConfigError, match="two numbers here, not ensembles"):
        qubit_fidelity_curve(PLAN, [0.6, 0.8], [0.8, 0.6], [1.0, 2.0])
    # two numbers are one state of the loss study: the same cell values as a
    # one-state ensemble, with no spread
    one = average_transfer_fidelity(PLAN, [0.0, 0.1], 0.6, 0.8j)
    ensemble = average_transfer_fidelity(PLAN, [0.0, 0.1], [0.6], [0.8j])
    assert one.samples == ensemble.samples == 1
    assert one.mean_fidelity.tobytes() == ensemble.mean_fidelity.tobytes()
    assert not one.stderr.any()
