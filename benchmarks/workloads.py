"""The benchmark's three workloads and their correctness gates.

Each workload is a fixed list of cases; one case is one op. The seed picks
only the qubit amplitudes, the fig5 seed and the initial superpositions; the
case grids are fixed. `run` is the timed part and calls gfsim's public API
through the package namespace, so a traced pass sees every call. `check`
runs afterwards, untimed, and returns the names of the gates the op failed.

  figures       every paper preset through gfsim.cli.main, in-process: what
                a reader runs to regenerate the figures. fig5's loss ensemble
                dominates, so it moves with the open_system path and with
                the cli table writers.
  design_scan   closed-system library use over 855 transfer designs and two
                resonant walks: model, dynamics, protocol and analytics do
                all the work, open_system and cli none.
  master_check  verified integrate_master calls: one long integration with
                checkpoint validation and step halving, on both the step
                loop and the matrix-power path, not an ensemble over a grid.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import tempfile
import warnings

import numpy as np

import gfsim
import gfsim.cli
from gfsim.errors import RegimeError

import reference as ref

# A failure of this gate is the known defect of ROADMAP item 3 (a doublet
# below float64 resolution planned without refusal). It counts as a failed
# op; it does not make the run's outputs unverifiable.
KNOWN_DEFECT_GATES = frozenset({"plan_resolvable"})

# README "Known limitations", carried here as the values the gates expect.
FIG3A_DOCUMENTED_PEAK = 0.881      # criterion 4: (1 -> 5) saturates at 0.881
FIG3A_PEAK_ROUNDING = 5e-4         # the README states three digits


def _haar_qubit(rng):
    cos_t = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return math.sqrt((1.0 + cos_t) / 2.0), complex(
        np.exp(1j * phi) * math.sqrt((1.0 - cos_t) / 2.0))


class Workload:
    name = ""

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.workdir = workdir
        self.diagnostics = {}
        self.notes = []

    def warmup_cases(self):
        return self.cases

    def refused(self, result):
        return False

    def _diag_max(self, key, value):
        self.diagnostics[key] = max(self.diagnostics.get(key, 0.0), float(value))


# ---------------------------------------------------------------------------
class Figures(Workload):
    name = "figures"

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        rng = np.random.default_rng(seed)
        alpha, beta = _haar_qubit(rng)
        self.fig5_seed = int(rng.integers(1, 2 ** 31))
        fig5 = ["dissipation", "--preset", "fig5", "--seed", str(self.fig5_seed)]
        self.fig5_samples = 200                 # the preset's ensemble size
        if smoke:
            self.fig5_samples = 8
            fig5 += ["--samples", "8", "--grid", "1e-3:1:4"]
        self.presets = [
            ("fig1", ["resonant-walk", "--preset", "fig1"], ".csv"),
            ("fig2", ["spectrum", "--preset", "fig2"], ".csv"),
            ("fig3a", ["transfer", "--preset", "fig3a"], ".csv"),
            ("fig3b", ["transfer", "--preset", "fig3b"], ".csv"),
            ("fig4", ["qubit", "--preset", "fig4", "--alpha", repr(alpha),
                      "--beta", repr(beta)], ".csv"),
            ("plan_fig3b", ["plan", "--preset", "fig3b", "--format", "json"], ".json"),
            ("fig5", fig5, ".csv"),
        ]
        self.cases = ["set"]
        self.reference = None       # file name -> bytes of the first set
        self._verdicts = {}         # digest of a set -> failed content gates

    def run(self, case, tracer):
        out_dir = tempfile.mkdtemp(prefix="figures-", dir=self.workdir)
        codes = {}
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for name, argv, ext in self.presets:
                full = argv + ["--out", os.path.join(out_dir, name + ext)]
                if tracer is None:
                    codes[name] = gfsim.cli.main(full)
                else:
                    with tracer.span(f"cli.main.{name}"):
                        codes[name] = gfsim.cli.main(full)
        return out_dir, codes

    def check(self, case, result, tracer):
        out_dir, codes = result
        files = {}
        for entry in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, entry), "rb") as handle:
                files[entry] = handle.read()
        shutil.rmtree(out_dir)
        if tracer is not None:
            # measured from the files: every CSV is a metadata line, a
            # header and one line per row
            tracer.count("cli.bytes_written", sum(len(b) for b in files.values()))
            tracer.count("cli.rows_written", sum(b.count(b"\n") - 2
                                                 for n, b in files.items() if n.endswith(".csv")))
        failed = {"cli_exit_zero": any(code != 0 for code in codes.values())}
        if self.reference is None:
            self.reference = files
        failed["bytes_identical"] = files != self.reference
        digest = hashlib.sha256(repr(sorted(files.items())).encode()).hexdigest()
        if digest not in self._verdicts:
            self._verdicts[digest] = self._content_gates(files)
        failed.update(self._verdicts[digest])
        return failed

    def _content_gates(self, files):
        failed = {}
        fig3b = _read_csv(files.get("fig3b.csv"))
        fig3a = _read_csv(files.get("fig3a.csv"))
        fig4 = _read_csv(files.get("fig4.csv"))
        if fig4 is not None:
            self._diag_max("protocol.closed_form_dev_max",
                           fig4[0]["max_closed_form_deviation"])
        failed["fig3b_peak"] = fig3b is None or not max(fig3b[1][:, 1]) >= 0.99
        # criterion 4, documented value: not a failure, a pinned number
        failed["fig3a_documented_peak"] = fig3a is None or not (
            abs(float(np.max(fig3a[1][:, 1])) - FIG3A_DOCUMENTED_PEAK) <= FIG3A_PEAK_ROUNDING
            and fig3a[0].get("warnings"))
        alpha, beta = gfsim.sample_qubit_states(self.fig5_samples, self.fig5_seed)
        exact_ok, floor_ok = True, True
        for pair in ("m1n3", "m2n5"):
            table = _read_csv(files.get(f"fig5_{pair}.csv"))
            if table is None:
                exact_ok = floor_ok = False
                continue
            meta, rows = table
            plan = meta["plan"]
            h = ref.chain_hamiltonian(plan["frequencies"], plan["coupling_scale"],
                                      plan["eta_star"])
            exact = ref.nojump_mean_fidelity(
                h, plan["source"], plan["target"], plan["transfer_time"],
                rows[:, 0] * plan["coupling_scale"], alpha, beta)
            dev = float(np.max(np.abs(exact - rows[:, 1])))
            self._diag_max("open_system.exact_ref_dev_max", dev)
            exact_ok = exact_ok and dev <= ref.FIG5_TOLERANCE
            # criterion 6, documented value: the damped floor is E|alpha|^2
            floor = float(np.mean(np.abs(alpha) ** 2))
            floor_ok = floor_ok and abs(rows[-1, 1] - floor) <= ref.FIG5_TOLERANCE
        failed["fig5_exact"] = not exact_ok
        failed["fig5_documented_floor"] = not floor_ok
        return failed


def _read_csv(data):
    """(metadata, rows) of one gfsim CSV, or None if it is missing."""
    if data is None:
        return None
    lines = data.decode().splitlines()
    meta = json.loads(lines[0][2:])
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
    return meta, rows


# ---------------------------------------------------------------------------
class DesignScan(Workload):
    name = "design_scan"
    SWEEP_POINTS = 401
    WALK_COUPLING = 0.05
    WALK_TIMES = np.arange(0.0, 85.0)   # omega_1*t, fig1's span

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        rng = np.random.default_rng(seed)
        sizes = (6,) if smoke else range(3, 13)
        couplings = (1.3e-3,) if smoke else (5e-4, 1.3e-3, 3e-3)
        self.cases = []
        for coupling in couplings:
            for n_sites in sizes:
                for m in range(1, n_sites + 1):
                    for n in range(m + 1, n_sites + 1):
                        alpha, beta = _haar_qubit(rng)
                        self.cases.append(("plan", n_sites, coupling, m, n, alpha, beta))
        for n_sites in ((10,) if smoke else (10, 20)):
            self.cases.append(("walk", n_sites))

    def run(self, case, tracer):
        if case[0] == "walk":
            return self._walk(case[1])
        _, n_sites, coupling, m, n, alpha, beta = case
        template = gfsim.ArrayConfig(n_sites, np.ones(n_sites), coupling)
        with warnings.catch_warnings():
            # purity warnings are counted by the tracer, not printed
            warnings.simplefilter("ignore")
            try:
                plan = gfsim.make_plan(template, m, n)
            except RegimeError:
                return None      # a refusal is a valid outcome
        spec = gfsim.decompose(
            gfsim.build_hamiltonian(gfsim.plan_config(plan)))
        times = np.linspace(0.0, 2.0 * plan.transfer_time, self.SWEEP_POINTS)
        probs = gfsim.transfer_probability(m, n, spec, times)
        numeric, closed = gfsim.qubit_fidelity_curve(plan, alpha, beta, times)
        return plan, times, probs, numeric, closed

    def _walk(self, n_sites):
        cfg = gfsim.ArrayConfig(n_sites, np.ones(n_sites), self.WALK_COUPLING)
        spec = gfsim.decompose(gfsim.build_hamiltonian(cfg))
        start = gfsim.single_photon_state(n_sites, 1)
        out = []
        for t in self.WALK_TIMES:
            state = gfsim.evolve(start, spec, float(t))
            profile = gfsim.truncated_coherent_amplitudes(
                self.WALK_COUPLING, float(t), n_sites)
            out.append((float(t), state.amplitudes, profile.amplitudes))
        return out

    def refused(self, result):
        return result is None

    def check(self, case, result, tracer):
        if case[0] == "walk":
            return self._check_walk(case[1], result)
        if result is None:
            return {}
        plan, times, probs, numeric, closed = result
        h = ref.chain_hamiltonian(plan.frequencies, plan.coupling_scale, plan.eta_star)
        margin = ref.resolvability_margin(plan.theta, h)
        self._diag_max("protocol.closed_form_dev_max", np.max(np.abs(numeric - closed)))
        # e^{-iHt} from two float64 solvers: eigenvalue errors ~ n*eps*||H||
        # dephase by that times t, and the doublet's eigenvectors rotate by
        # ~ n*eps*||H||/(2 theta) = n/margin; |dP| <= 2|d amplitude|.
        n = plan.n_sites
        tol = 2.0 * n * (ref.EPS * ref.spectral_norm(h) * times[-1] + 2.0 / margin) + 1e-12
        u_ref = ref.transfer_amplitudes(h, plan.source, plan.target, times)
        curve_dev = float(np.max(np.abs(np.abs(u_ref) ** 2 - probs)))
        return {
            "plan_resolvable": margin < ref.RESOLVABILITY_FACTOR,
            "transfer_curve_reference": not curve_dev <= tol,
        }

    def _check_walk(self, n_sites, result):
        h = ref.chain_hamiltonian(np.ones(n_sites), self.WALK_COUPLING)
        norm = ref.spectral_norm(h)
        ok = True
        documented = 0.0
        for t, amplitudes, closed in result:
            rotated = amplitudes[1:] * np.exp(1j * t)
            dev = float(np.max(np.abs(rotated - closed)))
            # rounding of the two float64 routes: n eigenphases each off by
            # ~eps*||H||*t, plus O(n*eps) from the basis changes
            slack = n_sites * ref.EPS * (1.0 + norm * t)
            bound = ref.walk_deviation_bound(self.WALK_COUPLING, t, n_sites)
            ok = ok and dev <= bound + slack
            if abs(amplitudes[-1]) ** 2 < 1e-8:
                documented = max(documented, dev)
        # criterion 1 (README known limitation): deviation where P_N < 1e-8
        self._diag_max("analytics.walk_dev_max_where_PN_below_1e-8", documented)
        return {"walk_within_boundary_bound": not ok}


# ---------------------------------------------------------------------------
class MasterCheck(Workload):
    name = "master_check"
    N_SITES = 6
    COUPLING = 1.3e-3
    DT = 1e-3

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        rng = np.random.default_rng(seed)
        j = self.COUPLING
        # (pair of the switching profile, gamma, t_end); dt = 1e-3 throughout.
        # The matrix-power run is made on each of the five preset profiles,
        # so that five of a pass's eight ops are alike and the median op lies
        # inside that group instead of between two single cases.
        specs = [
            ((1, 3), 0.1 * j, 1e3),    # criterion 7, lossy: step loop, 1e6 steps
            ((1, 3), 0.0, 1e3),        # criterion 7, lossless
            ((2, 4), 0.01, 50.0),      # strong loss, 5e4 steps
        ] + [(pair, 0.1 * j, 1e4)      # 1e7 steps: matrix-power path
             for pair in ((1, 3), (1, 4), (1, 5), (2, 4), (2, 5))]
        if smoke:
            specs = [((1, 3), 0.1 * j, 1e4), ((2, 4), 0.01, 5.0)]
        self.cases = []
        for (m, n), gamma, t_end in specs:
            alpha, beta = _haar_qubit(rng)
            freqs = gfsim.switching_frequencies(1.0, m, n, self.N_SITES)
            h = gfsim.build_hamiltonian(
                gfsim.ArrayConfig(self.N_SITES, freqs, j))
            rho0 = gfsim.DensityMatrix.from_state(
                gfsim.qubit_state(self.N_SITES, m, alpha, beta))
            exact = ref.factorized_master_state(
                rho0.matrix, ref.chain_hamiltonian(freqs, j), gamma, t_end)
            self.cases.append((h, rho0, gamma, t_end, exact))

    def warmup_cases(self):
        # the two long step-loop runs (t_end = 1e3) need no warming; the
        # cheap cases load everything the integrator touches
        return [c for c in self.cases if c[3] != 1e3]

    def run(self, case, tracer):
        h, rho0, gamma, t_end, _ = case
        return gfsim.integrate_master(rho0, h, gamma, t_end, self.DT)

    def check(self, case, run, tracer):
        dev = float(np.max(np.abs(run.final.matrix - case[4])))
        self._diag_max("open_system.exact_ref_dev_max", dev)
        return {"master_converged": not run.converged,
                "master_exact": not dev <= ref.MASTER_TOLERANCE}


WORKLOADS = {w.name: w for w in (Figures, DesignScan, MasterCheck)}
