"""gfsim benchmark: one command, three workloads, every metric and gate.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; gfsim is imported from its src/
(never from an installed copy), with bytecode writing off. The harness is
one process: after a warm-up it repeats whole passes over the workload's
cases until S seconds have passed, timing each op (one figure set, one
design case or one master call) as a closed loop with a single client.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced passes and reports the per-layer metrics of the traced ones, plus the
tracing overhead. Every op is checked against an independent reference (see
workloads.py, reference.py); a failed gate or an unexpected exception fails
the op. Human-readable lines come first; the last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The full result,
with the machine it ran on, goes to benchmarks/out/.

--smoke runs one pass over a reduced case set of the workload; it exists for
the harness's own smoke test and is not a measurement.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# Load comes from this one process; BLAS gets no threads of its own.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The machine's speed drifts over seconds, so cold imports are spread
# through the run (one every SETUP_EVERY_S) rather than made back to back.
COLD_IMPORTS = 7
SETUP_EVERY_S = 4.0
IMPORTTIME_RUNS = 3

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MiB",
}

# Span names whose calls and/or self time are reported, per pass.
_CALLS = ("model.build_hamiltonian", "dynamics.decompose",
          "analytics.truncated_coherent_amplitudes",
          "open_system.average_transfer_fidelity", "open_system.integrate_master")
_SELF = ("model.build_hamiltonian", "dynamics.decompose", "dynamics.transfer_probability",
         "dynamics.evolve", "analytics.truncated_coherent_amplitudes",
         "protocol.make_plan", "protocol.qubit_fidelity_curve",
         "open_system.average_transfer_fidelity", "open_system.integrate_master")
_PRESETS = ("fig1", "fig2", "fig3a", "fig3b", "fig4", "plan_fig3b", "fig5")
_COUNTERS = ("dynamics.time_points", "protocol.plans_attempted", "protocol.plans_built",
             "protocol.plans_refused", "protocol.plans_warned", "open_system.cells",
             "open_system.samples_scored", "open_system.rk4_steps",
             "cli.rows_written", "cli.bytes_written")

PER_LAYER = {
    "setup.numpy_ms": "ms", "setup.scipy_ms": "ms", "setup.gfsim_self_ms": "ms",
    **{f"{name}.calls": "count" for name in _CALLS},
    **{f"{name}.self_ms": "ms" for name in _SELF},
    **{f"cli.main.{p}.self_ms": "ms" for p in _PRESETS},
    **{name: ("B" if name == "cli.bytes_written" else "count") for name in _COUNTERS},
    "protocol.plan_yield": "ratio",
    "trace.overhead_pct": "%",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("figures", "design_scan", "master_check"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one pass over a reduced case set (harness smoke test)")
    return parser.parse_args(argv)


def pin_environment():
    """One thread for BLAS and for gfsim, no bytecode files; children inherit it."""
    os.environ.pop("GF_SIM_THREADS", None)
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def _python(args, timeout=120):
    return subprocess.run([sys.executable, "-B", *args], capture_output=True,
                          text=True, timeout=timeout, check=True)


def cold_import_seconds():
    """Wall time of `import gfsim` in a fresh interpreter, one sample."""
    code = ("import sys, time; sys.path.insert(0, %r); t = time.perf_counter(); "
            "import gfsim; print(time.perf_counter() - t)" % str(SRC))
    return float(_python(["-c", code]).stdout.strip().splitlines()[-1])


def import_breakdown_ms():
    """Self import time of numpy, scipy and gfsim modules (python -X importtime)."""
    code = "import sys; sys.path.insert(0, %r); import gfsim" % str(SRC)
    totals = {"numpy": 0.0, "scipy": 0.0, "gfsim": 0.0}
    for line in _python(["-X", "importtime", "-c", code]).stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        try:
            self_us = float(parts[0].split(":")[1])
        except ValueError:
            continue            # the header line
        top = parts[2].strip().split(".")[0]
        if top in totals:
            totals[top] += self_us / 1000.0
    return totals


def blas_runtime_threads():
    """Thread count each bundled OpenBLAS reports (numpy's and scipy's)."""
    import ctypes
    import glob

    import numpy as np

    site = Path(np.__file__).resolve().parent.parent
    found = {}
    for path in sorted(glob.glob(str(site / "*.libs" / "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).parent.name] = fn()
                break
    return found or "not found"


def machine_info():
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {var: os.environ.get(var) for var in _THREAD_VARS},
        "blas_threads_runtime": blas_runtime_threads(),
    }


def run_passes(workload, seconds, trace, smoke, tracer, between_ops):
    """Warm up, then whole passes until `seconds` of wall time have passed.

    Returns the op records (pass index, traced, latency s, failed gates,
    refused), the warm-up records and the gate tallies. With trace, passes
    alternate untraced/traced. between_ops() runs after every op, untimed.
    """
    gates = {}
    records = []

    def one_op(case, pass_index, traced):
        active = tracer if traced else None
        start = time.perf_counter()
        try:
            result = workload.run(case, active)
            error = None
        except Exception as exc:          # an op that raises is a failed op
            result, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        if error is None:
            verdicts = workload.check(case, result, active)
        else:
            verdicts = {"no_exception": True}
            workload.notes.append(error)
        for gate, bad in verdicts.items():
            tally = gates.setdefault(gate, [0, 0])
            tally[0] += 1
            tally[1] += int(bad)
        failed = sorted(g for g, bad in verdicts.items() if bad)
        refused = error is None and workload.refused(result)
        records.append((pass_index, traced, latency, failed, refused))
        between_ops()

    for case in workload.warmup_cases():
        one_op(case, -1, False)
    warm = len(records)

    start = time.perf_counter()
    pass_index = 0
    while True:
        traced = bool(trace) and pass_index % 2 == 1
        if traced:
            tracer.pass_index = pass_index
            tracer.install()
        try:
            for case in workload.cases:
                one_op(case, pass_index, traced)
        finally:
            if traced:
                tracer.uninstall()
        pass_index += 1
        done = smoke or time.perf_counter() - start >= seconds
        if done and (not trace or pass_index >= 2):
            break
    return records[warm:], records[:warm], gates


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "gfsim" / "__init__.py").is_file():
        print(f"error: no gfsim sources under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, str(SRC))
    import gfsim
    if Path(gfsim.__file__).resolve().parent != (SRC / "gfsim").resolve():
        print(f"error: gfsim imported from {gfsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    machine = machine_info()
    for key, value in machine.items():
        print(f"machine {key}: {value}")

    setup = {}
    samples = []
    last_sample = [0.0]

    def sample_setup():
        if args.trace == 0 and time.perf_counter() - last_sample[0] >= SETUP_EVERY_S:
            samples.append(cold_import_seconds())
            last_sample[0] = time.perf_counter()

    if args.trace == 0:
        sample_setup()
    else:
        runs = [import_breakdown_ms() for _ in range(1 if args.smoke else IMPORTTIME_RUNS)]
        for key in ("numpy", "scipy", "gfsim"):
            name = "setup.gfsim_self_ms" if key == "gfsim" else f"setup.{key}_ms"
            setup[name] = statistics.median(r[key] for r in runs)
        setup_note = f"median of {len(runs)} python -X importtime runs"

    tracer = tracing.Tracer()
    with tempfile.TemporaryDirectory(prefix="run-", dir=OUT) as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, workdir)
        records, warmup, gates = run_passes(workload, args.seconds, args.trace,
                                            args.smoke, tracer, sample_setup)
    if args.trace == 0:
        while len(samples) < (1 if args.smoke else COLD_IMPORTS):
            samples.append(cold_import_seconds())
        setup["setup_s"] = statistics.median(samples)
        setup_note = f"median of {len(samples)} cold imports spread through the run"

    attempted = len(records) + len(warmup)
    failed_ops = [r for r in records + warmup if r[3]]
    known = workloads.KNOWN_DEFECT_GATES
    unexpected = sorted({g for r in failed_ops for g in r[3]} - known)
    correct = not unexpected
    refused = sum(1 for r in records + warmup if r[4])

    latencies = [r[2] for r in records if not r[1]]
    untraced_p50 = statistics.median(latencies)
    metrics = {}
    lines = []
    if args.trace == 0:
        values = {
            "setup_s": setup["setup_s"],
            "ops_per_s": len(latencies) / sum(latencies),
            "op_p50_ms": untraced_p50 * 1000.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": values[name], "unit": unit}
        lines.append(f"setup_s: {setup_note}")
        lines.append(f"op_p50_ms: median of n = {len(latencies)} ops")
        if len(latencies) >= 100:
            p90 = statistics.quantiles(latencies, n=10)[8]
            lines.append(f"metric op_p90_ms = {p90 * 1000.0:.6g} ms "
                         f"(n = {len(latencies)} ops)")
        else:
            lines.append(f"metric op_p90_ms: not reported, n = {len(latencies)} ops < 100")
    else:
        traced_passes = sorted({r[0] for r in records if r[1]})
        values = dict(setup)
        table = tracer.per_pass()

        def per_pass(fn):
            return statistics.median(fn(table[p], tracer.counters[p]) for p in traced_passes)

        for name in _CALLS:
            values[f"{name}.calls"] = per_pass(lambda t, c, n=name: t[n][0] if n in t else 0)
        for name in _SELF + tuple(f"cli.main.{p}" for p in _PRESETS):
            values[f"{name}.self_ms"] = per_pass(
                lambda t, c, n=name: t[n][1] / 1e6 if n in t else 0.0)
        for name in _COUNTERS:
            values[name] = per_pass(lambda t, c, n=name: c.get(n, 0))
        attempts = values["protocol.plans_attempted"]
        values["protocol.plan_yield"] = (values["protocol.plans_built"] / attempts
                                         if attempts else 0.0)
        traced_p50 = statistics.median(r[2] for r in records if r[1])
        values["trace.overhead_pct"] = (traced_p50 - untraced_p50) / untraced_p50 * 100.0
        for name, unit in PER_LAYER.items():
            metrics[name] = {"value": values[name], "unit": unit}
        lines.append(f"setup.*: {setup_note}")
        lines.append(f"per-layer values: median over {len(traced_passes)} traced passes, "
                     "each value per pass")
        lines.append(f"protocol.plan_yield: base = {attempts:g} plans attempted per pass")
        lines.append("open_system.rk4_steps: computed from t_end/dt of each call "
                     "(x3 with the dt/2 check), not counted inside the integrator")
        lines.append(f"trace.overhead_pct: op p50 traced {traced_p50 * 1000:.6g} ms vs "
                     f"untraced {untraced_p50 * 1000:.6g} ms")
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    passes = len({r[0] for r in records})
    lines.append(f"ops: {len(records)} timed in {passes} passes + {len(warmup)} warm-up; "
                 f"{refused} refused (RegimeError, a valid outcome)")
    lines.append(f"metric failed_share = {len(failed_ops) / attempted:.6g} "
                 f"({len(failed_ops)} failed / {attempted} attempted)")
    for gate, (checked, bad) in sorted(gates.items()):
        tag = " (known defect, ROADMAP item 3)" if gate in known else ""
        lines.append(f"gate {gate}: {checked} checked, {bad} failed{tag}")
    for key, value in sorted(workload.diagnostics.items()):
        lines.append(f"diagnostic {key} = {value:.3e}")
    for note in workload.notes[:5]:
        lines.append(f"error: {note}")
    for name, entry in metrics.items():
        lines.append(f"metric {name} = {entry['value']:.6g} {entry['unit']}")
    print("\n".join(lines))

    summary = {"correct": correct, "attempted": attempted,
               "failed": len(failed_ops), "metrics": metrics}
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "summary": summary,
              "gates": gates, "diagnostics": workload.diagnostics,
              "unexpected_failures": unexpected, "notes": lines}
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
