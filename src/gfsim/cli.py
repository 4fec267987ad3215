"""Command-line front end: binds configs to experiments, emits figure-ready
CSV tables and JSON plan documents with a full provenance header.

Commands: spectrum, resonant-walk, plan, transfer, qubit, dissipation. One
table, _COMMANDS, gives each its handler, help and flags. Presets give their
sweep grids as the text of a flag (--times or --grid), so a preset's grid
passes the same checks as a user's. Each table starts with a one-line JSON
metadata comment, and each plan document holds a metadata object, carrying
the resolved config, seed, tool version and every assumed parameter, so any
file can be regenerated from its own header. Outputs contain no
timestamps: rerunning with the same flags and seed is bit-identical. Files
are written atomically (temp file in the target directory, then rename) and
get the mode the umask gives a new file. The parser is built once per
process, so repeated in-process main() calls pay for argparse only once.

Exit codes: 0 success, 2 config error, 3 physics-regime refusal (doublet
unresolved, closed form inapplicable), 4 numerical-invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import __version__
from .analytics import truncated_coherent_amplitudes
from .dynamics import decompose, transfer_amplitude, transfer_probability
from .errors import ClosedFormInapplicableError, ConfigError, \
    NumericalInvariantError, RegimeError
from .model import ArrayConfig, build_hamiltonian, config_and_pair, config_to_dict
from .open_system import average_transfer_fidelity, reference_qubit_states, \
    sample_qubit_states
from .protocol import _applied_phase, make_plan, qubit_fidelity_curve

# Flags beyond --config/--preset/--out; each subcommand takes only the ones
# its handler reads, so argparse refuses the rest.
_FLAGS = {
    "source": (("-m", "--source"), {"type": int, "help": "source site (1-based)"}),
    "target": (("-n", "--target"), {"type": int, "help": "target site (1-based)"}),
    "seed": (("--seed",), {"type": int, "help": "RNG seed"}),
    "eta": (("--eta",), {"type": float, "help": "bond phase in radians (default eta*)"}),
    "samples": (("--samples",), {"type": int,
                                 "help": "random qubit states per grid point"}),
    "grid": (("--grid",), {"help": "sweep grid start:end:n (omega_1*t for time "
                                   "sweeps, gamma/J log grid for dissipation)"}),
    "times": (("--times",), {"help": "explicit comma-separated omega_1*t values"}),
    "alpha": (("--alpha",), {"help": "vacuum amplitude (complex literal)"}),
    "beta": (("--beta",), {"help": "photon amplitude (complex literal)"}),
    "states": (("--states",), {"choices": ("haar", "fixed4"), "default": "haar",
                               "help": "dissipation ensemble: Haar samples or "
                                       "the four reference states"}),
    # a plan is one JSON document; every other command writes a CSV table
    "format": (("--format",), {"choices": ("json",), "default": "json",
                               "help": "plan document format (JSON only)"}),
}

# Presets pin every assumed-but-unstated parameter in one auditable place.
# Frequencies are in units of the first cavity's resonance; a grid is the
# text its flag takes: "times" as --times (omega_1*t), "grid" as --grid
# (dissipation: log-spaced gamma/J).
_PRESETS = {
    "fig1": {
        "command": "resonant-walk",
        "config": {"n_sites": 10, "frequencies": {"preset": "resonant", "C": 1.0},
                   "J": 0.05},
        "times": "0,30,40,84",
    },
    "fig2": {
        "command": "spectrum",
        "config": {"n_sites": 10,
                   "frequencies": {"preset": "switching", "C": 1.0, "m": 3, "n": 7},
                   "J": 0.0013},
    },
    "fig3a": {
        "command": "transfer",
        "config": {"n_sites": 6,
                   "frequencies": {"preset": "switching", "C": 1.0, "m": 1, "n": 5},
                   "J": 0.0013},
    },
    "fig3b": {
        "command": "transfer",
        "config": {"n_sites": 6,
                   "frequencies": {"preset": "switching", "C": 1.0, "m": 2, "n": 4},
                   "J": 0.0013},
    },
    "fig4": {
        "command": "qubit",
        "config": {"n_sites": 6,
                   "frequencies": {"preset": "switching", "C": 1.0, "m": 1, "n": 4},
                   "J": 0.0013},
        "alpha": "0.5",
        "beta": "0.8660254037844386",
    },
    "fig5": {
        "command": "dissipation",
        "config": {"n_sites": 6, "frequencies": {"preset": "resonant", "C": 1.0},
                   "J": 0.0013},
        "pairs": [(1, 3), (2, 5)],
        "grid": "1e-3:1:25",
        "samples": 200,
    },
}

_DEFAULT_SWEEP_POINTS = 2001


@dataclass
class ResolvedExperiment:
    """Everything a command handler needs after flag/preset/config merging."""

    config: ArrayConfig
    base: float              # omega_1, checked > 0
    planned: bool            # the config names a switching profile
    pair: tuple | None       # (m, n) if known from preset/config/flags
    preset: dict
    args: argparse.Namespace


def _atomic_write(path: str, text: str) -> None:
    # the temp file is created 0o666 less the umask, as open() would create
    # the target; mkstemp's fixed 0o600 would survive the rename
    parent = os.path.dirname(os.path.abspath(path))
    while True:
        tmp = os.path.join(parent, f".gfsim-{os.urandom(8).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
        except OSError as exc:
            raise ConfigError(f"cannot write {path!r}: {exc}") from exc
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise ConfigError(f"cannot write {path!r}: {exc}") from exc
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(path: str | None, text: str) -> None:
    """The one place output text leaves the CLI: stdout, or an atomic file."""
    if path is None:
        sys.stdout.write(text)
    else:
        _atomic_write(path, text)
        print(f"wrote {path}")


def _dumps(payload, **kwargs) -> str:
    # numpy scalars and arrays become their Python values; np.float64 is a
    # float already, so its text is repr(float)
    return json.dumps(payload, sort_keys=True, default=lambda o: o.tolist(), **kwargs)


def write_table(path: str | None, metadata: dict, columns: dict) -> None:
    """Emit a CSV table given column-major: `columns` maps each name to a
    1-d array or list, all of one length, and the metadata goes first as a
    "# {json}" line.

    Cells are the Python values of the columns, written as str(cell), the
    shortest round-trip text, so integer columns stay integers. A column is
    formatted by one repr of its list, split at ", ": each item of
    repr(list) is repr(cell), which equals str(cell) for every int and float
    (nan and inf included). Every cell is a number, so none holds a comma
    and no cell is quoted; a column of any other kind is refused.
    """
    texts = []
    for name, column in columns.items():
        a = np.asarray(column)
        if a.dtype.kind not in "iuf":
            raise ConfigError(f"table column {name!r} is not numeric ({a.dtype})")
        cells = a.tolist()
        texts.append(repr(cells)[1:-1].split(", ") if cells else [])
    lines = ["# " + _dumps(metadata), ",".join(columns)]
    lines += map(",".join, zip(*texts))
    _emit(path, "\n".join(lines) + "\n")


def _parse_grid(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--grid must be start:end:n, got {text!r}")
    try:
        start, end = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"--grid must be start:end:n with numeric fields: {exc}") from exc
    if count < 2:
        raise ConfigError(f"--grid needs at least 2 points, got {count}")
    if not (math.isfinite(start) and math.isfinite(end)) or end <= start:
        raise ConfigError(f"--grid needs finite start < end, got {text!r}")
    return start, end, count


def _parse_times(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"--times must be comma-separated numbers: {exc}") from exc
    if not values:
        raise ConfigError("--times is empty")
    if any(not math.isfinite(v) or v < 0 for v in values):
        raise ConfigError("--times values must be finite and >= 0")
    return values


def _parse_complex(text: str, flag: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise ConfigError(f"{flag} must be a complex literal, got {text!r}") from exc


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The gfsim parser, built on first use and shared by every later call:
    parse_args leaves it unchanged and returns a fresh Namespace each time."""
    parser = argparse.ArgumentParser(
        prog="gfsim",
        description="Photon transport and state transfer in a square-root-coupled cavity array",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"gfsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, description, flags) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=description, allow_abbrev=False)
        cmd.add_argument("--config", help="path to a JSON array config")
        cmd.add_argument("--preset", choices=sorted(_PRESETS),
                         help="named parameter preset")
        cmd.add_argument("--out", help="output path (default: stdout)")
        for flag in flags:
            names, options = _FLAGS[flag]
            cmd.add_argument(*names, **options)
    return parser


def _load_json(path: str) -> dict:
    try:
        with open(path, "r") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc


def resolve_experiment(args: argparse.Namespace) -> ResolvedExperiment:
    preset = {}
    if args.preset and args.config:
        raise ConfigError("--preset and --config are mutually exclusive")
    if args.preset:
        preset = _PRESETS[args.preset]
        # plan is a sub-step of the other experiments, so it may borrow
        # any preset; the rest must use their own
        if preset["command"] != args.command and args.command != "plan":
            raise ConfigError(
                f"preset {args.preset!r} belongs to the "
                f"{preset['command']!r} command"
            )
        raw = preset["config"]
    elif args.config:
        raw = _load_json(args.config)
    else:
        raise ConfigError("either --preset or --config is required")
    config, pair = config_and_pair(raw)
    planned = pair is not None
    base = float(config.frequencies[0])
    if not base > 0.0:
        raise ConfigError(
            f"the first cavity frequency omega_1 must be > 0, got {base!r}: "
            "time columns are omega_1 * t"
        )

    # subcommands without -m/-n take the pair from the config alone
    source, target = getattr(args, "source", None), getattr(args, "target", None)
    if source is not None or target is not None:
        if source is None or target is None:
            raise ConfigError("-m/--source and -n/--target must be given together")
        flag_pair = (source, target)
        if pair is not None and pair != flag_pair:
            raise ConfigError(
                f"site pair {flag_pair} conflicts with the config profile pair {pair}"
            )
        pair = flag_pair
    return ResolvedExperiment(config, base, planned, pair, preset, args)


def _base_metadata(exp: ResolvedExperiment) -> dict:
    meta = {
        "command": exp.args.command,
        "version": __version__,
        "config": config_to_dict(exp.config),
        "assumptions": [
            "frequencies and rates in units of the first cavity resonance",
            "time columns are omega_1 * t",
        ],
    }
    if exp.args.preset:
        meta["preset"] = exp.args.preset
    if exp.base == 1.0:
        meta["assumptions"].append("base frequency C = omega_1 = 1.0")
    return meta


def _grid(exp: ResolvedExperiment, default=None, log=False) -> np.ndarray:
    """The sweep grid: --times, else --grid, else the preset's grid, else
    `default` (--grid text, an array, or None when a grid is required).
    Times are omega_1*t >= 0; with `log`, the grid is log-spaced gamma/J > 0."""
    times, grid = getattr(exp.args, "times", None), exp.args.grid
    if times is not None and grid is not None:
        raise ConfigError("--grid and --times are mutually exclusive")
    if times is None and grid is None:
        times, grid = exp.preset.get("times"), exp.preset.get("grid", default)
    if times is not None:
        return np.asarray(_parse_times(times), dtype=float)
    if grid is None:
        raise ConfigError("a time grid is required: pass --grid start:end:n or --times")
    if not isinstance(grid, str):
        return grid
    start, end, count = _parse_grid(grid)
    if not log:
        if start < 0:
            raise ConfigError("time grid must start at >= 0")
        return np.linspace(start, end, count)
    if start <= 0:
        raise ConfigError("dissipation --grid is log-spaced gamma/J: start must be > 0")
    return np.logspace(math.log10(start), math.log10(end), count)


def _require_pair(exp: ResolvedExperiment) -> tuple[int, int]:
    if exp.pair is None:
        raise ConfigError(
            "a site pair is required: use -m/--source and -n/--target "
            "(or a switching-profile config)"
        )
    return exp.pair


def _capture_plan(template: ArrayConfig, m: int, n: int, meta: dict):
    """make_plan with purity warnings echoed to stderr and kept in meta."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        plan = make_plan(template, m, n)
    notes = [str(w.message) for w in caught]
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)
    if notes:
        meta["warnings"] = notes
    return plan


def _planned_sweep(exp: ResolvedExperiment, meta: dict):
    """The plan for the checked pair and its sweep (the flags' or preset's
    grid, else 2001 points over [0, 2t*]), both recorded in meta."""
    plan = _capture_plan(exp.config, *exp.pair, meta)
    t_star = plan.transfer_time * exp.base
    meta["plan"] = plan.to_dict()
    meta["transfer_time_omega1_t"] = t_star
    return plan, _grid(exp, np.linspace(0.0, 2.0 * t_star, _DEFAULT_SWEEP_POINTS))


def cmd_spectrum(exp: ResolvedExperiment) -> int:
    spec = decompose(build_hamiltonian(exp.config))
    freqs = exp.config.frequencies
    meta = _base_metadata(exp)
    meta["eigenvalue_note"] = "eigenvalues ascending; row pairing with sites is positional only"
    write_table(exp.args.out, meta, {
        "site": np.arange(1, exp.config.n_sites + 1),
        "omega": freqs,
        "omega_over_base": freqs / freqs[0],
        "eigenvalue": spec.eigenvalues,
    })
    return 0


def cmd_resonant_walk(exp: ResolvedExperiment) -> int:
    cfg, base = exp.config, exp.base
    detuning = float(np.max(np.abs(cfg.frequencies - base)))
    if detuning > 1e-12 * max(abs(base), 1.0):
        raise ClosedFormInapplicableError(
            "resonant-walk requires equal frequencies on every site "
            f"(max detuning {detuning:.3e}); the closed form does not apply"
        )
    times = _grid(exp)
    n = cfg.n_sites
    t = times / base
    # the closed form first: a (J t)^2 beyond float range is a config error
    # (exit 2), whichever verdict the spectral phases would get (exit 4)
    profiles = np.array([truncated_coherent_amplitudes(cfg.coupling_scale, ti, n).amplitudes
                         for ti in t.tolist()])
    closed = np.abs(profiles) ** 2
    spec = decompose(build_hamiltonian(cfg))
    # every site at every time in one call: amps[i, k - 1] = <k|e^{-iHt_i}|1>
    amps = transfer_amplitude(1, range(1, n + 1), spec, t)
    probs = np.abs(amps) ** 2
    # the closed form lives in the frame rotating at the resonance
    rotated = amps * np.exp(1j * base * t)[:, None]
    deviation = np.max(np.abs(rotated - profiles), axis=1)
    columns = {"omega1_t": times}
    columns.update({f"p_{k}": probs[:, k - 1] for k in range(1, n + 1)})
    columns.update({f"closed_p_{k}": closed[:, k - 1] for k in range(1, n + 1)})
    columns["max_abs_deviation"] = deviation
    columns["boundary_population"] = probs[:, -1]
    meta = _base_metadata(exp)
    meta["initial_site"] = 1
    meta["deviation_note"] = (
        "max_abs_deviation compares amplitudes in the resonant rotating frame"
    )
    write_table(exp.args.out, meta, columns)
    return 0


def cmd_plan(exp: ResolvedExperiment) -> int:
    m, n = _require_pair(exp)
    meta = _base_metadata(exp)
    plan = _capture_plan(exp.config, m, n, meta)
    _emit(exp.args.out, _dumps({"metadata": meta, "plan": plan.to_dict()}, indent=2) + "\n")
    return 0


def cmd_transfer(exp: ResolvedExperiment) -> int:
    base = exp.base
    m, n = _require_pair(exp)
    meta = _base_metadata(exp)
    # a switching config is the plan's own profile, so the plan only gives
    # the default grid and the metadata; any other config runs as given, on
    # the grid it must be given
    plan, times_wt = _planned_sweep(exp, meta) if exp.planned else (None, _grid(exp))
    spec = decompose(build_hamiltonian(exp.config))
    probs = transfer_probability(m, n, spec, times_wt / base)
    peak_idx = int(np.argmax(probs))
    meta.update({
        "source": m,
        "target": n,
        "peak_probability": float(probs[peak_idx]),
        "peak_time_omega1_t": float(times_wt[peak_idx]),
    })
    if plan is not None:
        rel = abs(times_wt[peak_idx] - plan.transfer_time * base) / (plan.transfer_time * base)
        meta["peak_time_relative_offset"] = float(rel)
    write_table(exp.args.out, meta, {"omega1_t": times_wt, "p_transfer": probs})
    return 0


def cmd_qubit(exp: ResolvedExperiment) -> int:
    _require_pair(exp)
    alpha_text = exp.args.alpha if exp.args.alpha is not None else exp.preset.get("alpha")
    beta_text = exp.args.beta if exp.args.beta is not None else exp.preset.get("beta")
    if alpha_text is None or beta_text is None:
        raise ConfigError("qubit requires --alpha and --beta (complex literals)")
    alpha = _parse_complex(str(alpha_text), "--alpha")
    beta = _parse_complex(str(beta_text), "--beta")

    meta = _base_metadata(exp)
    plan, times_wt = _planned_sweep(exp, meta)
    eta = exp.args.eta
    numeric, closed = qubit_fidelity_curve(plan, alpha, beta, times_wt / exp.base, eta=eta)
    (at_star,), (at_star_closed,) = qubit_fidelity_curve(
        plan, alpha, beta, plan.transfer_time, eta=eta)

    meta.update({
        "alpha": [alpha.real, alpha.imag],
        "beta": [beta.real, beta.imag],
        "eta_used": _applied_phase(plan, eta),
        "peak_fidelity": float(np.max(numeric)),
        "fidelity_at_transfer_time": float(at_star),
        "closed_form_fidelity_at_transfer_time": float(at_star_closed),
        "max_closed_form_deviation": float(np.max(np.abs(numeric - closed))),
    })
    write_table(exp.args.out, meta, {
        "omega1_t": times_wt, "fidelity": numeric, "closed_form_fidelity": closed})
    return 0


def cmd_dissipation(exp: ResolvedExperiment) -> int:
    cfg = exp.config
    if exp.pair is not None:
        pairs = [exp.pair]
    elif exp.preset.get("pairs"):
        pairs = [tuple(p) for p in exp.preset["pairs"]]
    else:
        raise ConfigError("dissipation needs a site pair (-m/-n) or a preset with pairs")

    # a config run takes its loss grid and ensemble size from the fig5 study
    default = _PRESETS["fig5"]
    grid = _grid(exp, default["grid"], log=True)

    if exp.args.states == "fixed4":
        for flag in ("seed", "samples"):
            if getattr(exp.args, flag) is not None:
                raise ConfigError(f"--{flag} does not apply to --states fixed4 "
                                  "(the four reference states)")
        alpha, beta = reference_qubit_states()
    else:
        if exp.args.seed is None:
            raise ConfigError("--seed is required for --states haar (reproducibility)")
        samples = exp.args.samples if exp.args.samples is not None \
            else exp.preset.get("samples", default["samples"])
        alpha, beta = sample_qubit_states(samples, exp.args.seed)

    multi = len(pairs) > 1
    for m, n in pairs:
        meta = _base_metadata(exp)
        plan = _capture_plan(cfg, m, n, meta)
        curve = average_transfer_fidelity(plan, grid, alpha, beta)
        meta.update({
            "source": m,
            "target": n,
            "samples": int(curve.samples),
            "states": exp.args.states,
            "plan": plan.to_dict(),
            "gamma_grid_note": "gamma/J grid, log-spaced",
        })
        if exp.args.seed is not None:
            meta["seed"] = exp.args.seed
        cells = len(curve.gamma_over_J)
        out = exp.args.out
        if out is not None and multi:
            stem, ext = os.path.splitext(out)
            out = f"{stem}_m{m}n{n}{ext or ''}"
        write_table(out, meta, {
            "gamma_over_J": curve.gamma_over_J,
            "mean_fidelity": curve.mean_fidelity,
            "stderr": curve.stderr,
            "samples": np.full(cells, int(curve.samples)),
            "t_star": np.full(cells, float(curve.transfer_time)),
        })
    return 0


_COMMANDS = {
    "spectrum": (cmd_spectrum, "frequency profile and eigenvalues of the array", ()),
    "resonant-walk": (cmd_resonant_walk,
                      "single-photon spreading on a resonant array vs the closed form",
                      ("grid", "times")),
    "plan": (cmd_plan, "design a transfer plan for a site pair",
             ("source", "target", "format")),
    "transfer": (cmd_transfer, "transfer probability curve (planned or direct sweep)",
                 ("source", "target", "grid", "times")),
    "qubit": (cmd_qubit, "qubit transfer fidelity curve with the closed-form comparison",
              ("source", "target", "eta", "grid", "times", "alpha", "beta")),
    "dissipation": (cmd_dissipation,
                    "averaged transfer fidelity vs gamma/J under uniform loss",
                    ("source", "target", "seed", "samples", "grid", "states")),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        exp = resolve_experiment(args)
        return _COMMANDS[args.command][0](exp)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RegimeError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except NumericalInvariantError as exc:
        print(f"numerical invariant violated: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
