"""CLI surface: presets, output stability, exit codes, metadata provenance."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gfsim
from gfsim.cli import build_parser, main, write_table
from gfsim.errors import ConfigError
from gfsim.model import config_and_pair, wrap_phase
from gfsim.protocol import make_plan

from conftest import read_csv_output


def run_cli(args):
    return main(list(args))


def test_fig1_preset_csv(tmp_path, capsys):
    out = tmp_path / "fig1.csv"
    assert run_cli(["resonant-walk", "--preset", "fig1", "--out", str(out)]) == 0
    meta, columns, rows = read_csv_output(out)
    assert meta["command"] == "resonant-walk"
    assert meta["preset"] == "fig1"
    # resolved config must reload cleanly
    cfg = config_and_pair(meta["config"])[0]
    assert cfg.n_sites == 10 and cfg.coupling_scale == 0.05
    assert columns[0] == "omega1_t"
    assert [r[0] for r in rows] == [0.0, 30.0, 40.0, 84.0]
    for row in rows:
        populations = row[1:11]
        assert sum(populations) == pytest.approx(1.0, abs=1e-10)
    # t = 0 row is a delta on site 1
    assert rows[0][1] == pytest.approx(1.0, abs=1e-10)
    assert max(rows[0][2:11]) <= 1e-10


def test_metadata_has_no_timestamps(tmp_path):
    out = tmp_path / "fig1.csv"
    run_cli(["resonant-walk", "--preset", "fig1", "--out", str(out)])
    meta, _, _ = read_csv_output(out)
    blob = json.dumps(meta).lower()
    for needle in ("time_stamp", "timestamp", "date", "hostname"):
        assert needle not in blob
    assert meta["version"]


# one preset run per command; dissipation's preset writes one file per pair
PRESET_RUNS = [
    ["spectrum", "--preset", "fig2"],
    ["resonant-walk", "--preset", "fig1"],
    ["plan", "--preset", "fig3b"],
    ["transfer", "--preset", "fig3b"],
    ["qubit", "--preset", "fig4"],
    ["dissipation", "--preset", "fig5", "--seed", "3"],
]


def run_to_dir(argv, out_dir):
    """Run one command into a fresh directory; {file name: text} of its output.
    A plan is a JSON document (given its one --format), any other output a
    CSV table."""
    out_dir.mkdir()
    fmt = ["--format", "json"] if argv[0] == "plan" else []
    out = out_dir / ("out.json" if fmt else "out.csv")
    assert run_cli(argv + fmt + ["--out", str(out)]) == 0
    return {p.name: p.read_text() for p in sorted(out_dir.iterdir())}


def test_reruns_are_bit_identical(tmp_path):
    runs = PRESET_RUNS + [["dissipation", "--preset", "fig5", "-m", "1", "-n", "3",
                           "--seed", "7", "--samples", "20", "--grid", "0.001:1:4"]]
    for k, argv in enumerate(runs):
        first = run_to_dir(argv, tmp_path / f"{k}a")
        assert first == run_to_dir(argv, tmp_path / f"{k}b"), argv


def test_tables_take_no_format_flag(capsys):
    # a table is one CSV document: only plan registers --format
    for argv in PRESET_RUNS:
        if argv[0] == "plan":
            continue
        for fmt in ("json", "csv"):
            assert run_cli(argv + ["--format", fmt]) == 2, (argv, fmt)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "unrecognized arguments: --format" in captured.err, (argv, fmt)


# the 14 values of every plan document (written with sorted keys); the
# benchmark's fig5 gate reads frequencies, coupling_scale, eta_star,
# transfer_time, source and target
PLAN_KEYS = ["coupling_scale", "doublet_purity", "eta_star", "frequencies", "lambda_mean",
             "lambda_minus", "lambda_plus", "n_sites", "plus_overlap_sign",
             "predicted_peak", "source", "target", "theta", "transfer_time"]


def test_plan_document_schema(tmp_path):
    # plan's document and the plan metadata of transfer, qubit and
    # dissipation list exactly these keys: the config a plan holds is not one
    runs = PRESET_RUNS[2:]
    assert [argv[0] for argv in runs] == ["plan", "transfer", "qubit", "dissipation"]
    docs = []
    for k, argv in enumerate(runs):
        for text in run_to_dir(argv, tmp_path / str(k)).values():
            docs.append(json.loads(text if argv[0] == "plan" else text.splitlines()[0][2:]))
    assert len(docs) == 5     # fig5 writes one file per pair
    for doc in docs:
        assert list(doc["plan"]) == PLAN_KEYS


def test_plan_is_one_json_document(capsys):
    # plan writes its JSON document with or without --format json, and has
    # no CSV form
    texts = []
    for fmt in ([], ["--format", "json"]):
        assert run_cli(["plan", "--preset", "fig3b", *fmt]) == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    payload = json.loads(texts[0])
    expected = make_plan(config_and_pair(payload["metadata"]["config"])[0], 2, 4)
    assert payload["plan"] == expected.to_dict()
    assert run_cli(["plan", "--preset", "fig3b", "--format", "csv"]) == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err


def test_text_column_is_refused(capsys):
    # every table cell is a number, so no CSV cell needs quoting; a text
    # column is refused, and nothing is written
    columns = {"site": [1, 2], "note": ["plain", "a,b"]}
    with pytest.raises(ConfigError, match="'note' is not numeric"):
        write_table(None, {}, columns)
    assert capsys.readouterr().out == ""


def test_numeric_csv_cells_are_str_of_each_cell(capsys):
    # each numeric column is formatted by one repr of its list; every cell
    # must still read as str() of its own Python value
    floats = [-0.0, 5e-324, 1e-300, 1e16, 123456789.12345679,
              float("nan"), float("inf"), -float("inf")]
    columns = {
        "x": np.array(floats),
        "big": np.array([2 ** 53 + 1, -(2 ** 62) - 3, 2 ** 63 - 1, -(2 ** 63),
                         0, -1, 2 ** 53, 9007199254740993], dtype=np.int64),
        # cmd_resonant_walk passes a list of np.float64 scalars
        "dev": [np.float64(v) for v in (0.1, 1 / 3, 2.5e-17, 7.0, 1e22, -1e-5,
                                        np.pi, 1e-7)],
    }
    write_table(None, {}, columns)
    _, header, *body = capsys.readouterr().out.splitlines()
    assert header == "x,big,dev"
    reference = [[str(cell) for cell in np.asarray(col).tolist()]
                 for col in columns.values()]
    assert body == [",".join(row) for row in zip(*reference)]
    assert body[0].split(",")[0] == "-0.0"
    assert body[1].split(",")[:2] == ["5e-324", "-4611686018427387907"]

    # a zero-row table is the metadata line and the header line, nothing else
    write_table(None, {"k": 1}, {"a": np.array([]), "b": [], "c": np.arange(0)})
    assert capsys.readouterr().out == '# {"k": 1}\na,b,c\n'


def test_output_file_mode_follows_umask(tmp_path):
    # the file gets 0o666 less the umask, as open() would give it, also when
    # it replaces an existing file of another mode
    out = tmp_path / "fig2.csv"
    out.write_text("old")
    out.chmod(0o600)
    old = os.umask(0o022)
    try:
        assert run_cli(["spectrum", "--preset", "fig2", "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert out.stat().st_mode & 0o777 == 0o644
    assert [p.name for p in tmp_path.iterdir()] == ["fig2.csv"]


def test_reused_parser_leaks_no_state(tmp_path):
    # main() shares one parser across calls: an earlier error or a non-default
    # flag must not carry over into the next call
    assert build_parser() is build_parser()
    assert run_cli(["qubit", "--pre", "fig4", "--al", "0.6"]) == 2
    argv = ["dissipation", "--preset", "fig5", "--seed", "3"]
    fixed, again, fresh = (tmp_path / d for d in ("fixed", "again", "fresh"))
    run_to_dir(["dissipation", "--preset", "fig5", "--states", "fixed4"], fixed)
    files = run_to_dir(argv, again)
    for text in files.values():
        assert json.loads(text.splitlines()[0][2:])["states"] == "haar"
    fresh.mkdir()
    result = run_child("-m", "gfsim", *argv, "--out", str(fresh / "out.csv"))
    assert result.returncode == 0, result.stderr
    assert files == {p.name: p.read_text() for p in sorted(fresh.iterdir())}


def test_spectrum_shows_switching_degeneracy(tmp_path):
    out = tmp_path / "fig2.csv"
    run_cli(["spectrum", "--preset", "fig2", "--out", str(out)])
    _, columns, rows = read_csv_output(out)
    omega = {int(r[0]): r[1] for r in rows}
    assert omega[3] == pytest.approx(omega[7], rel=1e-13)
    eigs = [r[3] for r in rows]
    assert eigs == sorted(eigs)


def test_transfer_preset_writes_one_file(tmp_path):
    # the plan travels in the metadata line; no second file is written
    out = tmp_path / "fig3b.csv"
    assert run_cli(["transfer", "--preset", "fig3b", "--out", str(out)]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["fig3b.csv"]
    meta, columns, rows = read_csv_output(out)
    assert columns == ["omega1_t", "p_transfer"]
    assert meta["peak_probability"] >= 0.99
    assert meta["peak_time_relative_offset"] <= 0.02
    expected = make_plan(config_and_pair(meta["config"])[0], 2, 4)
    assert meta["plan"] == expected.to_dict()


def test_transfer_direct_sweep_requires_grid(tmp_path):
    cfg = tmp_path / "resonant.json"
    cfg.write_text(json.dumps({"n_sites": 6,
                               "frequencies": {"preset": "resonant", "C": 1.0},
                               "J": 0.0013}))
    assert run_cli(["transfer", "--config", str(cfg), "-m", "1", "-n", "6"]) == 2
    out = tmp_path / "direct.csv"
    code = run_cli(["transfer", "--config", str(cfg), "-m", "1", "-n", "6",
                    "--grid", "0:100000:501", "--out", str(out)])
    assert code == 0
    meta, _, _ = read_csv_output(out)
    # the stalled transfer is reported, not refused
    assert meta["peak_probability"] < 0.99
    assert "plan" not in meta


def test_qubit_preset_metadata(tmp_path):
    out = tmp_path / "fig4.csv"
    assert run_cli(["qubit", "--preset", "fig4", "--out", str(out)]) == 0
    meta, columns, rows = read_csv_output(out)
    assert columns == ["omega1_t", "fidelity", "closed_form_fidelity"]
    assert meta["fidelity_at_transfer_time"] >= 0.99
    assert meta["peak_fidelity"] >= meta["fidelity_at_transfer_time"] - 1e-12
    assert meta["max_closed_form_deviation"] <= 0.02
    # the phase the score applied is the plan's eta*, bit for bit
    assert meta["eta_used"] == meta["plan"]["eta_star"]
    closeness = [abs(r[1] - r[2]) for r in rows]
    assert max(closeness) <= 0.02


def test_qubit_rejects_unnormalized_pair(tmp_path):
    code = run_cli(["qubit", "--preset", "fig4", "--alpha", "0.9",
                    "--beta", "0.9"])
    assert code == 2


def test_dissipation_outputs_one_file_per_pair(tmp_path):
    out = tmp_path / "fig5.csv"
    code = run_cli(["dissipation", "--preset", "fig5", "--seed", "3",
                    "--samples", "10", "--grid", "0.001:1:3",
                    "--out", str(out)])
    assert code == 0
    for m, n in ((1, 3), (2, 5)):
        meta, columns, rows = read_csv_output(tmp_path / f"fig5_m{m}n{n}.csv")
        assert columns == ["gamma_over_J", "mean_fidelity", "stderr",
                           "samples", "t_star"]
        assert meta["source"] == m and meta["target"] == n
        assert meta["seed"] == 3
        assert len(rows) == 3
        assert all(r[3] == 10 for r in rows)
        # fidelity decreases with loss
        assert rows[0][1] > rows[-1][1]


def test_flag_grids_replace_the_preset_grid(tmp_path):
    for flags, rows in ((["--grid", "0:84:5"], 5), (["--times", "1,2"], 2)):
        out = tmp_path / f"walk{rows}.csv"
        assert run_cli(["resonant-walk", "--preset", "fig1", *flags,
                        "--out", str(out)]) == 0
        assert len(read_csv_output(out)[2]) == rows


def test_default_loss_grid_is_the_fig5_grid(tmp_path):
    # a config run without --grid gets the same 25 gamma/J cells, bit for bit
    cfg = tmp_path / "res6.json"
    cfg.write_text(json.dumps({"n_sites": 6,
                               "frequencies": {"preset": "resonant", "C": 1.0},
                               "J": 0.0013}))
    pair = ["-m", "1", "-n", "3", "--seed", "3"]
    cells = []
    for source in (["--config", str(cfg)], ["--preset", "fig5"]):
        out = tmp_path / f"loss{len(cells)}.csv"
        assert run_cli(["dissipation", *source, *pair, "--out", str(out)]) == 0
        cells.append([line.split(",")[0] for line in out.read_text().splitlines()[2:]])
    assert len(cells[0]) == 25
    assert cells[0] == cells[1]


def test_dissipation_fixed_states(tmp_path):
    out = tmp_path / "fixed.csv"
    code = run_cli(["dissipation", "--preset", "fig5", "-m", "1", "-n", "3",
                    "--states", "fixed4",
                    "--grid", "0.001:1:3", "--out", str(out)])
    assert code == 0
    meta, _, rows = read_csv_output(out)
    assert meta["states"] == "fixed4"
    assert "seed" not in meta          # nothing random was drawn
    assert all(r[3] == 4 for r in rows)


def test_exit_codes(tmp_path, capsys):
    # 2: config problems
    assert run_cli(["dissipation", "--preset", "fig5"]) == 2          # no seed
    # NaN amplitudes have a NaN norm, which must fail the normalization check
    assert run_cli(["qubit", "--preset", "fig4", "--alpha", "nan", "--beta", "1",
                    "--times", "1,2"]) == 2
    assert run_cli(["qubit", "--preset", "fig4", "--eta", "nan"]) == 2   # no phase
    # so do amplitudes whose squares overflow, with no traceback
    for beta in ("0", "1e155j"):
        assert run_cli(["qubit", "--preset", "fig4", "--alpha", "1e200",
                        "--beta", beta]) == 2
        assert "qubit amplitudes not normalized" in capsys.readouterr().err
    assert run_cli(["dissipation", "--preset", "fig5", "--seed", "-1"]) == 2
    assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err
    assert run_cli(["resonant-walk", "--preset", "fig2"]) == 2        # wrong preset
    assert run_cli(["transfer", "--config", "/no/such/file.json"]) == 2
    assert run_cli(["spectrum"]) == 2                                 # nothing given
    assert run_cli(["resonant-walk", "--preset", "fig1",
                    "--grid", "backwards"]) == 2
    assert run_cli(["transfer", "--preset", "fig3a", "--preset", "fig3b",
                    "--config", "x.json"]) == 2
    # a flag the subcommand does not read is refused, not ignored
    assert run_cli(["dissipation", "--preset", "fig5", "--seed", "1",
                    "--eta", "0.3"]) == 2
    # transfer reads site populations, which the bond phase does not change
    assert run_cli(["transfer", "--preset", "fig3b", "--eta", "0.3"]) == 2
    assert run_cli(["spectrum", "--preset", "fig2", "--seed", "9", "--samples", "3",
                    "--alpha", "2", "--times", "1"]) == 2
    assert run_cli(["resonant-walk", "--preset", "fig1", "-m", "4", "-n", "5"]) == 2
    # fixed4 scores four given states: neither a sample count nor a seed applies
    assert run_cli(["dissipation", "--preset", "fig5",
                    "--states", "fixed4", "--samples", "1000"]) == 2
    assert run_cli(["dissipation", "--preset", "fig5", "--seed", "1",
                    "--states", "fixed4"]) == 2
    assert run_cli(["dissipation", "--preset", "fig5", "--seed", "1",
                    "--samples", "0"]) == 2
    assert "samples must be an integer >= 1" in capsys.readouterr().err
    # a config has no bond phase key: it is an unknown field
    with_eta = tmp_path / "with_eta.json"
    with_eta.write_text(json.dumps({"n_sites": 10, "frequencies": {"preset": "resonant"},
                                    "J": 0.05, "eta": 0.7}))
    assert run_cli(["resonant-walk", "--config", str(with_eta), "--times", "30"]) == 2
    assert "unknown config field 'eta'" in capsys.readouterr().err
    # grid refusals, one reader for every sweep; argparse takes "-1:5:3"
    # after a space for a flag, so the negative start is given with "=";
    # an empty flag is given, not absent: it used to fall back to the
    # preset's times or the default sweep and exit 0
    switching = tmp_path / "switching.json"
    switching.write_text(json.dumps({
        "n_sites": 6, "frequencies": {"preset": "switching", "m": 2, "n": 4},
        "J": 0.0013}))
    for argv, message in (
            (["resonant-walk", "--preset", "fig1", "--times", ""], "--times is empty"),
            (["transfer", "--config", str(switching), "--grid", ""], "start:end:n"),
            (["resonant-walk", "--preset", "fig1", "--grid", "0:5:3", "--times", "1"],
             "mutually exclusive"),
            (["qubit", "--preset", "fig4", "--grid", "0:5:3", "--times", "1"],
             "mutually exclusive"),
            (["resonant-walk", "--preset", "fig1", "--grid", "-1:5:3"], "expected one"),
            (["resonant-walk", "--preset", "fig1", "--grid=-1:5:3"], "start at >= 0"),
            (["resonant-walk", "--preset", "fig1", "--grid", "0:1:1"], "at least 2 points"),
            (["dissipation", "--preset", "fig5", "--seed", "1", "--grid", "0:1:3"],
             "start must be > 0")):
        assert run_cli(argv) == 2, argv
        assert message in capsys.readouterr().err, argv
    # abbreviated flags are refused, not expanded
    assert run_cli(["qubit", "--pre", "fig4", "--al", "0.6", "--be", "0.8",
                    "--ti", "1"]) == 2
    # time columns are omega_1 * t, so omega_1 <= 0 is refused up front
    for name, freqs in (("zero", {"preset": "resonant", "C": 0}),
                        ("explicit_zero", [0, 1, 2, 3]),
                        ("negative", [-1, -1, -1, -1])):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"n_sites": 4, "frequencies": freqs, "J": 0.1}))
        for argv in (["resonant-walk", "--times", "0,5"], ["spectrum"],
                     ["transfer", "-m", "1", "-n", "3", "--times", "0,5"]):
            assert run_cli(argv + ["--config", str(cfg)]) == 2, (name, argv)
            assert "omega_1 * t" in capsys.readouterr().err


def test_refusals_print_one_line(tmp_path, capsys):
    # main turns a library refusal into its exit code and one stderr line,
    # with no traceback: a spectrum that overflows float64 fails the
    # eigendecomposition's residual check (4), and a (J t)^2 beyond float
    # range is a config error (2)
    overflow = tmp_path / "overflow.json"
    overflow.write_text(json.dumps({"n_sites": 3, "frequencies": [1e308] * 3,
                                    "J": 1e308}))
    huge_bond = tmp_path / "huge_bond.json"
    huge_bond.write_text(json.dumps({"n_sites": 6, "J": 1e308, "frequencies": {
        "preset": "resonant", "C": 1.0}}))
    cases = [
        (["spectrum", "--config", str(overflow)], 4, "numerical invariant violated:"),
        (["resonant-walk", "--preset", "fig1", "--times", "0,1e200"], 2,
         "error: (J t)^2"),
        # J sqrt(N - 1) beyond float range: no numpy overflow warning first
        (["spectrum", "--config", str(huge_bond)], 2, "error: bond J*sqrt(5) overflows"),
    ]
    # valid configs whose partitioning float64 cannot carry (a level on an
    # exact pole at large C, underflow at tiny J, a negative norm at J far
    # above C, a NaN purity or an infinite level at huge J) or whose squared
    # bonds overflow: refused (3), not crashed on nor taken for a bad config
    for k, (n_sites, m, n, base, coupling) in enumerate((
            (6, 1, 3, 1e18, 0.0013), (10, 8, 10, 1e15, 0.0013), (6, 2, 4, 1.0, 1e-100),
            (3, 1, 3, 1e-10, 1e16), (7, 4, 7, 1.0, 1e200), (2, 1, 2, 1.0, 1e200),
            (4, 1, 4, 1.0, 1e131))):
        config = tmp_path / f"extreme{k}.json"
        config.write_text(json.dumps({"n_sites": n_sites, "J": coupling, "frequencies": {
            "preset": "switching", "C": base, "m": m, "n": n}}))
        cases.append((["plan", "--config", str(config)], 3, "refused: doublet not resolved"))
    for argv, code, prefix in cases:
        assert run_cli(argv) == code, argv
        err = capsys.readouterr().err
        assert err.startswith(prefix) and len(err.splitlines()) == 1, err
        assert "Traceback" not in err


def test_each_refusal_is_one_error_line(tmp_path, capsys):
    # refusals of flags, configs and missing inputs: exit 2 and one line
    def config(name, text):
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        return str(path)

    resonant = config("resonant", json.dumps({
        "n_sites": 6, "frequencies": {"preset": "resonant", "C": 1.0}, "J": 0.0013}))
    switching = config("switching", json.dumps({
        "n_sites": 6, "frequencies": {"preset": "switching", "m": 2, "n": 4},
        "J": 0.0013}))
    bad_configs = {
        "not_json": ("{n_sites: 6}", "is not valid JSON"),
        "list": ("[1]", "config must be a mapping, got list"),
        "float_sites": ('{"n_sites": 6.0, "frequencies": {"preset": "resonant"}, '
                        '"J": 0.1}', "'n_sites' must be an integer"),
        "no_frequencies": ('{"n_sites": 6, "J": 0.1}',
                           "missing required field 'frequencies'"),
        "preset_key": ('{"n_sites": 6, "frequencies": {"preset": "resonant", "X": 1}, '
                       '"J": 0.1}', "unknown frequency-preset field 'X'"),
        "string_frequencies": ('{"n_sites": 6, "frequencies": "resonant", "J": 0.1}',
                               "'frequencies' must be a list or a preset object"),
    }
    walk = ["resonant-walk", "--preset", "fig1"]
    cases = [
        (walk + ["--grid", "0:x:5"], "numeric fields"),
        (walk + ["--grid", "5:1:3"], "finite start < end"),
        (walk + ["--grid", "0:inf:3"], "finite start < end"),
        (walk + ["--times", "1,abc"], "comma-separated numbers"),
        (walk + ["--times=-1"], "finite and >= 0"),
        (["qubit", "--preset", "fig4", "--alpha", "1+"], "complex literal"),
        (["spectrum", "--config", str(tmp_path / "missing.json")], "cannot read config"),
        (["transfer", "--preset", "fig3b", "-m", "1"], "must be given together"),
        (["plan", "--config", resonant], "a site pair is required"),
        (["qubit", "--config", switching], "requires --alpha and --beta"),
        (["dissipation", "--config", resonant, "--seed", "1"], "needs a site pair"),
    ]
    cases += [(["spectrum", "--config", config(name, text)], message)
              for name, (text, message) in bad_configs.items()]
    for argv, message in cases:
        assert run_cli(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1, (argv, err)
        assert message in err, (argv, err)

    # an --out that names a directory is refused, and its temp file removed
    target = tmp_path / "outdir"
    target.mkdir()
    before = sorted(p.name for p in tmp_path.iterdir())
    assert run_cli(["transfer", "--preset", "fig3b", "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and len(err.splitlines()) == 1, err
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert list(target.iterdir()) == []


def test_unresolvable_phases_exit_4(tmp_path, capsys):
    # past eps max|lambda| max|t| = 1 rad no phase digit survives: the runs
    # are refused with one line and write nothing (they used to print a
    # p_transfer of 0.9946 at 1e307 and NaN at 1e308)
    out = tmp_path / "fig3b.csv"
    for argv in (["transfer", "--preset", "fig3b", "--times", "0,1e307"],
                 ["transfer", "--preset", "fig3b", "--times", "0,1e307,1e308",
                  "--out", str(out)],
                 ["qubit", "--preset", "fig4", "--times", "1e308"]):
        assert run_cli(argv) == 4, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical invariant violated: phases")
        assert len(captured.err.splitlines()) == 1, captured.err
    assert list(tmp_path.iterdir()) == []


def test_detuned_array_refuses_resonant_closed_form(tmp_path):
    cfg = tmp_path / "detuned.json"
    cfg.write_text(json.dumps({"n_sites": 4, "frequencies": [1.0, 2.0, 3.0, 4.0],
                               "J": 0.1}))
    assert run_cli(["resonant-walk", "--config", str(cfg),
                    "--times", "0,5"]) == 3


def test_doublet_refusal_exit_code(tmp_path):
    cfg = tmp_path / "res6.json"
    cfg.write_text(json.dumps({"n_sites": 6,
                               "frequencies": {"preset": "resonant", "C": 1.0},
                               "J": 0.0013}))
    # outermost pair on the (1,6) parabola cannot be resolved
    assert run_cli(["plan", "--config", str(cfg), "-m", "1", "-n", "6"]) == 3


def test_pair_conflict_between_flags_and_config():
    assert run_cli(["transfer", "--preset", "fig3b", "-m", "1", "-n", "3"]) == 2


def test_plan_borrows_other_presets(capsys):
    assert run_cli(["plan", "--preset", "fig3b", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["plan"]["source"] == 2
    assert payload["plan"]["target"] == 4
    assert payload["plan"]["transfer_time"] == pytest.approx(94874.552,
                                                             rel=1e-6)


def test_low_purity_warning_lands_in_metadata(capsys):
    assert run_cli(["plan", "--preset", "fig3a", "--format", "json"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert any("purity" in w for w in payload["metadata"]["warnings"])
    assert "warning:" in captured.err


def test_eta_override_changes_qubit_outcome(tmp_path):
    out = tmp_path / "wrong_eta.csv"
    plan_meta, _, _ = (None, None, None)
    run_cli(["qubit", "--preset", "fig4", "--out", str(out)])
    right, _, _ = read_csv_output(out)
    eta = right["plan"]["eta_star"] + 3.14159 / 3
    run_cli(["qubit", "--preset", "fig4", "--eta", repr(eta),
             "--out", str(out)])
    wrong, _, _ = read_csv_output(out)
    assert wrong["fidelity_at_transfer_time"] < 0.3
    assert right["fidelity_at_transfer_time"] > 0.99


def test_eta_override_records_the_wrapped_phase(tmp_path):
    # --eta 7 runs at wrap(7) = 7 - 2 pi, and that is what the metadata
    # must say
    out = tmp_path / "qubit.csv"
    assert run_cli(["qubit", "--preset", "fig4", "--eta", "7", "--out", str(out)]) == 0
    meta, _, _ = read_csv_output(out)
    assert meta["eta_used"] == wrap_phase(7.0)


def run_child(*args, env=None):
    # a fresh interpreter on the package this test imported (pytest's
    # pythonpath does not reach a child process)
    package_root = os.path.dirname(os.path.dirname(gfsim.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120,
                          env={**os.environ, **(env or {}), "PYTHONPATH": path})


def test_console_entry_point_subprocess(tmp_path):
    # end-to-end through the real interpreter once
    result = run_child("-m", "gfsim", "spectrum", "--preset", "fig2")
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0].startswith("# ")
    assert lines[1].split(",")[0] == "site"
    assert len(lines) == 12


def test_output_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the same run under one and two BLAS threads writes the same file
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"fig4_{threads}.csv"
        env = {name: threads for name in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        result = run_child("-m", "gfsim", "qubit", "--preset", "fig4",
                           "--out", str(out), env=env)
        assert result.returncode == 0, result.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_import_does_not_load_scipy():
    # the runtime needs numpy alone; scipy is a test-only oracle
    result = run_child("-c", "import sys, gfsim; print('scipy' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_unwritable_output_path(tmp_path):
    missing_dir = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert run_cli(["spectrum", "--preset", "fig2",
                    "--out", str(missing_dir)]) == 2
