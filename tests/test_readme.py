"""The README's code must run against the current public API."""

import argparse
import re
import shlex
from pathlib import Path

from gfsim.cli import build_parser, main
from gfsim.model import _TOP_KEYS

README = Path(__file__).resolve().parents[1] / "README.md"

# a file name a comment promises, e.g. "fig5_m1n3.csv"
_FILE_NAME = re.compile(r"[\w-]+(?:\.\w+)+")


def test_library_tour_snippet_runs():
    # the first python block is the "Library tour"; removing or renaming a
    # name it uses breaks this test rather than the docs
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S)
    assert block, "README has no python block"
    namespace = {}
    exec(compile(block.group(1), str(README), "exec"), namespace)
    assert namespace["walk"].shape == (3, 10)
    assert namespace["curve"].mean_fidelity.shape == (25,)


def cli_examples():
    """(argv, files expected, README line) for each `gfsim ...` line of the
    CLI examples block. A comment on the line, or on comment-only lines
    right below it, names files: "+ X" adds X to the --out file, "writes X
    and Y" replaces it."""
    block = re.search(r"Examples:\n\n```sh\n(.*?)```", README.read_text(), re.S)
    assert block, "README has no CLI examples block"
    examples = []
    for line in block.group(1).splitlines():
        command, _, comment = line.partition("#")
        if command.strip():
            argv = shlex.split(command)
            assert argv[0] == "gfsim", line
            out = argv[argv.index("--out") + 1] if "--out" in argv else None
            examples.append([argv[1:], out, comment.strip(), line])
        else:
            examples[-1][2] = f"{examples[-1][2]} {comment.strip()}".strip()
    cases = []
    for argv, out, comment, line in examples:
        named = set(_FILE_NAME.findall(comment))
        if out is not None and not comment.startswith("writes"):
            named.add(out)
        cases.append((argv, named, line))
    return cases


def test_cli_examples_run(tmp_path, monkeypatch, capsys):
    # every example exits 0 and leaves exactly the files its comment names
    cases = cli_examples()
    assert len(cases) >= 5
    for i, (argv, files, line) in enumerate(cases):
        workdir = tmp_path / f"example{i}"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert main(argv) == 0, (line, capsys.readouterr().err)
        assert {p.name for p in workdir.iterdir()} == files, line


# flags every subcommand takes, listed in the README's usage line instead
_COMMON_FLAGS = {"--config", "--preset", "--out", "-h"}


def test_command_flag_table_matches_parser():
    # each row of the "| command | command flags |" table names, by its
    # first option string, exactly the flags the parser registers
    table = re.search(r"\| command +\| command flags \|\n\|[-|]+\|\n((?:\|.*\n)+)",
                      README.read_text())
    assert table, "README has no command-flag table"
    documented = {}
    for row in table.group(1).splitlines():
        command, flags = row.strip("|").split("|", 1)
        documented[command.strip().strip("`")] = set(re.findall(r"`(-[^`\s]+)", flags))
    subcommands = next(a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
    registered = {name: {a.option_strings[0] for a in cmd._actions if a.option_strings}
                  - _COMMON_FLAGS
                  for name, cmd in subcommands.choices.items()}
    assert documented == registered


def test_usage_lines_state_each_format_choice():
    # the CLI synopsis gives "[--format a|b]" for each command that takes
    # one, and only plan does (a table is one CSV document); the parser's
    # choices, first one the default, must match
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", README.read_text(), re.S)
    assert block, "README has no CLI synopsis"
    documented = {}
    # one usage entry per "gfsim" line and its continuation lines
    for usage in re.split(r"^(?=gfsim )", block.group(1), flags=re.M)[1:]:
        stated = re.search(r"\[--format ([\w|]+)\]", usage)
        if stated:
            documented[usage.split()[1]] = stated.group(1)
    assert documented == {"plan": "json"}
    subcommands = next(a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
    registered = {}
    for name, cmd in subcommands.choices.items():
        for action in cmd._actions:
            if "--format" in action.option_strings:
                assert action.default == action.choices[0], name
                registered[name] = "|".join(action.choices)
    assert registered == documented


def test_config_key_table_matches_schema():
    # the "| key | value |" table lists exactly the keys config_and_pair
    # accepts, so a schema change cannot leave the README behind
    table = re.search(r"\| key +\| value \|\n\|[-|]+\|\n((?:\|.*\n)+)",
                      README.read_text())
    assert table, "README has no config-key table"
    documented = [row.strip("|").split("|", 1)[0].strip().strip("`")
                  for row in table.group(1).splitlines()]
    assert sorted(documented) == sorted(_TOP_KEYS)


def test_module_table_names_resolve():
    # every backticked name in a row of the "| module | contents |" table is
    # an attribute of gfsim or of the module that row names, and every name
    # in that module's __all__ is backticked in its row
    import importlib

    import gfsim

    table = re.search(r"\| module +\| contents \|\n\|[-|]+\|\n((?:\|.*\n)+)",
                      README.read_text())
    assert table, "README has no module table"
    rows = 0
    for row in table.group(1).splitlines():
        module, contents = row.strip("|").split("|", 1)
        mod = importlib.import_module(f"gfsim.{module.strip().strip('`')}")
        names = re.findall(r"`([^`]+)`", contents)
        for name in names:
            assert name.isidentifier(), (module, name)
            assert hasattr(gfsim, name) or hasattr(mod, name), (module.strip(), name)
        missing = set(getattr(mod, "__all__", ())) - set(names)
        assert not missing, (module.strip(), sorted(missing))
        rows += 1
    assert rows == 7


def test_each_layer_declares_its_public_names_once():
    # a layer's __all__ is exactly its own public functions and classes, and
    # gfsim re-exports every one of them, so no name list can drift
    import importlib
    import inspect

    import gfsim

    for layer in ("errors", "model", "dynamics", "analytics", "protocol", "open_system"):
        mod = importlib.import_module(f"gfsim.{layer}")
        public = {name for name, obj in vars(mod).items()
                  if (inspect.isfunction(obj) or inspect.isclass(obj))
                  and obj.__module__ == mod.__name__ and not name.startswith("_")}
        assert sorted(mod.__all__) == sorted(public), layer
        assert all(hasattr(gfsim, name) for name in mod.__all__), layer
