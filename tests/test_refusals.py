"""The refusal table of refusals.py, run each way a refusal is met; the
README's quoted refusals; and every ValueError the package raises, each a
row's or named with its reason."""

import ast
import contextlib
import io
import json
import os
import re
from pathlib import Path

import pytest

from qentropy import cli, estimators, harness
from qentropy.estimators import EstimatorConfig
from qentropy.instances import instance_size
from refusals import EXPERIMENT, LIBRARY_ONLY, ROWS, STAGES

# What builds a distribution or an outcome table: nothing before the build stage calls them.
_BUILDERS = ((harness, "parse_instance"), (estimators, "build_oracle"),
             (estimators, "sine_table"), (estimators, "outcome_laws"))


def _fail(*args, **kwargs):
    raise AssertionError("a step after the row's stage ran")


def _patch(row, patch: pytest.MonkeyPatch, later: bool) -> None:
    """Before the build stage, make every builder fail, and with later, the
    step after the row's stage too: a refusal that comes any later fails."""
    steps = list(_BUILDERS) if row.stage != "build" else []
    if later and row.stage == "check":
        steps.append((harness, "EstimatorConfig"))
    elif later and row.stage == "config":
        steps += [(harness, "instance_size"), (harness, "resolve_distribution")]
    elif later and row.stage == "size" and row.cell is not None:
        required, optional, _ = harness.TRIALS[row.cell["algo"]]
        patch.setitem(harness.TRIALS, row.cell["algo"],
                      (required, optional, _fail))
    for module, name in steps:
        patch.setattr(module, name, _fail)


# the `estimate` option of each cell key
_OPTIONS = {"algo": "--algo", "dist": "--dist", "dist_q": "--dist-q", "f": "--f-n",
            "alpha": "--alpha", "eps": "--eps", "delta": "--delta", "mode": "--mode", "m": "--m",
            "n_samples": "--n-samples", "measure": "--measure"}


def _estimate_argv(cell: dict) -> list:
    return ["estimate", *(word for key, value in cell.items()
                          for word in (_OPTIONS[key], str(value))), "--seed", "1"]


def _plan(cell: dict) -> None:
    """The cell's planner called as a library user calls it, on the spec's size."""
    required, optional, planner = harness.TRIALS[cell["algo"]]
    fields = {name: float(cell[key]) for key, name in (("eps", "epsilon"), ("delta", "delta"))
              if key in cell}
    cfg = EstimatorConfig(**fields, **{key: cell[key] for key in ("mode",) if key in cell})
    planner(instance_size(cell["dist"]),
            *[cell.get(key) for key in required + optional if key != "dist_q"], cfg)


def _refused(main_argv, message: str) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(main_argv)
    assert (code, out.getvalue(), err.getvalue()) == (2, "", "error: %s\n" % message), main_argv


# cli.main's parser, built once: an argparse parser holds no state between calls
_PARSER = cli._build_parser()


@pytest.fixture(scope="module")
def _workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("refusals")


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_a_refusal_is_its_row_at_every_layer(row, _workdir, monkeypatch, int_max_str_digits):
    int_max_str_digits(4300)
    monkeypatch.chdir(_workdir)
    for name in os.listdir():  # one directory for every row, emptied first
        os.remove(name)
    monkeypatch.setattr(cli, "_build_parser", lambda: _PARSER)
    for name, text in row.files:
        Path(name).write_text(text)
    written = {name for name, _ in row.files}
    if row.cell is not None:  # cell 0 of the config is planned first, and built first
        Path("c.json").write_text(json.dumps({"master_seed": 3, "cells": [
            {"algo": "shannon", "dist": "uniform:4"}, row.cell]}))
        written.add("c.json")
    layers = ["command"] if row.cell is None else ["plan_cell", "experiment"] \
        + ["planner"] * (row.stage in ("config", "plan")) + ["estimate"] * row.estimate
    for layer in layers:
        with monkeypatch.context() as patch:
            _patch(row, patch, later=layer != "experiment")
            if layer == "command":
                _refused(list(row.argv), row.message)
            elif layer == "estimate":
                _refused(_estimate_argv(row.cell), row.message)
            elif layer == "experiment":
                _refused(list(EXPERIMENT), row.message + " (cell 1)")
            else:
                with pytest.raises(ValueError) as raised:
                    if layer == "planner":
                        _plan(row.cell)
                    elif row.stage == "build":
                        harness.plan_cell(row.cell)()
                    else:
                        harness.plan_cell(row.cell)
                assert str(raised.value) == row.message, layer
    assert set(os.listdir()) == written  # no CSV, and nothing else


def test_each_row_has_its_own_id_a_stage_and_one_input():
    assert len({row.id for row in ROWS}) == len(ROWS)
    assert all(row.stage in STAGES and (row.cell is None) == bool(row.argv) for row in ROWS)
    assert all(row.cell is not None for row in ROWS if row.estimate)


def test_the_readme_quotes_each_refusal_as_its_row():
    # `error: ...` (row `id`): the quoted text is that row's message
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    quoted = re.findall(r"`error: ([^`]*)`\s+\(row\s+`([^`]*)`\)", readme)
    assert len(quoted) >= 8
    assert [(id, " ".join(text.split())) for text, id in quoted] \
        == [(id, {row.id: row.message for row in ROWS}.get(id)) for _, id in quoted]


def _raised_formats():
    """(file:line, message format) of every raise of ValueError, or of a
    subclass of it, under src/qentropy; a format % args gives its format."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(harness.__file__).parent.glob("*.py"))}
    errors = {"ValueError"} | {node.name for tree in trees.values() for node in ast.walk(tree)
                               if isinstance(node, ast.ClassDef) and "ValueError"
                               in [getattr(base, "id", None) for base in node.bases]}
    for name, tree in trees.items():
        constants = {target.id: node.value.value for node in tree.body
                     if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
                     for target in node.targets if isinstance(target, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) \
                    and getattr(node.exc.func, "id", None) in errors:
                text = node.exc.args[0]
                if isinstance(text, ast.BinOp) and isinstance(text.op, ast.Mod):
                    text = text.left
                text = constants.get(text.id) if isinstance(text, ast.Name) \
                    else getattr(text, "value", None)
                assert isinstance(text, str), "%s:%d raises no readable format" \
                    % (name, node.lineno)
                yield "%s:%d" % (name, node.lineno), text


# a conversion's last letter -> what it can print
_CONVERTED = {"d": r"-?\d+", "e": r"[-+.\w]+", "f": r"[-+.\w]+", "g": r"[-+.\w]+"}


def _pattern(text: str) -> str:
    """A format as a regular expression: %d matches an integer, a float
    conversion a number, and %s or %r any text but a newline."""
    return "".join(
        _CONVERTED.get(part[-1], ".+") if part.startswith("%") and part != "%%"
        else re.escape(part.replace("%%", "%"))
        for part in re.split(r"(%%|%[-#0 +]?\d*(?:\.\d+)?[a-zA-Z])", text))


def test_every_value_error_raised_is_a_row_or_named_library_only():
    # Each message, and what follows each ': ' in it (a spec's cause), is a
    # line a format may give whole; a listed format exists and is unreached.
    texts = "\n".join(message[match.end():] for message in {row.message for row in ROWS}
                      for match in [re.match("", message), *re.finditer(": ", message)])
    formats = list(_raised_formats())
    assert len(formats) >= 100
    reached = {text for _, text in formats
               if re.search("^%s$" % _pattern(text), texts, re.MULTILINE)}
    unlisted = ["%s %r" % (where, text) for where, text in formats
                if text not in reached and text not in LIBRARY_ONLY]
    assert unlisted == [], "add a row, or a reason to LIBRARY_ONLY"
    assert set(LIBRARY_ONLY) - {text for _, text in formats} == set()
    assert set(LIBRARY_ONLY) & reached == set()
