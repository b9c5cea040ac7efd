"""The CLI has one error exit: the command group's ``invoke`` turns an
``OsnMatchError``, ``OSError`` or ``ValueError`` from any command into one
``error:`` line and exit status 1, so no command catches them itself. A
stdout closed by its reader stays click's to handle."""

import ast
import errno
import os
import subprocess
import sys
from pathlib import Path

import pytest

import osnmatch
from osnmatch import cli

CLI = ast.parse((Path(osnmatch.__file__).parent / "cli.py").read_text(encoding="utf-8"))


def _inside(node, tree):
    return any(node is inner for inner in ast.walk(tree))


def _invoke():
    (invoke,) = [node for cls in ast.walk(CLI) if isinstance(cls, ast.ClassDef)
                 for node in cls.body
                 if isinstance(node, ast.FunctionDef) and node.name == "invoke"]
    return invoke


def test_only_the_group_invoke_catches_osnmatch_errors():
    catching = [handler for handler in ast.walk(CLI)
                if isinstance(handler, ast.ExceptHandler) and handler.type is not None
                and any(isinstance(n, ast.Name) and n.id == "OsnMatchError"
                        for n in ast.walk(handler.type))]
    assert len(catching) == 1
    assert _inside(catching[0], _invoke())


def test_only_the_group_invoke_exits():
    exits = [node for node in ast.walk(CLI)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "exit"]
    assert len(exits) == 1
    assert _inside(exits[0], _invoke())


def test_closed_stdout_is_left_to_click(tmp_path):
    # the reader of stdout is gone before the summary line is written:
    # click exits 1 without a word, as for any command that writes output
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(osnmatch.__file__).parents[1]),
         *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    proc = subprocess.Popen(
        [sys.executable, "-m", "osnmatch.cli", "synth", "--n-users", "10",
         "--out", str(tmp_path / "corpus")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (1, b"")


def test_broken_pipe_passes_through_the_group_invoke(tmp_path, monkeypatch, capsys):
    def closed(*args):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    monkeypatch.setattr(cli.synth, "generate_corpus", closed)
    # the group's invoke itself: click's main would turn EPIPE into exit 1
    ctx = cli.main.make_context("osnmatch", ["synth", "--out", str(tmp_path / "corpus")])
    with ctx, pytest.raises(BrokenPipeError):
        cli.main.invoke(ctx)
    assert capsys.readouterr().err == ""
