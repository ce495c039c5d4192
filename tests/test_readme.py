"""The README's library quick start and command-line examples, run as shown,
and the package root held to the names the README documents."""

import json
import re
import shlex
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import crystal_poly
from crystal_poly.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", README, flags=re.S)


def test_library_quick_start_runs():
    (code,) = [b for b in _blocks("python") if "Context(" in b]
    scope: dict = {}
    exec(code, scope)
    assert (scope["ok"], scope["witness"]) == (True, None)


def test_root_exports_exactly_the_documented_names():
    (code,) = [b for b in _blocks("python") if "Context(" in b]
    names = re.findall(r"\w+", re.search(r"from crystal_poly import \((.*?)\)", code, re.S)[1])
    (para,) = [p for p in README.split("\n\n") if "exported from the package root" in p]
    names += re.findall(r"`(\w+)`", para)
    assert len(set(names)) == len(names)
    assert sorted(names) == sorted(crystal_poly.__all__)
    # root names resolve on first access, so dir(), not vars(), lists them
    public = {name for name in dir(crystal_poly)
              if not name.startswith("_") and not isinstance(getattr(crystal_poly, name), ModuleType)}
    assert public == set(names)  # every documented name is bound, and nothing else
    for name in names:  # each the object its home module defines
        value = getattr(crystal_poly, name)
        assert value.__module__.startswith("crystal_poly."), name
        assert getattr(sys.modules[value.__module__], name) is value, name
    with pytest.raises(AttributeError):
        crystal_poly.sorted_forms  # noqa: B018  (defined in inequalities, not exported)


def test_importing_the_root_loads_no_submodule():
    probe = ("import sys, crystal_poly; "
             "print(sorted(m for m in sys.modules if m.startswith('crystal_poly.')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60, check=True)
    assert proc.stdout == "[]\n"


def test_cli_examples_print_what_the_readme_shows(tmp_path, capsys):
    demo = json.loads(next(b for b in _blocks("json") if '"iota_word"' in b))
    free = {k: v for k, v in demo.items() if k != "lambda"}
    for name, cfg in (("demo.json", demo), ("demo-free.json", free)):
        (tmp_path / name).write_text(json.dumps(cfg), encoding="utf-8")
    ran = set()
    for block in _blocks("console"):
        # each "$ crystal-poly ..." line is followed by the lines it prints;
        # "..." stands for lines left out
        for cmd, shown in re.findall(r"^\$ crystal-poly (.*)\n((?:[^$].*\n)*)", block, re.M):
            argv = shlex.split(cmd)
            if argv[2] not in ("check", "enumerate", "epsilon-star", "crosscheck"):
                continue
            argv[1] = str(tmp_path / argv[1])
            main(argv)
            out = iter(capsys.readouterr().out.splitlines())
            for line in shown.splitlines():
                if line.strip() != "...":
                    assert line in out, (cmd, line)  # in order, others skipped
            ran.add(argv[2])
    assert ran == {"check", "enumerate", "epsilon-star", "crosscheck"}
