"""README.md stays true: its library example and its CLI commands run,
every backticked ``module.name`` it mentions resolves, and its export list
is ``__all__``."""

from __future__ import annotations

import contextlib
import importlib
import io
import pkgutil
import re
import shlex
from pathlib import Path

import mindswap
from mindswap import cli

README = (Path(__file__).parent.parent / "README.md").read_text()
MODULES = {info.name for info in pkgutil.iter_modules(mindswap.__path__)}


def test_library_example_runs():
    section = README.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().startswith("mindswap-plan v1\n")


def test_cli_block_commands_run():
    # verify needs a saved plan file, so only the self-contained commands run
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", README, re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv[1:] for argv in commands if argv[1] in ("solve", "oracle", "infinite")]
    assert commands
    for argv in commands:
        assert cli.main(argv) == 0, argv


def test_module_references_resolve():
    refs = set()
    for span in re.findall(r"`([^`\s]+)`", README):
        parts = span.removeprefix("mindswap.").split(".")
        if len(parts) > 1 and parts[0] in MODULES and all(p.isidentifier() for p in parts):
            refs.add(tuple(parts))
    assert {("machine", "solve_m_machine"), ("machine", "lower_bound")} <= refs
    for module, *names in refs:
        obj = importlib.import_module(f"mindswap.{module}")
        for name in names:
            assert hasattr(obj, name), f"README names {module}.{'.'.join(names)}"
            obj = getattr(obj, name)


def test_export_paragraph_is_all():
    paragraph = re.search(r"The names exported from `mindswap` are (.*?)\.\s", README, re.S)
    assert sorted(re.findall(r"`(\w+)`", paragraph.group(1))) == sorted(mindswap.__all__)
