"""What the entry points import: the command-line front end starts without
the numeric core, and the package resolves its public names on first use."""

import ast
import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import contactkit
from contactkit import TOLERANCES

#: Modules that neither the parser nor ``ypq --enumerate`` may load.
NUMERIC = (
    "numpy",
    "contactkit.expressions",
    "contactkit.charts",
    "contactkit.contact",
    "contactkit.cone",
    "contactkit.models",
)

#: Run in a fresh interpreter: import the CLI, build its parser, run
#: ``main(argv)`` unless argv is null, and print the exit code, the output
#: and the modules of ``NUMERIC`` (the further arguments) then loaded.
PROBE = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    import contactkit.cli as cli
    cli.build_parser()
    code = None if argv is None else cli.main(argv)
loaded = [name for name in sys.argv[2:] if name in sys.modules]
print(json.dumps({"code": code, "out": out.getvalue(), "err": err.getvalue(), "loaded": loaded}))
"""


def _probe(argv):
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", PROBE, json.dumps(argv), *NUMERIC],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestFrontEndLoadsNoNumericCore:
    def test_parser(self):
        assert _probe(None) == {"code": None, "out": "", "err": "", "loaded": []}

    @pytest.mark.parametrize("output", ["text", "records"])
    def test_enumerate(self, output):
        result = _probe(["ypq", "--enumerate", "50", "--format", output])
        assert (result["code"], result["err"], result["loaded"]) == (0, "", [])
        assert len(result["out"].splitlines()) == 49

    def test_help(self):
        result = _probe(["ypq", "--help"])
        assert (result["code"], result["loaded"]) == (0, [])
        assert "--enumerate P_MAX" in result["out"]

    def test_unknown_tolerance_lists_every_name(self):
        result = _probe(["ypq", "--enumerate", "5", "--tol", "bogus=1"])
        assert (result["code"], result["out"], result["loaded"]) == (2, "", [])
        assert result["err"].startswith("error: unknown tolerance 'bogus'; known names: ")
        assert all(name in result["err"] for name in TOLERANCES)


def _defining_modules() -> dict[str, list[str]]:
    """Every name that a module of the package defines at its top level (by
    ``def``, ``class`` or assignment, not by import), with those modules."""
    homes: dict[str, list[str]] = {}
    for info in pkgutil.iter_modules(contactkit.__path__):
        source = Path(contactkit.__path__[0], f"{info.name}.py").read_text()
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [target.id for target in node.targets if isinstance(target, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                homes.setdefault(name, []).append(info.name)
    return homes


class TestLazyPackage:
    def test_every_name_is_its_defining_modules_object(self):
        homes = _defining_modules()
        for name in contactkit.__all__:
            if name == "__version__":
                continue
            assert len(homes.get(name, ())) == 1, (name, homes.get(name))
            home = importlib.import_module(f"contactkit.{homes[name][0]}")
            assert getattr(contactkit, name) is getattr(home, name), name

    def test_star_import_binds_exactly_all(self):
        namespace: dict = {}
        exec("from contactkit import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(contactkit.__all__)

    def test_dir_lists_every_name(self):
        assert set(contactkit.__all__) <= set(dir(contactkit))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            contactkit.no_such_name

    def test_module_run_exits_usage_without_traceback(self):
        # Under ``-m`` the CLI file runs as ``__main__``; the UsageError that
        # ``contactkit.commands`` raises must be the class that main catches.
        proc = subprocess.run(
            [sys.executable, "-m", "contactkit.cli", "verify", "nosuch"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: unknown model 'nosuch'")
        assert "Traceback" not in proc.stderr
