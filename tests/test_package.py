"""The package's lazy exports, and the modules each command loads."""

import importlib
import subprocess
import sys

import pytest

import paircheck
from conftest import PROGRAMS_DIR, child_env


def value_at_exit(tmp_path, code: str, expression: str) -> tuple[int, str]:
    """Exit code of ``python -c CODE`` and ``str(EXPRESSION)`` as it exits (``sys`` is imported)."""
    record = tmp_path / "at_exit.txt"
    dump = f"open({str(record)!r}, 'w').write(str({expression}))"
    proc = subprocess.run(
        [sys.executable, "-c", f"import atexit, sys; atexit.register(lambda: {dump})\n{code}"],
        env=child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        timeout=60,
    )
    return proc.returncode, record.read_text()


def command_code(*argv: str) -> str:
    """Code that runs ``python -m paircheck ARGV`` inside ``python -c``."""
    return (
        f"sys.argv[1:] = {list(argv)!r}\nimport runpy\n"
        "runpy.run_module('paircheck', run_name='__main__', alter_sys=True)"
    )


def loaded_modules(tmp_path, code: str) -> tuple[int, set[str]]:
    """Exit code of ``python -c CODE`` and the names in ``sys.modules`` as it exits."""
    returncode, names = value_at_exit(tmp_path, code, "' '.join(sys.modules)")
    return returncode, set(names.split())


def command_modules(tmp_path, *argv: str) -> tuple[int, set[str]]:
    """As :func:`loaded_modules`, for ``python -m paircheck ARGV``."""
    return loaded_modules(tmp_path, command_code(*argv))


@pytest.fixture
def bare_modules(tmp_path) -> set[str]:
    """What the interpreter loads for nothing (``site`` differs between machines)."""
    return loaded_modules(tmp_path, "pass")[1]


class TestLazyExports:
    def test_every_export_is_its_submodules_object(self):
        submodules = [
            importlib.import_module(f"paircheck.{name}")
            for name in ("analysis", "engine", "instrument", "report", "state", "toylang")
        ]
        for name in paircheck.__all__:
            if name == "__version__":
                continue
            owners = [module for module in submodules if name in module.__all__]
            assert len(owners) == 1, name
            assert getattr(paircheck, name) is getattr(owners[0], name), name

    def test_star_import_and_dir(self):
        namespace = {}
        exec("from paircheck import *", namespace)
        assert set(paircheck.__all__) <= set(namespace)
        assert namespace["instrument"] is importlib.import_module("paircheck.instrument").instrument
        assert set(paircheck.__all__) <= set(dir(paircheck))

    def test_submodules_resolve_before_any_import(self, tmp_path):
        code, modules = loaded_modules(
            tmp_path, "import paircheck; paircheck.engine.step, paircheck.state.digest"
        )
        assert code == 0 and {"paircheck.engine", "paircheck.state"} <= modules

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
            paircheck.nonesuch  # noqa: B018


class TestLayering:
    @pytest.mark.parametrize(
        "module, allowed",
        [("state", set()), ("toylang", {"paircheck.state"}), ("report", {"paircheck.state"})],
    )
    def test_module_loads_only_the_layers_below(self, tmp_path, module, allowed):
        # state rests on nothing in the package, and the parser and the report
        # writer only on state; the records are plain slotted classes, so none
        # loads dataclasses
        code, modules = loaded_modules(tmp_path, f"import paircheck.{module}")
        loaded = {name for name in modules if name.startswith("paircheck.")}
        assert code == 0 and loaded == {f"paircheck.{module}"} | allowed
        assert not modules & {"dataclasses", "inspect"}


class TestCommandImports:
    def test_import_paircheck_loads_no_submodule(self, tmp_path, bare_modules):
        code, modules = loaded_modules(tmp_path, "import paircheck")
        added = modules - bare_modules
        assert code == 0 and "paircheck" in added
        assert not {name for name in added if name.startswith("paircheck.")}

    def test_instrument(self, tmp_path, bare_modules):
        source = tmp_path / "f.c"
        source.write_text("void f() { a(); }\n")
        code, modules = command_modules(tmp_path, "instrument", str(source))
        added = modules - bare_modules
        assert code == 0 and "paircheck.instrument" in added
        unwanted = {"dataclasses", "hashlib", "json"}
        checker = ("toylang", "state", "engine", "analysis", "report")
        unwanted |= {f"paircheck.{name}" for name in checker}
        assert not added & unwanted

    @pytest.mark.parametrize("digest", [False, True], ids=["full", "digest"])
    def test_check(self, tmp_path, bare_modules, digest):
        # _blake2 only for digests, and never hashlib (OpenSSL) or the json
        # package; neither the instrumenter nor the benchmark; the records are
        # plain slotted classes, so no dataclasses (nor the inspect it loads)
        argv = ["check", *(["--digest"] if digest else []), str(PROGRAMS_DIR / "ab12.toy")]
        code, modules = command_modules(tmp_path, *argv)
        added = modules - bare_modules
        assert code == 1 and {"paircheck.engine", "paircheck.report"} <= added
        assert ("_blake2" in added) == digest
        unwanted = {"hashlib", "_hashlib", "json", "dataclasses", "inspect"}
        unwanted |= {"paircheck.instrument", "paircheck.analysis"}
        assert not added & unwanted

    def test_check_parse_error(self, tmp_path, bare_modules):
        # the parser places its own errors: no instrumenter for the position;
        # the report writer is loaded only once the source has parsed
        source = tmp_path / "undeclared.toy"
        source.write_text("thread0 { x = 1; } thread1 { }\n")
        code, modules = command_modules(tmp_path, "check", str(source))
        added = modules - bare_modules
        assert code == 4 and "paircheck.toylang" in added
        assert not added & {"paircheck.instrument", "paircheck.analysis", "paircheck.report"}

    def test_bench(self, tmp_path, bare_modules):
        # the table's JSON form needs json; the records need no dataclasses,
        # and the table no report writer
        code, modules = command_modules(tmp_path, "bench", "--min", "1", "--max", "2")
        added = modules - bare_modules
        assert code == 0 and "paircheck.analysis" in added
        unwanted = {"hashlib", "_hashlib", "dataclasses", "inspect"}
        unwanted |= {"paircheck.instrument", "paircheck.report"}
        assert not added & unwanted
