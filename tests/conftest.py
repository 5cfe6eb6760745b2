import os
from pathlib import Path

import pytest
from hypothesis import settings

from paircheck import parse

REPO_ROOT = Path(__file__).resolve().parent.parent
PROGRAMS_DIR = REPO_ROOT / "programs"

# ``pytest --hypothesis-profile long`` gives each property ten times the
# default profile's 100 examples; the properties in test_pipeline.py that
# set their own count scale it by the same factor.
settings.register_profile("long", max_examples=1000)


def child_env(**variables: str) -> dict[str, str]:
    """This environment plus ``variables``, with ``src`` first on a child's ``PYTHONPATH``."""
    path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **variables)


def program_paths() -> list[Path]:
    return sorted(PROGRAMS_DIR.glob("*.toy"))


def load_program(name: str):
    return parse((PROGRAMS_DIR / name).read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def ab12():
    return load_program("ab12.toy")


@pytest.fixture(scope="session")
def bundled_programs():
    return {path.name: parse(path.read_text(encoding="utf-8")) for path in program_paths()}
