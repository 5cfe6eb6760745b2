import shutil

from conftest import PROGRAMS_DIR, REPO_ROOT
from same_output import differences

# one case whose report has the header line the copy below rewords, one that has none
CASES = [
    ["check", str(PROGRAMS_DIR / "ab12.toy")],
    ["check", str(PROGRAMS_DIR / "ab12.toy"), "--format", "json"],
]


def test_same_sources_agree():
    assert differences(REPO_ROOT, REPO_ROOT, CASES) == []


def test_a_changed_header_is_one_difference(tmp_path):
    shutil.copytree(REPO_ROOT / "src" / "paircheck", tmp_path / "src" / "paircheck",
                    ignore=shutil.ignore_patterns("__pycache__"))
    report = tmp_path / "src" / "paircheck" / "report.py"
    text = report.read_text(encoding="utf-8")
    assert text.count('"outcomes: ') == 1
    report.write_text(text.replace('"outcomes: ', '"final states: '), encoding="utf-8")
    lines = differences(REPO_ROOT, tmp_path, CASES)
    assert lines == ["check ab12.toy: differs in stdout (exit codes 1 and 1)"]
