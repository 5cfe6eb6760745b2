import re
import subprocess
import sys

from conftest import REPO_ROOT
from same_speed import CASES

LINE = re.compile(r"(.+): parent \d+\.\d\d ms, change \d+\.\d\d ms, "
                  r"change/parent \d+\.\d{3} \(IQR \d+\.\d{3}-\d+\.\d{3}\) over 2 pairs")


def test_the_repository_against_itself():
    # in a child process, as the script replaces this process's paircheck modules
    script = REPO_ROOT / "tests" / "same_speed.py"
    argv = [sys.executable, str(script), str(REPO_ROOT), str(REPO_ROOT), "--pairs", "2"]
    run = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stderr) == (0, "")
    lines = run.stdout.splitlines()
    assert [LINE.fullmatch(line)[1] for line in lines] == list(CASES)

