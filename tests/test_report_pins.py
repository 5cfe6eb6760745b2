"""Byte-level pins of rendered reports across modes and step budgets.

Every bundled program and every program of the seeded 200-program corpus
is explored in five modes at five step budgets, and both renderings (JSON,
then text) of each report are hashed.  The hashes were recorded from a
known-good build; any change to search order, statistics, witness traces,
budget cut-off points or rendering shows up here, including in budget-cut
partial reports and in the pruned and digest modes.
"""

import hashlib

import pytest

from conftest import program_paths
from corpus import fixed_corpus
from paircheck import ExplorationConfig, explore, parse, render_report

MODES = {
    "default": {},
    "no-prune": {"pruning": False},
    "no-race-detect": {"race_detection": False},
    "digest": {"digest_mode": True},
    "digest-no-prune": {"digest_mode": True, "pruning": False},
}
BUDGETS = (0, 1, 3, 8, 1_000_000)

# sha256 over the JSON then text report of every program, per (mode, budget)
EXPECTED = {
    ("default", 0): "1ca081d65e52d167a9597508e48ae70a38265bf618ff1e9cf593cdc56f8f957a",
    ("default", 1): "3ee9da77ad7b7750ddb12c3a60a217acd9c8aaac4049a3aab9b98bcf7932f689",
    ("default", 3): "cb842262a40bb1bf9baa280d770f0035f971c0ed5ba40953f48078c7db2d3cea",
    ("default", 8): "49c2a0ae6f9ba18c103bfa328495aeb2cf06472c95bfeb2dd79078b6070285e7",
    ("default", 1_000_000): "612dd8408c3919d953f9362503cd1837377af9ee183a08cfb2bda90bbe7aa33d",
    ("no-prune", 0): "1ca081d65e52d167a9597508e48ae70a38265bf618ff1e9cf593cdc56f8f957a",
    ("no-prune", 1): "3ee9da77ad7b7750ddb12c3a60a217acd9c8aaac4049a3aab9b98bcf7932f689",
    ("no-prune", 3): "cb842262a40bb1bf9baa280d770f0035f971c0ed5ba40953f48078c7db2d3cea",
    ("no-prune", 8): "ee052dc1e7d227c64d2c345f2a8c0e2a33a116b920e737275ff670284e5b6a89",
    ("no-prune", 1_000_000): "261b5ceed980397e5b6a5696c8434c72afd6e7ea4534cc9169b62c71381d3953",
    ("no-race-detect", 0): "706d26a6723a46a86c2c63a5cdcd9017039b160ea04edbf8918a4c930f930cf8",
    ("no-race-detect", 1): "17fe6a377119168128ac603ff58fcd176e8484727ec3e2e39c643fbe8c843457",
    ("no-race-detect", 3): "28246e4ae4061a9df7c0e6e1c218e1f5295e9f478a78c62780030f23f55c77d6",
    ("no-race-detect", 8): "7e711448a3cde73b978756b8f8f8c916600245f65766c6fcfff796c38a8041da",
    ("no-race-detect", 1_000_000): "eaddedbaf0fd10a19a99322dba4e4aa26bc136f05971afb275896ad85d57c21b",
    ("digest", 0): "e8bf4cfde64ee8f20827994bf656d88364c5f325185d362590dc30a86f20677a",
    ("digest", 1): "141ade6aafaa9417c7be5196d79abc710669974cddab7deb5e4134abafc128e2",
    ("digest", 3): "b9cf59def7c517199d9fc2bbc098ea350ada8d1b27712b2a83a6825fbe072c1d",
    ("digest", 8): "7aba61afd52ec7b21897b2a18268ed6b01303594a66f1202a3128cd62cef34de",
    ("digest", 1_000_000): "13c493824f03949a6f7e4b848ed1ce1fabeb41e57c60a56463b71e18f573a3eb",
    ("digest-no-prune", 0): "e8bf4cfde64ee8f20827994bf656d88364c5f325185d362590dc30a86f20677a",
    ("digest-no-prune", 1): "141ade6aafaa9417c7be5196d79abc710669974cddab7deb5e4134abafc128e2",
    ("digest-no-prune", 3): "b9cf59def7c517199d9fc2bbc098ea350ada8d1b27712b2a83a6825fbe072c1d",
    ("digest-no-prune", 8): "2ade804ef60d7c294c2b431c102dc417c6c0ef34482a858aef219e4e4d53a0e1",
    ("digest-no-prune", 1_000_000): "c8908334953b9d401384630a6ab5a86e957ac1bba8c9a542d2d0577a0bcf0441",
}

# sha256 over all reports in program -> mode -> budget -> (JSON, text) order
EXPECTED_ALL = "8902a094c9a5187bd22c9ab2ef97cecdeb937d9c6ede014bec8680626dc0ee25"


@pytest.fixture(scope="module")
def rendered():
    """Hashes per (mode, budget), the all-in-order hash, and reports showing ``blocked@``."""
    programs = [parse(path.read_text(encoding="utf-8")) for path in program_paths()]
    programs += fixed_corpus(200)
    cells = {case: hashlib.sha256() for case in EXPECTED}
    everything = hashlib.sha256()
    blocked = []
    for index, pair in enumerate(programs):
        for mode, options in MODES.items():
            for budget in BUDGETS:
                report = explore(pair, ExplorationConfig(max_total_steps=budget, **options))
                for fmt in ("json", "text"):
                    data = render_report(report, fmt).encode("utf-8")
                    cells[mode, budget].update(data)
                    everything.update(data)
                    if b"blocked@" in data:
                        blocked.append((index, mode, budget, fmt))
    hexes = {case: h.hexdigest() for case, h in cells.items()}
    return hexes, everything.hexdigest(), blocked


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("budget", BUDGETS)
def test_reports_match_pins(rendered, mode, budget):
    assert rendered[0][mode, budget] == EXPECTED[mode, budget]


def test_all_reports_in_order(rendered):
    assert rendered[1] == EXPECTED_ALL


def test_no_explored_state_is_blocked(rendered):
    # A thread status is a statement index or DONE, and the search never
    # steps a thread into a blocking up, so no report shows a blocked status.
    assert rendered[2] == []
