"""The invariant suites: what each checks at fixed seeds, and how a failure shows."""

import pytest

from hyptet import selftest
from hyptet.cli import main
from hyptet.lobachevsky import lobachevsky

#: suite name and sample count at seed 0, in ``ALL_SUITES`` order; the counts
#: come from the seeded draws and the suites' own filters, not from libm
SEED0 = (
    ("lobachevsky identities", 32100),
    ("consistency equations", 120000),
    ("region identities", 700000),
    ("volume derivative identity", 300),
    ("paired radical inequalities", 200000),
    ("triangle angle-side identity", 10000),
)


def test_suites_at_seed_0():
    results = [suite(0) for suite in selftest.ALL_SUITES]
    assert [(r.name, r.checked) for r in results] == list(SEED0)
    assert [r.failures for r in results] == [0] * len(SEED0)


@pytest.mark.parametrize("seed", [1, 2])
def test_suites_pass_at_other_seeds(seed):
    assert [suite(seed).failures for suite in selftest.ALL_SUITES] == [0] * 6


def test_a_failing_identity_fails_its_suite(monkeypatch, capsys):
    # an offset breaks the odd, periodic and reflection identities
    monkeypatch.setattr(selftest, "lobachevsky", lambda x: lobachevsky(x) + 1e-9)
    result = selftest.lobachevsky_suite(0)
    assert not result.passed and result.line().startswith("FAIL lobachevsky")
    lines = []
    assert selftest.run_all(0, out=lines.append) is False
    assert lines[0].startswith("FAIL lobachevsky identities")
    assert all(line.startswith("PASS") for line in lines[1:-1])
    assert lines[-1] == "5/6 suites passed"
    assert main(["selftest"]) == 1
    assert "FAIL lobachevsky identities" in capsys.readouterr().out


def test_a_nan_deviation_fails():
    result = selftest._tally("nan", [([0.0, float("nan")], 1.0), ([0.5], 1.0)])
    assert (result.checked, result.failures) == (3, 1)


def test_a_broken_sign_pattern_fails_its_suite(monkeypatch):
    # negating slot 34 breaks "opposite slots degenerate together" wherever
    # slot 12 or 34 overshoots; a flag suite's deviation is 0 or 1
    phi_batch = selftest._kernels.phi_batch
    monkeypatch.setattr(
        selftest._kernels, "phi_batch", lambda L: phi_batch(L) * [1, 1, 1, 1, 1, -1]
    )
    result = selftest.region_suite(0)
    assert result.failures > 0 and result.worst == 1.0
    assert result.line().startswith("FAIL region identities")
