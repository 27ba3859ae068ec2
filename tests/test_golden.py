"""Golden outputs: every CLI command on the seeded corpus in tests/golden/.

Verdicts, relabellings, df, cycles and every other integer or string must be
equal.  Log-likelihood-type statistics may move by 1e-10 relative and
violations and marginal gaps by 1e-12 absolute; any other float is exact.
"""

import json
import math

import pytest

from golden.make_corpus import HERE, run

ENTRIES = json.loads((HERE / "expected.json").read_text())
RELATIVE = {"log_likelihood": 1e-10, "gof": 1e-10, "u": 1e-10}
ABSOLUTE = {"max_violation": 1e-12, "max_marginal_gap": 1e-12}


def assert_matches(got, want, key=None, path="$"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), path
        for k in want:
            assert_matches(got[k], want[k], k, f"{path}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, key, f"{path}[{i}]")
    elif isinstance(want, float) and not isinstance(got, bool) and got != want:
        assert isinstance(got, (int, float)), path
        if key in RELATIVE:
            assert math.isclose(got, want, rel_tol=RELATIVE[key], abs_tol=0.0), (path, got, want)
        else:
            assert abs(got - want) <= ABSOLUTE.get(key, 0.0), (path, got, want)
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_golden_output(entry):
    code, text = run(entry["argv"])
    assert code == 0
    got = json.loads(text) if "--json" in entry["argv"] else text.splitlines()
    assert_matches(got, entry["stdout"])
