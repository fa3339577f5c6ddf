import json

import numpy as np
import pytest

import workloads


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_a_seed_always_regenerates_identical_inputs(name):
    for seed in (0, 1, 17):
        first = json.dumps(workloads.make_inputs(name, seed), sort_keys=True)
        assert json.dumps(workloads.make_inputs(name, seed), sort_keys=True) == first
    assert json.dumps(workloads.make_inputs(name, 1)) != json.dumps(workloads.make_inputs(name, 2))


def test_seed_zero_reproduces_the_paper_presets():
    assert workloads.make_inputs("fig3-rate-split", 0)["gains"] == [1.3628, 3.3628]
    outer = workloads.make_inputs("outer-bound", 0)
    assert (outer["b1"], outer["b2"]) == (3.3628, 2.0)
    sweep = [op[0][-1] for op in workloads.make_inputs("gain-sweep", 0)["ops"]]
    assert {"1.0", "1.3628", "2.0", "3.3628", "4.0"} <= set(sweep)


@pytest.mark.parametrize("seed", range(6))
def test_generated_inputs_stay_in_the_checked_ranges(seed):
    lo, hi = workloads.make_inputs("fig3-rate-split", seed)["gains"]
    assert workloads.B_STAR <= lo < hi <= workloads.B_MAX
    assert workloads.make_inputs("outer-bound", seed)["b2"] >= workloads.FIG5_B_MIN
    ops = workloads.make_inputs("gain-sweep", seed)["ops"]
    assert len(ops) >= 100
    for check, region in ops:
        b = float(check[check.index("--b") + 1])
        assert 1.0 <= b <= 4.0
        assert seed == 0 or not workloads.B_STAR < b <= workloads.B_STAR + workloads.THRESHOLD_BAND
        assert region[region.index("--b") + 1] == check[check.index("--b") + 1]
    dmc = workloads.make_inputs("dmc-search", seed)
    assert sum(op["call"] == "search" for op in dmc["ops"]) >= 100
    for chan in dmc["channels"]:
        for rows in (chan["k1"], *chan["k2"]):
            assert np.allclose(np.sum(rows, axis=-1), 1.0, atol=1e-13, rtol=0.0)
