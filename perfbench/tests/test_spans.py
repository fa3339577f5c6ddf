import threading
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

import spans

# id, parent, name, start, end, op, thread
TREE = [
    (1, None, "cli.main", 0.0, 10.0, 0, 1),
    (2, 1, "gaussian.g_region", 1.0, 4.0, 0, 1),
    (3, 1, "bounds.co1_region", 5.0, 9.0, 0, 1),
    (4, 3, "geometry.support_max_over_pentagons", 6.0, 8.0, 0, 1),
    (5, None, "dmc.random_search_region", 11.0, 12.0, 1, 1),
]


def test_self_time_subtracts_covered_child_intervals():
    selfs = spans.self_times(TREE)
    assert selfs == {1: 3.0, 2: 3.0, 3: 2.0, 4: 2.0, 5: 1.0}


def test_overlapping_children_are_counted_once():
    tree = [(1, None, "cli.main", 0.0, 10.0, 0, 1),
            (2, 1, "gaussian.g_region", 1.0, 6.0, 0, 2),
            (3, 1, "gaussian.g1_region", 4.0, 8.0, 0, 3)]
    assert spans.self_times(tree)[1] == pytest.approx(3.0)


def test_layer_totals_plus_other_sum_to_wall():
    totals = spans.layer_totals(TREE, -1.0, 13.0)
    assert totals["other"] == pytest.approx(3.0)
    assert totals["geometry"] == 2.0 and totals["model"] == 0.0
    assert sum(totals.values()) == pytest.approx(14.0)


def test_recorder_links_pool_thread_spans_to_the_open_root():
    rec = spans.SpanRecorder(keep=("t.leaf",))
    leaf = rec.wrap("t.leaf", lambda x: x + 1)

    def job():
        return leaf(1)

    def root():
        with ThreadPoolExecutor(max_workers=1) as pool:
            return pool.submit(job).result()

    traced_root = rec.wrap("t.root", root)
    rec.op = 7
    assert traced_root() == 2
    by_name = {s[2]: s for s in rec.spans}
    assert by_name["t.leaf"][1] == by_name["t.root"][0]
    assert by_name["t.leaf"][6] != threading.get_ident()
    assert {s[5] for s in rec.spans} == {7}
    (args, _kwargs, result), = rec.kept.values()
    assert args == (1,) and result == 2


def test_recorder_closes_spans_when_the_call_raises():
    rec = spans.SpanRecorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        rec.wrap("t.boom", boom)()
    assert [s[2] for s in rec.spans] == ["t.boom"]
    assert rec.wrap("t.ok", lambda: 1)() == 1
    assert rec.spans[-1][1] is None


def test_instrument_shares_one_wrapper_across_namespaces():
    home = types.ModuleType("cograte.geometry")
    user = types.ModuleType("cograte.cli")

    def kernel(x):
        return 2 * x

    def _private(x):
        return x

    kernel.__module__ = _private.__module__ = "cograte.geometry"
    kernel.__qualname__ = "kernel"
    home.kernel = user.kernel = kernel
    home._private = _private
    rec = spans.SpanRecorder()
    names = spans.instrument(rec, {"geometry": home, "cli": user})
    assert names == ["geometry.kernel"]
    assert home.kernel is user.kernel and home.kernel is not kernel
    assert home._private is _private
    assert user.kernel(3) == 6 and [s[2] for s in rec.spans] == ["geometry.kernel"]
