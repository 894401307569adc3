"""Fast self-test of the benchmark's span accounting (no convrec run)."""

import json
import time

from tracer import Tracer, family, summarize


def test_self_times_and_other_add_up_to_wall(tmp_path):
    tracer = Tracer()

    def leaf(x):
        time.sleep(0.002)
        return x

    traced_leaf = tracer._wrap("graphs.leaf", leaf)

    def outer(n):
        time.sleep(0.001)
        return sum(traced_leaf(i) for i in range(n))

    traced_outer = tracer._wrap("encoders.outer", outer, label=lambda args, kwargs: "kg")
    tracer.run_id = "train"
    assert traced_outer(3) == 3
    tracer.run_id = "eval"
    traced_leaf(1)
    time.sleep(0.001)
    path = tmp_path / "spans.json"
    tracer.write(path)
    summary = summarize([json.loads(path.read_text())])

    assert summary["calls"] == {"graphs.leaf": 4, "encoders.outer.kg": 1}
    spans = {s[0]: s for s in tracer.spans}
    leaves = [s for s in tracer.spans if s[2] == "graphs.leaf"]
    outer_span = next(s for s in tracer.spans if s[2] == "encoders.outer.kg")
    assert [spans[s[1]][2] for s in leaves[:3]] == ["encoders.outer.kg"] * 3
    assert leaves[3][1] == -1 and leaves[3][3] == "eval"
    assert outer_span[6] < outer_span[5] - outer_span[4]
    assert family(summary, "encoders.outer") == summary["total_s"]["encoders.outer.kg"]
    layer_total = sum(summary["layer_self_s"].values()) + summary["other_s"]
    assert abs(layer_total - summary["wall_s"]) < 1e-9
    assert summary["other_s"] > 0.0


def test_exception_still_closes_the_span():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    traced = tracer._wrap("cli.boom", boom)
    try:
        traced()
    except ValueError:
        pass
    assert [s[2] for s in tracer.spans] == ["cli.boom"] and not tracer._stack
