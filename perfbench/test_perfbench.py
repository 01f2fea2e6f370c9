"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import wplarcs  # noqa: E402
from wplarcs import cli, homext, intersect, tilting  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _rounds(name, seed, count):
    workload = WORKLOADS[name](seed, str(ROOT / "src"), in_process=True)
    workload.setup()
    return [[(op.kind, op.args, op.info) for op in workload.next_round()] for _ in range(count)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_for_a_seed(name):
    first = _rounds(name, 7, 2)
    assert first == _rounds(name, 7, 2)
    assert first != _rounds(name, 8, 2)


def _bindings():
    out = {}
    for name, module in sys.modules.items():
        if module is not None and (name == "wplarcs" or name.startswith("wplarcs.")):
            for attr, value in vars(module).items():
                if callable(value):
                    out[name, attr] = value
    return out


def test_tracer_restores_every_binding():
    before = _bindings()
    tracer = tracer_mod.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer:
            # Every module that imported positive_int sees the wrapper.
            for module in (wplarcs, intersect, homext, tilting):
                assert module.positive_int is not before["wplarcs.intersect", "positive_int"]
            assert cli.main is not before["wplarcs.cli", "main"]
            1 / 0
    assert _bindings() == before


def test_tracer_records_nested_spans_and_answer_sums():
    from wplarcs.core import LineBundle, Surface, normal_form

    s = Surface(2, 3)
    X = LineBundle(s, normal_form(0, 0, 0, s))
    Y = LineBundle(s, normal_form(0, 0, 5, s))
    tracer = tracer_mod.Tracer()
    tracer.op_id = 3
    with tracer:
        assert homext.hom_dim(X, Y) == 6
    summary = tracer.summary([3])
    assert summary["homext.hom_dim.calls"] == 1
    assert summary["intersect.positive_int.calls"] == 2
    assert summary["core.move.calls"] == 2
    assert summary["intersect.positive_int.answer_sum"] == 12
    root = tracer.names.index("homext.hom_dim")
    assert [tracer.parent[i] for i in range(len(tracer)) if tracer.name_id[i] != root] == [0] * 6
    assert tracer.summary([4])["homext.hom_dim.calls"] == 0


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 100] holds A [10, 30] (which holds G [15, 20]), B [40, 90]
    # and C [80, 95]; C overlaps B, so the root's children cover 20 + 55.
    start = [0, 10, 15, 40, 80]
    end = [100, 30, 20, 90, 95]
    parent = [-1, 0, 1, 0, 0]
    assert tracer_mod.self_times(start, end, parent) == [25, 15, 5, 50, 15]
    # A child running past its parent is clipped to the parent's interval.
    assert tracer_mod.self_times([0, 5], [10, 30], [-1, 0]) == [5, 25]


def test_tail_percentile_leaves_ten_samples_beyond():
    rounds = [[(float(i),) for i in range(1, 51)], [(float(i),) for i in range(51, 101)]]
    assert run.tail(rounds) == (90.0, 90.0, 100)
    # Under 20 ops: the median over rounds of each round's slowest op.
    rounds = [[(1.0,), (5.0,)], [(2.0,), (9.0,)], [(7.0,), (3.0,)]]
    assert run.tail(rounds) == (7.0, 100.0, 6)


def test_independent_census_counts():
    assert checks.census_counts(2, 3) == tilting.census(2, 3)
    assert checks.census_counts(3, 3) == {"bundle_classes": 20, "fundamental": 5, "sheaf_classes": 200}


def _traced(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    return {k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")}


@pytest.mark.parametrize("workload", ["hom-deep", "collections"])
def test_call_counts_repeat_between_traced_runs(workload):
    first = _traced(workload, 5)
    assert sum(first.values()) > 0
    assert first == _traced(workload, 5)


def test_speed_factors_take_the_samples_around_each_op(monkeypatch):
    import speed

    monkeypatch.setattr(speed, "NOMINAL_S", 1.0)
    monkeypatch.setattr(speed, "SPAN", 1.0)
    monkeypatch.setattr(speed, "MARGIN_S", 0.5)
    monkeypatch.setattr(speed, "WINDOW", 2)
    samples = [(0.0, 1.0), (1.0, 2.0), (2.0, 4.0), (10.0, 8.0), (30.0, 0.5)]
    # A short op reaches 0.5 s beyond its ends: 1.0 and 2.0 only.
    # A 3-second op reaches 3.5 s: 2.0, 4.0 and 8.0.
    # An op with no sample within reach takes the two nearest.
    assert speed.factors(samples, [0.6, 4.5, 20.0], [0.1, 3.0, 0.1]) == [
        1 / 1.5, 1 / 4.0, 1 / 4.25,
    ]
    # Fewer samples than WINDOW: the median of all of them.
    monkeypatch.setattr(speed, "WINDOW", 9)
    assert speed.factors([(0.0, 2.0), (1.0, 4.0)], [0.2], [0.1]) == [1 / 3]
