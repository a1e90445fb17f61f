"""``tools/ab_pairs.py``'s summary, on canned result lines (no benchmark run)."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

END_TO_END = [
    {"name": "throughput_msg_s", "unit": "msg/s", "better": "higher", "bound": 0.25},
    {"name": "cpu_ms_per_msg", "unit": "ms", "better": "lower", "bound": 0.25},
]


def _line(throughput, cpu, correct=True):
    return json.dumps({
        "correct": correct, "attempted": 100, "failed": 0,
        "metrics": {
            "throughput_msg_s": {"value": throughput, "unit": "msg/s"},
            "cpu_ms_per_msg": {"value": cpu, "unit": "ms"},
        },
    })


def _pairs(*rows):
    return [
        (ab_pairs.result_of(_line(*parent)), ab_pairs.result_of(_line(*change)))
        for parent, change in rows
    ]


def test_medians_wins_and_the_parents_iqr():
    pairs = _pairs(
        ((100.0, 0.50), (120.0, 0.40)),
        ((110.0, 0.45), (105.0, 0.41)),
        ((90.0, 0.55), (130.0, 0.45)),
        ((100.0, 0.40), (100.0, 0.40)),  # a tie is not a win
    )
    throughput, cpu = ab_pairs.summarise(pairs, END_TO_END)
    assert throughput["name"] == "throughput_msg_s" and throughput["unit"] == "msg/s"
    assert throughput["parent"] == [100.0, 110.0, 90.0, 100.0]
    assert throughput["parent_median"] == 100.0
    assert throughput["change_median"] == pytest.approx(112.5)
    assert throughput["wins"] == 2
    # statistics.quantiles(n=4) of 90, 100, 100, 110: 92.5 and 107.5.
    assert throughput["parent_iqr"] == pytest.approx(15.0)
    assert cpu["wins"] == 3
    assert cpu["change_median"] == pytest.approx(0.405)


def test_one_pair_has_no_spread():
    (throughput, _) = ab_pairs.summarise(_pairs(((100.0, 0.5), (90.0, 0.6))), END_TO_END)
    assert throughput["wins"] == 0 and throughput["parent_iqr"] == 0.0


def test_the_result_is_the_last_line_of_a_run():
    stdout = "local_batched seed=1 ...\n  throughput_msg_s 1.0 msg/s\n" + _line(1.0, 2.0, False)
    result = ab_pairs.result_of(stdout)
    assert result["correct"] is False
    assert result["metrics"]["cpu_ms_per_msg"]["value"] == 2.0
    assert ab_pairs.result_of("Traceback (most recent call last):\n  boom") is None
    assert ab_pairs.result_of("") is None
    assert ab_pairs.result_of('{"status": "ok"}') is None
