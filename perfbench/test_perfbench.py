"""Self-tests: seeded inputs, the percentile rule, span self time,
determinism of modeled results and the traced run's layer coverage."""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import pytest

import harness
import run
from calibration import REFERENCE_S, Calibration
from harness import run_round
from metrics import (
    TooFewSamples, end_to_end, per_layer, per_query_median, percentile,
)
from load import WORKLOADS, Recorder, make_inputs
from tracing import Span, Tracer, covered_wall, self_times

#: Scaled-down workloads: same shapes and mixes, seconds instead of minutes.
TINY = {
    "wide_update": dict(n_rows=1_200, duration=0.6),
    "hot_firehose": dict(n_rows=4_000, duration=0.3),
    "scan_dashboard": dict(n_rows=2_000, duration=0.6),
}
#: Layers each workload exists to exercise (see README.md).
EXPECTED_LAYERS = {
    "wide_update": {"imcs.imcu", "imcs.population", "imcs.scan"},
    "hot_firehose": {
        "db.primary", "redo.shipping", "adg.merger", "adg.apply",
        "adg.coordinator", "dbim_adg.mining", "dbim_adg.flush",
    },
    "scan_dashboard": {
        "imcs.scan", "query.service", "query.cache", "query.worker",
    },
}


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


# -- inputs ---------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    spec = tiny(name)
    assert make_inputs(spec, 7) == make_inputs(spec, 7)
    first, other = make_inputs(spec, 7), make_inputs(spec, 8)
    assert first.ops != other.ops
    assert first.adhoc != other.adhoc
    assert first.rows != other.rows


def test_inputs_commit_every_transaction():
    inputs = make_inputs(tiny("hot_firehose"), 3)
    dml = [op for op in inputs.ops if op.kind != "F"]
    assert dml and dml[-1].commit
    assert {op.kind for op in inputs.ops} == {"U", "I", "F"}


# -- percentile rule --------------------------------------------------------
def test_percentile_nearest_rank_with_ten_beyond():
    values = [float(v) for v in range(1, 1001)]
    assert percentile(values, 0.99) == 990.0
    assert percentile(values, 0.5) == 500.0
    assert percentile(list(range(21)), 0.5) == 10


def test_percentile_refuses_too_few_samples_beyond():
    with pytest.raises(TooFewSamples):
        percentile([1.0] * 999, 0.99)
    with pytest.raises(TooFewSamples):
        percentile([1.0] * 19, 0.5)


def test_per_query_median_drops_a_stall_in_one_round():
    rounds = [[1.0, 2.0, 3.0], [1.1, 9.0, 3.1], [0.9, 2.1, 2.9]]
    assert per_query_median(rounds) == [1.0, 2.1, 3.0]


def test_percentile_rejects_q_outside_unit_interval():
    with pytest.raises(ValueError):
        percentile([1.0] * 5000, 99)


# -- calibration ----------------------------------------------------------------
def test_calibration_rescales_by_the_nearest_kernel_samples():
    calibration = Calibration()
    calibration.at = [float(t) for t in range(20)]
    calibration.took = [REFERENCE_S] * 10 + [2 * REFERENCE_S] * 10
    assert calibration.scale(2.0) == 1.0
    assert calibration.scale(17.5) == 0.5
    # straddling the change: median of the samples on either side
    assert calibration.scale(10.0) == pytest.approx(2 / 3)


def test_calibration_ticks_at_most_every_interval():
    calibration = Calibration()
    for now in (0.0, 0.001, 0.002, 1.0):
        calibration.tick(now)
    assert calibration.at == [0.0, 1.0]
    assert len(calibration.took) == 2 and calibration.seconds > 0.0


def test_rescale_integrates_the_speed_along_a_stretch():
    calibration = Calibration()
    calibration.at = [float(t) for t in range(20)]
    calibration.took = [REFERENCE_S] * 10 + [2 * REFERENCE_S] * 10
    # wholly at the reference speed, then wholly at half of it
    assert calibration.rescale(0.5, 3.5) == pytest.approx(3.0)
    assert calibration.rescale(15.0, 19.0) == pytest.approx(2.0)
    # a stretch between two samples is rescaled as one piece
    assert calibration.rescale(2.2, 2.4) == pytest.approx(0.2)


def test_round_rescales_every_wall_figure():
    spec = tiny("wide_update")
    result = run_round(spec, make_inputs(spec, 5))
    assert len(result.adhoc_ref_s) == len(result.recorder.adhoc_wall_s) > 0
    assert result.steady_ref_s > 0.0 and result.setup_ref_s > 0.0
    # rescaling corrects for the host's speed, within a few-fold
    assert 0.2 < result.steady_ref_s / result.steady_s < 5.0


# -- span self time -----------------------------------------------------------
def test_self_time_subtracts_union_of_child_intervals():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),    # overlaps a: union of a+b is [1, 6]
        Span("c", 9.0, 12.0, 0),   # sticks out of root: clipped to [9, 10]
        Span("d", 1.5, 2.0, 1),    # grandchild: charged to a, not root
        Span("solo", 20.0, 21.0, -1),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.5, 3.0, 3.0, 0.5, 1.0])
    assert covered_wall(spans) == pytest.approx(11.0)


# -- determinism ----------------------------------------------------------------
def test_same_seed_rounds_are_bit_identical_in_modeled_results():
    spec = tiny("wide_update")
    inputs = make_inputs(spec, 11)
    first, second = run_round(spec, inputs), run_round(spec, inputs)
    assert first.sim_signature() == second.sim_signature()
    assert first.recorder.failed == 0
    other = run_round(spec, make_inputs(spec, 12))
    assert other.sim_signature() != first.sim_signature()


_SIGNATURE_SCRIPT = """
import dataclasses, hashlib, sys
sys.path[:0] = sys.argv[1:3]
from harness import run_round
from load import WORKLOADS, Recorder, make_inputs
spec = dataclasses.replace(WORKLOADS["hot_firehose"], n_rows=2000, duration=0.2)
result = run_round(spec, make_inputs(spec, 5))
print(hashlib.sha256(repr(result.sim_signature()).encode()).hexdigest())
"""


def test_modeled_results_do_not_depend_on_hash_seed():
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run(
            [sys.executable, "-c", _SIGNATURE_SCRIPT, src, here],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        digests.add(out.stdout.strip())
    assert len(digests) == 1


# -- traced run -------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_round_covers_layers_and_adds_up(name):
    spec = tiny(name)
    inputs = make_inputs(spec, 4)
    plain = run_round(spec, inputs)
    traced = run_round(spec, inputs, Tracer())
    # tracing is transparent to the simulation
    assert traced.sim_signature() == plain.sim_signature()
    spans = traced.tracer.spans()
    names = {span.name for span in spans}
    assert EXPECTED_LAYERS[name] <= names
    metrics = per_layer(traced, plain)
    assert set(metrics) == {m["name"] for m in _config()["per_layer"]}
    wall = traced.wall_s + traced.check_s
    total_self = sum(self_times(spans))
    assert total_self + metrics["sim.unattributed_s"][0] == pytest.approx(
        wall, rel=1e-9
    )
    assert metrics["sim.unattributed_s"][0] >= 0


def test_imcu_build_patch_is_restored():
    from repro.imcs.imcu import IMCU

    original = IMCU.__dict__["build"]
    with Tracer().imcu_builds():
        assert IMCU.__dict__["build"] is not original
    assert IMCU.__dict__["build"] is original


def test_golden_check_catches_a_diverging_standby(monkeypatch):
    spec = tiny("scan_dashboard")
    expected = harness._Checker._expected

    def drop_one_row(self, scn, query):
        rows = expected(self, scn, query)
        return rows[1:] if not query.predicates else rows

    monkeypatch.setattr(harness._Checker, "_expected", drop_one_row)
    with pytest.raises(harness.GoldenMismatch):
        run_round(spec, make_inputs(spec, 1))


# -- exit codes -----------------------------------------------------------------
def test_golden_mismatch_exits_nonzero_without_result(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise harness.GoldenMismatch("forced")

    monkeypatch.setattr(run, "measure", broken)
    code = run.main(["--workload", "wide_update", "--seed", "1",
                     "--seconds", "1"])
    assert code == 3
    assert "{" not in capsys.readouterr().out


def test_unknown_workload_exits_nonzero():
    assert run.main(["--workload", "nope", "--seed", "1",
                     "--seconds", "1"]) == 2


def _config() -> dict:
    root = pathlib.Path(__file__).resolve().parent.parent
    return json.loads((root / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_workloads_and_end_to_end_metrics():
    config = _config()
    assert {w["name"] for w in config["workloads"]} <= set(WORKLOADS)
    recorder = Recorder(lambda scn, query, rows: True)
    samples = [i / 1e4 for i in range(1, 1001)]
    recorder.adhoc_wall_s = recorder.adhoc_sim_s = samples
    recorder.service_sim_s = recorder.lag_sim_s = samples
    recorder.ops_issued = 10
    rounds = [harness.Round(setup_s=1.0, steady_s=2.0, recorder=recorder,
                            check_s=0.0, setup_ref_s=1.0, steady_ref_s=2.0,
                            adhoc_ref_s=samples)]
    metrics = end_to_end(rounds, [1.0], 100.0)
    assert set(metrics) == {m["name"] for m in config["end_to_end"]}
    assert metrics["pipeline_ops_per_s"] == (5.0, "ops/s")
    assert metrics["query_sim_ms_p99"] == (pytest.approx(99.0), "ms")
