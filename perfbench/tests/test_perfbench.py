"""Tests of the benchmark's own machinery: self time, the gate, the tracer.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import argparse
import gzip
import json

import pytest

import gate
import reference
import run
import tracing
import workloads


@pytest.fixture(scope="module")
def cli():
    return workloads.import_program()


def test_self_time_on_nested_span_tree():
    spans = [
        ["a", 0.0, 10.0, -1, 0],   # 0: root
        ["b", 1.0, 4.0, 0, 0],     # 1: child of a
        ["d", 2.0, 3.0, 1, 0],     # 2: grandchild, inside b only
        ["c", 5.0, 9.0, 0, 0],     # 3: child of a
        ["e", 6.0, 8.0, 3, 0],     # 4: children of c that overlap each other
        ["e", 7.0, 9.5, 3, 0],     # 5: and run past c's end
        ["a", 20.0, 21.0, -1, 1],  # 6: another run
    ]
    own = tracing.self_times(spans, run_id=0)
    assert own["a"] == pytest.approx(10.0 - 3.0 - 4.0)
    assert own["b"] == pytest.approx(3.0 - 1.0)
    assert own["d"] == pytest.approx(1.0)
    assert own["c"] == pytest.approx(4.0 - 3.0)
    assert own["e"] == pytest.approx(2.0 + 2.5)
    assert tracing.self_times(spans, run_id=1) == {"a": pytest.approx(1.0)}
    assert tracing.self_times(spans)["a"] == pytest.approx(4.0)


def _golden_example(tmp_path):
    manifest = json.loads((gate.GOLDEN / "example-small.json").read_text())
    for name, digest in manifest.items():
        blob = (gate.GOLDEN / "blobs" / f"{digest}.gz").read_bytes()
        (tmp_path / name).write_bytes(gzip.decompress(blob))


def _change_one_digit(path, line_no):
    lines = path.read_text().split("\n")
    line = lines[line_no]
    pos = next(i for i in range(len(line) - 1, -1, -1) if line[i].isdigit())
    lines[line_no] = line[:pos] + str((int(line[pos]) + 1) % 10) + line[pos + 1:]
    path.write_text("\n".join(lines))


def test_gate_flags_example_csv_with_one_changed_digit(tmp_path):
    _golden_example(tmp_path)
    assert gate.check_example(0, tmp_path) == []
    _change_one_digit(tmp_path / "figure3.csv", 10)
    problems = gate.check_example(0, tmp_path)
    assert len(problems) == 1
    assert problems[0].startswith("figure3.csv: differs from golden, line 11:")
    assert gate.check_example(1, tmp_path)[0] == "exit code 1, expected 0"


def test_gate_flags_verdict_with_one_changed_digit(tmp_path):
    verdict = tmp_path / "verdict.txt"
    verdict.write_bytes((gate.GOLDEN / "verify-small.txt").read_bytes())
    assert gate.check_verify(0, verdict, gate.DEFAULT_SEED) == []
    _change_one_digit(verdict, 10)
    assert gate.check_verify(0, verdict, gate.DEFAULT_SEED) != []
    # Away from the default seed only the exit code and the hard checks count.
    assert gate.check_verify(0, verdict, gate.DEFAULT_SEED + 1) == []


def test_inputs_are_a_function_of_the_seed(tmp_path):
    def instance(seed, name):
        target = tmp_path / f"{name}"
        target.mkdir()
        workloads.write_instance(target, "x", workloads._rng(seed, 1, 4), 4, 3, 2)
        return [(target / f"x_{r}.json").read_bytes() for r in ("state", "ch1", "ch2")]

    first = instance(5, "a")
    assert first == instance(5, "b")
    assert first != instance(6, "c")


def test_calls_repeat_exactly_across_two_traced_runs(cli, tmp_path):
    workload = workloads.WORKLOADS["invariance-wide"]
    workloads.make_inputs(workload.name, tmp_path / "inputs", 0)
    recorder = tracing.Recorder()
    counts = []
    for run_id in (0, 1):
        with recorder.traced(run_id):
            result = workloads.run_once(cli, workload, 0, tmp_path / "inputs",
                                        tmp_path / f"run{run_id}")
        assert result.failed == 0, result.problems
        layer = recorder.layer_metrics(run_id)
        counts.append({k: v for k, v in layer.items() if k.endswith(".calls")})
    assert counts[0] == counts[1]
    assert counts[0]["cli.main.calls"] == 1
    assert recorder.absent == []


def test_absent_binding_is_reported_and_bindings_are_restored(cli, tmp_path, monkeypatch):
    import skewchain.chains as chains

    original = chains.chain_data
    monkeypatch.setattr(tracing, "SPANS",
                        tracing.SPANS + (("chains.gone", "skewchain.chains", "_no_such"),))
    recorder = tracing.Recorder()
    with recorder.traced(0):
        assert chains.chain_data is not original
        code = cli.main(["verify", "--dims", "2", "--instances", "2",
                         "--out", str(tmp_path / "v.txt")])
    assert code == 0
    assert chains.chain_data is original
    assert recorder.absent == ["chains.gone"]
    assert recorder.layer_metrics(0)["chains.chain_data.calls"] == 10


def test_emitted_metrics_match_benchmark_json():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    layer_keys = set(tracing.Recorder().layer_metrics(0)) | {"trace.overhead_s"}
    assert layer_keys == {m["name"] for m in spec["per_layer"]}
    r = reference.NOMINAL_S
    fake = {"call_s": [[1.0, 2.0], [3.0, 2.0], [2.0, 2.0]],
            "call_ref": [[r, r], [r, r], [r, r]], "peak_rss_mb": 50.0,
            "setup_s": [0.2, 0.1, 0.3], "setup_ref": [r, r, r]}
    values = run.metric_values(argparse.Namespace(trace=0), fake, 10)
    assert set(values) == {m["name"] for m in spec["end_to_end"]}
    assert values["wall_s"] == pytest.approx(4.0)  # per-call medians 2.0 + 2.0
    assert values["items_per_s"] == pytest.approx(2.5)
    assert values["setup_s"] == pytest.approx(0.2)
    assert set(spec["workloads"][i]["name"] for i in range(4)) == set(workloads.WORKLOADS)


def test_times_are_scaled_by_the_reference_reading_around_them():
    r = reference.NOMINAL_S
    # The second call ran while the reference kernel took twice its nominal time.
    fake = {"call_s": [[1.0, 4.0]], "call_ref": [[r, 2 * r]]}
    assert run.run_wall(fake) == pytest.approx(1.0 + 2.0)
    assert reference.seconds_per_repetition(0.01) > 0
