"""tools/bench_pairs.py keeps what it measured when one run fails or gives
a wrong output."""
import importlib.util
import json
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"

# Stands in for lmbench/run.py: one result line, which reports a wrong
# output on WRONG_SEED, or exit 3 on FAIL_SEED.  A plain run writes its
# operation times to lmbench/out, except on NOFILE_SEED: operation "a" takes
# SPEED * seed times 1, 3 and 2, operation "b" SPEED.
STUB = '''
import json, os, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
if seed == FAIL_SEED:
    sys.stderr.write("Traceback ...\\nRuntimeError: stub failure on seed %d\\n" % seed)
    sys.exit(3)
if sys.argv[sys.argv.index("--trace") + 1] == "0" and seed != NOFILE_SEED:
    os.makedirs("lmbench/out", exist_ok=True)
    with open("lmbench/out/result-w-seed%d-trace0.json" % seed, "w") as fh:
        json.dump({"op_times_s": {"a": [SPEED * seed, 3 * SPEED * seed, 2 * SPEED * seed],
                                  "b": [SPEED]}}, fh)
wrong = seed == WRONG_SEED
print(json.dumps({"correct": not wrong,
                  "metrics": {"round_s": {"value": SPEED * seed, "unit": "s"}},
                  "failed": int(wrong), "attempted": 24}))
'''


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _checkout(root: pathlib.Path, name: str, speed: float, fail_seed: int,
              wrong_seed: int = -1, nofile_seed: int = -1) -> str:
    (root / name / "lmbench").mkdir(parents=True)
    (root / name / "lmbench" / "run.py").write_text(
        STUB.replace("FAIL_SEED", str(fail_seed)).replace("WRONG_SEED", str(wrong_seed))
        .replace("NOFILE_SEED", str(nofile_seed)).replace("SPEED", str(speed)))
    return str(root / name)


def test_failed_run_keeps_earlier_pairs(tmp_path):
    out = tmp_path / "bench.json"
    code = _bench_pairs().main([
        "--parent", _checkout(tmp_path, "parent", 1.0, fail_seed=12),
        "--change", _checkout(tmp_path, "change", 0.5, fail_seed=-1),
        "--workload", "w", "--seeds", "11-14", "--seconds", "1", "--out", str(out)])
    assert code == 1
    record = json.loads(out.read_text())["workloads"]["w"]
    first, failing = record["pairs"]
    assert first["parent"]["metrics"]["round_s"]["value"] == 11.0
    assert first["change"]["metrics"]["round_s"]["value"] == 5.5
    # seed 12 runs the change first, then the parent, which fails
    assert failing["change"]["metrics"]["round_s"]["value"] == 6.0
    assert failing["parent"]["exit_code"] == 3
    assert "stub failure on seed 12" in failing["parent"]["stderr_tail"]
    assert "metrics" not in failing["parent"]
    assert record["incomplete"] == "parent run on seed 12 exited 3"
    assert "end_to_end" not in record


def test_complete_run_summarises_every_pair(tmp_path):
    out = tmp_path / "bench.json"
    code = _bench_pairs().main([
        "--parent", _checkout(tmp_path, "parent", 1.0, fail_seed=-1),
        "--change", _checkout(tmp_path, "change", 0.5, fail_seed=-1),
        "--workload", "w", "--seeds", "1-4", "--seconds", "1", "--out", str(out)])
    assert code == 0
    record = json.loads(out.read_text())["workloads"]["w"]
    assert len(record["pairs"]) == 4
    assert "incomplete" not in record
    assert record["end_to_end"]["round_s"]["change_lower_in_pairs"] == 4
    assert record["failed_share"]["parent"] == ["0/24"] * 4
    # per-run medians of "a" are 2 * SPEED * seed over seeds 1-4
    assert record["op_median_s"] == {"parent": {"a": 5.0, "b": 1.0},
                                     "change": {"a": 2.5, "b": 0.5}}


def test_missing_or_stale_op_times_record_nothing(tmp_path):
    out = tmp_path / "bench.json"
    parent = _checkout(tmp_path, "parent", 1.0, fail_seed=-1, nofile_seed=2)
    # seed 2's parent run writes no file, so an older one must be ignored
    stale = pathlib.Path(parent) / "lmbench" / "out" / "result-w-seed2-trace0.json"
    stale.parent.mkdir()
    stale.write_text(json.dumps({"op_times_s": {"a": [100.0], "c": [100.0]}}))
    code = _bench_pairs().main([
        "--parent", parent,
        "--change", _checkout(tmp_path, "change", 0.5, fail_seed=-1, nofile_seed=3),
        "--workload", "w", "--seeds", "1-3", "--seconds", "1", "--out", str(out)])
    assert code == 0
    record = json.loads(out.read_text())["workloads"]["w"]
    # parent "a" medians from seeds 1 and 3 (2 and 6), change from 1 and 2
    assert record["op_median_s"] == {"parent": {"a": 4.0, "b": 1.0},
                                     "change": {"a": 1.5, "b": 0.5}}


def test_wrong_output_ends_the_measurement(tmp_path):
    out = tmp_path / "bench.json"
    code = _bench_pairs().main([
        "--parent", _checkout(tmp_path, "parent", 1.0, fail_seed=-1),
        "--change", _checkout(tmp_path, "change", 0.5, fail_seed=-1, wrong_seed=13),
        "--workload", "w", "--seeds", "11-14", "--seconds", "1", "--out", str(out)])
    assert code == 1
    record = json.loads(out.read_text())["workloads"]["w"]
    assert len(record["pairs"]) == 3
    wrong = record["pairs"][-1]
    # seed 13 runs the parent first, then the change, whose output is wrong
    assert wrong["parent"]["correct"] is True
    assert wrong["change"]["correct"] is False
    assert wrong["change"]["metrics"]["round_s"]["value"] == 6.5
    assert record["incomplete"] == "change run on seed 13 gave a wrong output"
    assert "end_to_end" not in record


def test_wrong_traced_output_ends_the_measurement(tmp_path):
    out = tmp_path / "bench.json"
    code = _bench_pairs().main([
        "--parent", _checkout(tmp_path, "parent", 1.0, fail_seed=-1, wrong_seed=3),
        "--change", _checkout(tmp_path, "change", 0.5, fail_seed=-1),
        "--workload", "w", "--seeds", "1-2", "--seconds", "1", "--traced", "2",
        "--out", str(out)])
    assert code == 1
    record = json.loads(out.read_text())["workloads"]["w"]
    # the pairs were summarised; the first traced run (seed 3, parent) is wrong
    assert record["end_to_end"]["round_s"]["change_lower_in_pairs"] == 2
    (entry,) = record["traced"]["parent"]
    assert (entry["seed"], entry["correct"]) == (3, False)
    assert entry["metrics"]["round_s"]["value"] == 3.0
    assert record["traced"]["change"] == []
    assert record["incomplete"] == "parent run on seed 3 gave a wrong output"
