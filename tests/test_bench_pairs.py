"""tools/bench_pairs.py on synthetic runs: the claim rule, the
no_regression verdicts, the --pairs bound, a failed run, the bytecode
caches and the verdict lines, with stub checkouts in place of the real
bench."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.15},
    {"name": "op_p90_ms", "unit": "ms", "better": "lower", "bound": 0.2},
]}
PARENT = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]


def _pairs(parent, change, failed=(0, 0)):
    """Runs of one metric per side; op_p90_ms is 1000 / ops_per_s."""
    def run(ops, fails):
        return {"failed": fails, "metrics": {"ops_per_s": ops, "op_p90_ms": 1000 / ops}}
    return [{"parent": run(p, failed[0]), "change": run(c, failed[1])}
            for p, c in zip(parent, change)]


def _faster(losses):
    """20 % faster in every pair but the first `losses`, which are 1 % slower."""
    return [p * (0.99 if i < losses else 1.2) for i, p in enumerate(PARENT)]


def test_claim_rule_needs_nine_of_ten_pairs():
    nine = bench_pairs.summarize(SPEC, _pairs(PARENT, _faster(1)))
    for name in ("ops_per_s", "op_p90_ms"):
        assert nine[name]["pairs_won"] == 9 and nine[name]["pairs"] == 10
        assert nine[name]["claim_rule_holds"] is True
        assert nine[name]["no_regression"] is True
    eight = bench_pairs.summarize(SPEC, _pairs(PARENT, _faster(2)))
    assert eight["ops_per_s"]["pairs_won"] == 8
    assert eight["ops_per_s"]["claim_rule_holds"] is False


def test_claim_rule_needs_a_gap_past_the_quartiles_and_no_more_failures():
    # every pair won by 1 op/s, inside the parent's quartiles
    small = bench_pairs.summarize(SPEC, _pairs(PARENT, [p + 1 for p in PARENT]))
    assert small["ops_per_s"]["pairs_won"] == 10
    assert small["ops_per_s"]["claim_rule_holds"] is False
    failing = bench_pairs.summarize(SPEC, _pairs(PARENT, _faster(0), failed=(0, 1)))
    assert failing["ops_per_s"]["claim_rule_holds"] is False


def test_no_regression_verdicts():
    # the parent's IQR/median is 0.5, over both bounds
    wide = [60, 140, 80, 120, 70, 130, 90, 110, 100, 100]
    near = bench_pairs.summarize(SPEC, _pairs(wide, [v - 5 for v in wide]))
    assert near["ops_per_s"]["no_regression"] == "unresolved"
    assert near["op_p90_ms"]["no_regression"] == "unresolved"
    # every change run better than every parent run overrides the spread
    above = bench_pairs.summarize(SPEC, _pairs(wide, [150 + i for i in range(10)]))
    assert above["ops_per_s"]["no_regression"] is True
    assert above["op_p90_ms"]["no_regression"] is True
    # a tight parent: 20 % slower is past the 0.15 bound, 10 % is within it
    slow = bench_pairs.summarize(SPEC, _pairs(PARENT, [p * 0.8 for p in PARENT]))
    assert slow["ops_per_s"]["no_regression"] is False
    within = bench_pairs.summarize(SPEC, _pairs(PARENT, [p * 0.9 for p in PARENT]))
    assert within["ops_per_s"]["no_regression"] is True


def test_fewer_than_two_pairs_is_a_usage_error(monkeypatch, tmp_path):
    def refuse(*args):
        raise AssertionError("a bench run started")

    monkeypatch.setattr(bench_pairs, "run_once", refuse)
    for pairs in ("1", "0"):
        argv = [str(tmp_path), str(tmp_path), "--workload", "cli_mix", "--pairs", pairs,
                "--out", str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            bench_pairs.main(argv)
        assert exc.value.code == 2
    assert not list(tmp_path.iterdir())


_PASSING_RUN = '''import json, os
print("provenance " + json.dumps({"pycache": os.environ.get("PYTHONPYCACHEPREFIX")}))
metrics = {"ops_per_s": 100.0, "op_p90_ms": 10.0}
print(json.dumps({"attempted": 5, "failed": 0,
                  "metrics": {k: {"value": v} for k, v in metrics.items()}}))
'''
_FAILING_RUN = '''import sys
print("Traceback (most recent call last):", file=sys.stderr)
print("RuntimeError: stub workload broke", file=sys.stderr)
sys.exit(3)
'''


def _stub_checkout(root, run_source):
    (root / "bench").mkdir(parents=True)
    (root / "bench" / "run.py").write_text(run_source, encoding="utf-8")
    (root / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    return root


def test_a_failed_run_is_reported_and_nothing_is_written(tmp_path, capsys):
    """The change's bench/run.py exits 3 in pair 0, after the parent's run
    passed: the pair, the side, the exit code and the stderr tail are
    reported, the exit status is nonzero, and the claim file is untouched."""
    parent = _stub_checkout(tmp_path / "parent", _PASSING_RUN)
    change = _stub_checkout(tmp_path / "change", _FAILING_RUN)
    out = tmp_path / "out"
    out.mkdir()
    claim = out / "BENCH_cli_mix.json"
    claim.write_text('{"seeds": {}}\n', encoding="utf-8")
    argv = [str(parent), str(change), "--workload", "cli_mix", "--pairs", "2",
            "--seconds", "1", "--out", str(out)]
    assert bench_pairs.main(argv) != 0
    err = capsys.readouterr().err
    assert "pair 0: the change run exited 3" in err
    assert "RuntimeError: stub workload broke" in err
    assert claim.read_text(encoding="utf-8") == '{"seeds": {}}\n'
    assert [p.name for p in out.iterdir()] == [claim.name]


def test_each_side_caches_bytecode_apart_and_outside_the_checkouts(tmp_path):
    """Every run of a side gets the same cache prefix, the two sides get
    distinct ones, neither lies inside a checkout, and none is left behind."""
    parent = _stub_checkout(tmp_path / "parent", _PASSING_RUN)
    change = _stub_checkout(tmp_path / "change", _PASSING_RUN)
    argv = [str(parent), str(change), "--workload", "cli_mix", "--pairs", "2",
            "--seconds", "1", "--out", str(tmp_path)]
    assert bench_pairs.main(argv) == 0
    doc = json.loads((tmp_path / "BENCH_cli_mix.json").read_text(encoding="utf-8"))
    runs = doc["seeds"]["0"][0]["runs"]
    prefixes = {side: {Path(r[side]["provenance"]["pycache"]) for r in runs}
                for side in ("parent", "change")}
    assert all(len(p) == 1 for p in prefixes.values())
    (par,), (chg,) = prefixes["parent"], prefixes["change"]
    assert par != chg
    for prefix in (par, chg):
        assert prefix.is_absolute() and not prefix.exists()
        assert not prefix.is_relative_to(parent) and not prefix.is_relative_to(change)


def test_each_metric_gets_a_verdict_line_after_the_last_pair(tmp_path, capsys):
    """A change 25 % faster in both pairs: after the pair lines, one line per
    end-to-end metric with the parent's median and quartiles, the change's
    median, the pairs won and both verdicts, as in the claim file."""
    parent = _stub_checkout(tmp_path / "parent", _PASSING_RUN)
    faster = _PASSING_RUN.replace("100.0", "125.0").replace("10.0", "8.0")
    change = _stub_checkout(tmp_path / "change", faster)
    argv = [str(parent), str(change), "--workload", "cli_mix", "--pairs", "2",
            "--seconds", "1", "--out", str(tmp_path)]
    assert bench_pairs.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["pair 0", "pair 1"]
    assert lines[2:] == [
        "ops_per_s (1/s, higher is better): parent median 100 (q1 100, q3 100), "
        "change median 125; won 2/2; claim_rule_holds True; no_regression True",
        "op_p90_ms (ms, lower is better): parent median 10 (q1 10, q3 10), "
        "change median 8; won 2/2; claim_rule_holds True; no_regression True",
    ]
    doc = json.loads((tmp_path / "BENCH_cli_mix.json").read_text(encoding="utf-8"))
    metrics = doc["seeds"]["0"][0]["metrics"]
    assert sorted(lines[2:]) == sorted(bench_pairs.verdict_line(n, m) for n, m in metrics.items())
