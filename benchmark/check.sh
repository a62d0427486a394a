#!/usr/bin/env bash
# Validate BENCHMARK.json against the contract, and what stackbench
# prints against BENCHMARK.json: every workload, untraced and traced,
# in quick mode (a few seconds each; the numbers compare with nothing).
set -euo pipefail
cd "$(dirname "$0")/.."

python3 - "$@" <<'PY'
import json, re, subprocess, sys

spec = json.load(open("BENCHMARK.json"))
assert list(spec) == ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"], list(spec)
name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
unit_ok = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
names = [w["name"] for w in spec["workloads"]]
names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
assert all(name_ok.match(n) for n in names), [n for n in names if not name_ok.match(n)]
assert len(set(names)) == len(names), "a name is used twice"
assert 2 <= len(spec["workloads"]) <= 8 and 1 <= len(spec["end_to_end"]) <= 16
assert 1 <= len(spec["per_layer"]) <= 128 and 1 <= spec["run_seconds"] <= 60
for w in spec["workloads"]:
    assert list(w) == ["name", "why"] and len(w["why"]) <= 200 and "\n" not in w["why"], w
for m in spec["end_to_end"]:
    assert list(m) == ["name", "unit", "better", "bound"] and 0 < m["bound"] <= 0.25, m
for m in spec["per_layer"]:
    assert list(m) == ["name", "unit", "better"], m
for m in spec["end_to_end"] + spec["per_layer"]:
    assert unit_ok.match(m["unit"]) and m["better"] in ("higher", "lower"), m
setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower", "setup_s"
assert len(spec["command"]) <= 32 and all(len(a) <= 200 for a in spec["command"])
print("BENCHMARK.json: schema ok,", len(spec["workloads"]), "workloads,",
      len(spec["end_to_end"]), "end-to-end and", len(spec["per_layer"]), "per-layer metrics")

failures = 0
for w in spec["workloads"]:
    for trace, listed in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
        cmd = spec["command"] + ["--workload", w["name"], "--seed", "1", "--seconds", "1",
                                 "--trace", trace, "--quick"]
        run = subprocess.run(cmd, capture_output=True, text=True)
        lines = run.stdout.strip().splitlines()
        try:
            assert run.returncode == 0, f"exit code {run.returncode}"
            result = json.loads(lines[-1])
            assert list(result) == ["correct", "attempted", "failed", "metrics"], list(result)
            assert result["correct"] is True and result["failed"] == 0, result["failed"]
            assert isinstance(result["attempted"], int) and result["attempted"] >= 1
            assert list(result["metrics"]) == [m["name"] for m in listed], "metric names differ"
            for m in listed:
                got = result["metrics"][m["name"]]
                assert list(got) == ["value", "unit"] and got["unit"] == m["unit"], m["name"]
                assert isinstance(got["value"], (int, float)), m["name"]
                assert trace == "1" or got["value"] != 0, m["name"] + " is 0"
            print(f"{w['name']:<18} trace {trace}: ok, {result['attempted']} operations checked")
        except (AssertionError, IndexError, ValueError) as e:
            failures += 1
            print(f"{w['name']:<18} trace {trace}: FAILED: {e}")
            print(run.stderr[-2000:])
sys.exit(1 if failures else 0)
PY
