"""Harness smoke check: every workload at tiny size, untraced and traced.

    python3 perfbench/smoke.py

Asserts that each run exits 0, prints all eight end-to-end metrics by
name, ends with a result line whose metric names are exactly those of
BENCHMARK.json (end_to_end untraced, per_layer traced), and, traced,
prints three hot spots and the tracing overhead. Takes about a minute;
it is not part of the test suite.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    sys.path.insert(0, HERE)
    from run import E2E_UNITS
    from workloads import WORKLOADS
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    expect = {0: {m["name"] for m in spec["end_to_end"]},
              1: {m["name"] for m in spec["per_layer"]}}
    bad = []
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            where = f"{name} trace {trace}"
            if proc.returncode != 0 or not lines:
                bad.append(f"{where}: exit {proc.returncode}: {proc.stderr[-300:]}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                bad.append(f"{where}: result keys {sorted(result)}")
            if set(result["metrics"]) != expect[trace]:
                bad.append(f"{where}: metric names differ from BENCHMARK.json: "
                           f"{sorted(set(result['metrics']) ^ expect[trace])}")
            if result["correct"] is not True or result["attempted"] < 1:
                bad.append(f"{where}: correct={result['correct']} "
                           f"attempted={result['attempted']}")
            text = "\n".join(lines)
            for metric in E2E_UNITS:
                if f"\nmetric {metric} = " not in text:
                    bad.append(f"{where}: no line for metric {metric}")
            wanted = ["data-health ", "outputs: digest "]
            if trace:
                wanted += ["hotspot 1:", "hotspot 2:", "hotspot 3:", "tracing overhead:"]
            bad += [f"{where}: missing '{w}'" for w in wanted if w not in text]
            print(f"{where}: {'ok' if not bad else 'checked'}")
    for b in bad:
        print("FAIL " + b)
    print("smoke: " + ("ok" if not bad else f"{len(bad)} problem(s)"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
