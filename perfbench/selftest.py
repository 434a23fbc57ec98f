"""Self-test of the benchmark: a tiny run (g1 at N=16) must produce every named metric.

    python3 perfbench/selftest.py

Runs the untraced and the traced measurement once each and exits non-zero if
a sample fails, a metric named in BENCHMARK.json is missing (or one is
produced that it does not name), or the report digest differs between runs.
"""

import json
import sys

from run import ROOT, measure, torus_config


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    config = torus_config([1], 16, seed=7)
    errors, digests = [], set()
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        res = measure(config, f"selftest-trace{int(trace)}", seconds=1, trace=trace)
        errors += res["problems"]
        if res["failed"]:
            errors.append(f"{res['failed']} of {res['attempted']} checks failed")
        produced = res.get("per_layer" if trace else "end_to_end", {})
        for m in spec[section]:
            if m["name"] not in produced:
                errors.append(f"{section} metric {m['name']} is missing")
            elif produced[m["name"]][1] != m["unit"]:
                errors.append(f"{m['name']} has unit {produced[m['name']][1]}, not {m['unit']}")
        extra = set(produced) - {m["name"] for m in spec[section]}
        errors += [f"{name} is not named in BENCHMARK.json" for name in sorted(extra)]
        digests.add(res.get("digest"))
    if len(digests) != 1:
        errors.append(f"report digest differs between runs: {sorted(map(str, digests))}")
    for error in errors:
        print(f"FAIL {error}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
