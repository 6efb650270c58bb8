"""Exact-count self-test of the tracer on a fixed input.

    python3 perfbench/selftest.py

Traces one default `mixing` run (seed 0) and asserts the calls the trace must
show (`workloads.MIXING_COUNTS`): 207 `assemble_generator` calls, of which
201 come from `nash_ratio`, 5 from `poincare_constant` and 1 from
`ultracontractivity_curve`.  A public function binding the tracer failed to
wrap makes a count come up short, so this fails loudly.  Exits 0 on success,
1 on a mismatch.
"""

import os
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import momentflow  # noqa: E402
from momentflow import harness  # noqa: E402
from tracing import LAYER, NAME, Tracer, nearest_caller  # noqa: E402
from workloads import MIXING_COUNTS  # noqa: E402


def main():
    tracer = Tracer().install(momentflow)
    cfg = harness.ExperimentConfig(kind="mixing", seed=0, record_runtime=False)
    tracer.enabled = True
    with tracer.op("mixing"):
        harness.run_experiment(cfg)
    tracer.enabled = False
    tracer.uninstall()
    seen = Counter()
    for k, span in enumerate(tracer.spans):
        if span[LAYER] != "bench":
            seen[(span[NAME], None)] += 1
            seen[(span[NAME], nearest_caller(tracer.spans, k, 0))] += 1
    bad = [f"{fn}{' under ' + caller if caller else ''}: {seen[(fn, caller)]} != {want}"
           for (fn, caller), want in MIXING_COUNTS.items() if seen[(fn, caller)] != want]
    for line in bad:
        print("mismatch: " + line)
    print(f"selftest {'FAILED' if bad else 'passed'} ({len(tracer.spans)} spans)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
