"""Running a miniature benchmark suite and scoring it.

Uses tiny resolutions and budgets so the demo finishes in seconds; a real
desk-scale run would use --scale 0.25 via the CLI.

Run: python3 demos/04_run_and_score.py
"""

import os
import time

# Before numpy loads: BLAS reads its thread count once, at load time.  One
# thread keeps each image's time from depending on what else the host runs.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

from inferbench.runner import SuiteConfig, predict_probe_bytes, run_suite  # noqa: E402
from inferbench.scoring import aggregate_score, calibrate_profile  # noqa: E402

config = SuiteConfig(
    backend="auto",
    threads=1,
    scale=0.05,          # smallest viable resolutions
    budget_scale=0.5,    # a handful of images per test
    mem_cap_bytes=int(predict_probe_bytes(100) * 4.5),
    device_name="demo-host",
    soc_name="demo-soc",
)
suite = run_suite(config, clock=time.monotonic)

print(f"{'test':>4} {'backend':<10} {'images':>6} {'avg ms':>10} pass")
for m in suite.measurements:
    print(f"{m.test_id:>4} {m.backend_id:<10} {m.images_processed:>6} "
          f"{m.avg_ms:>10.2f} {'yes' if m.passed else 'NO'}")
probe = suite.memory_probe
print(f"   9 {probe.backend_id:<10} max side {100 * probe.max_resolution_units} px "
      f"({probe.limiting_cause})")

# Calibrate a profile so this very machine scores 1000, then verify the
# fixed point.
profile = calibrate_profile(suite, total_target=1000.0, name="demo")
report = aggregate_score(suite, profile)
print(f"\nAI score against the freshly calibrated profile: {report.total:.2f}")
