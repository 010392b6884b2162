"""Times the CLI's set-up in a fresh interpreter and prints it in seconds.

Set-up is everything a command does before its backward sweep: importing
``delaygame.cli``, then ``load_problem``, ``validate``, ``build_grid`` and
``SweepCoefficients.from_spec``. Usage:
``python3 perfbench/setup_probe.py <checkout root> <problem file> <delta>``.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1] + "/src")
import delaygame.cli as cli  # noqa: E402

spec = cli.load_problem(sys.argv[2])
if not cli.validate(spec).passed:
    sys.exit("problem failed validation")
cli.build_grid(spec, float(sys.argv[3]))
cli.SweepCoefficients.from_spec(spec)
print(repr(time.perf_counter() - t0))
