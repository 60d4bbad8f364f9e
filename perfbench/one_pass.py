"""One pass of one workload, in a process of its own.

    python3 perfbench/one_pass.py --workload NAME --seed N --pass I \
        --trace 0|1 --workdir DIR

``src`` of the checkout must be on ``PYTHONPATH``; ``run.py`` sets it.
Prints one JSON object: set-up seconds (from before ``import nncpdf`` up to
the first timed call), the timed seconds of the pass, both also rescaled to
the reference machine speed (see ``calibrate``), the operation count, one
message per failed operation, the process's peak RSS, workload-specific
values, and with ``--trace 1`` the per-layer totals.
"""

import argparse
import json
import resource
import sys
import traceback
from fractions import Fraction
from time import perf_counter

# Reference times of the two calibration kernels on the machine the
# benchmark was written on (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4).
# Only the scale of the rescaled times depends on them.
CAL_REF_S = 0.016
CAL_NP_REF_S = 0.006
CAL_EVERY_S = 0.25


def calibrate() -> float:
    """Seconds a fixed interpreter-bound kernel takes now.

    The machine's speed drifts by up to 2x within seconds when other tenants
    share its cores, and interpreter-bound and memory-bound code drift
    differently.  ``Clock`` therefore rescales timed work by this kernel
    and, for workloads that spend much of their time in numpy reductions,
    by ``Clock.calibrate_numpy`` as well.  Both kernels are the benchmark's
    own code, so no change to the package can move them.
    """
    start = perf_counter()
    acc = {}
    for i in range(2500):
        key = (f"v{i % 50}", i % 7)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 97 + 1, i % 13 + 1)
    frozenset(str(k) for k, _ in sorted(acc.items()))
    return perf_counter() - start


class Clock:
    """Timed seconds, raw and rescaled to the reference speed.

    ``tick`` closes the current segment once it is ``CAL_EVERY_S`` long:
    it calibrates, divides the segment by the mean slowness measured before
    and after it, and restarts the clock, so calibration time is never
    counted.  Slowness is 1 at the reference speed; it mixes the two
    kernels' slowness in the workload's ``NUMPY_SHARE``.

    Measured on this kind of shared machine: raw times of the same work
    spread 14-33 % between 15- and 20-second windows (interquartile range
    over median); rescaled, run medians spread 1-4 % between runs.
    """

    def __init__(self, numpy_share):
        import numpy as np

        self.share = numpy_share
        self._arr = np.random.default_rng(0).random((2,) * 17)
        self.slow = self.slowness()
        self.raw = self.norm = 0.0
        self.mark = perf_counter()

    def calibrate_numpy(self) -> float:
        """Seconds a fixed set of marginal entropies of a 1 MB pmf takes."""
        import numpy as np

        start = perf_counter()
        for _ in range(3):
            for axes in ((0, 3, 5, 7, 9, 11), (1, 2, 4, 6), (8, 10, 12, 13, 14, 15, 16), (0, 16)):
                m = self._arr.sum(axis=axes).reshape(-1)
                float(-(m * np.log2(m)).sum())
        return perf_counter() - start

    def slowness(self) -> float:
        slow = (1.0 - self.share) * calibrate() / CAL_REF_S
        if self.share:
            slow += self.share * self.calibrate_numpy() / CAL_NP_REF_S
        return slow

    def tick(self, force=False):
        now = perf_counter()
        if now - self.mark < CAL_EVERY_S and not force:
            return
        after = self.slowness()
        self.raw += now - self.mark
        self.norm += (now - self.mark) / ((self.slow + after) / 2)
        self.slow = after
        self.mark = perf_counter()


def _ticking(fn, clock):
    def ticking(*args, **kwargs):
        clock.tick()
        return fn(*args, **kwargs)

    return ticking


def main() -> int:
    cal_before_setup = calibrate()
    start = perf_counter()
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pass", dest="pass_index", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    args = p.parse_args()

    import nncpdf.cli  # noqa: F401  (loaded before the tracer rebinds names)
    import workloads
    import tracer as tracing

    tracer = tracing.install() if args.trace else None
    work = workloads.WORKLOADS[args.workload](args.seed, args.pass_index, args.workdir)
    ops = work.ops()
    setup_s = perf_counter() - start
    # import is interpreter-bound: rescale set-up by that kernel alone
    setup_norm_s = setup_s * CAL_REF_S / ((cal_before_setup + calibrate()) / 2)

    clock = Clock(work.NUMPY_SHARE)
    if tracer is None:
        # long operations also tick from inside, at names the package calls
        # through; a traced pass only ticks between operations, so no
        # calibration lands inside a span
        for module, name in work.TICK_AT:
            mod = sys.modules[f"nncpdf.{module}"]
            setattr(mod, name, _ticking(getattr(mod, name), clock))
    else:
        tracer.active = True
    results = []
    clock.mark = perf_counter()
    for op in ops:
        try:
            results.append((True, op()))
        except Exception:  # a failed operation is counted, not fatal
            results.append((False, traceback.format_exc(limit=3)))
        clock.tick()
    clock.tick(force=True)
    if tracer is not None:
        tracer.active = False

    errors = []
    for i, (ok, result) in enumerate(results):
        if not ok:
            errors.append(f"op {i} raised: {result}")
            continue
        try:
            err = work.check(i, result)
        except Exception:
            err = "check raised: " + traceback.format_exc(limit=3)
        if err:
            errors.append(f"op {i}: {err}")
    good = [r for ok, r in results if ok]
    out = {
        "setup_s": setup_norm_s,
        "seconds": clock.norm,
        "raw_setup_s": setup_s,
        "raw_seconds": clock.raw,
        "ops": len(ops),
        "errors": errors,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "extras": work.extras(good) if len(good) == len(results) else {},
    }
    if tracer is not None:
        out["totals"] = dict(tracer.totals)
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
