"""Set-up probe: a fresh process that imports ganevo and resumes a checkpoint.

    python3 bench/probe.py SRC_DIR CHECKPOINT_DIR OUT_DIR

Prints "probe-ns" and time.perf_counter_ns() at the moment the first
generation would start, then exits without running it; the marker keeps the
reading apart from anything the program prints.  run.py starts it several
times and takes the median of (printed time - spawn time) as setup_s;
perf_counter is the system-wide monotonic clock, so the two processes'
readings compare.
"""

import sys
import time


class FirstGeneration(Exception):
    pass


def main() -> int:
    src, ckpt, out_dir = sys.argv[1:4]
    sys.path.insert(0, src)
    import hooks

    modules = hooks.ganevo_modules()
    patcher = hooks.Patcher(modules)

    def at_start(_inner):
        def stop(*args, **kwargs):
            print("probe-ns", time.perf_counter_ns(), flush=True)
            raise FirstGeneration()
        return stop

    if not patcher.patch("run_generation", at_start):
        print("ganevo defines no run_generation()", file=sys.stderr)
        return 2
    resume = hooks.find(modules, "resume_evolution")[2]
    try:
        resume(ckpt, generations=10 ** 9, out_dir=out_dir)
    except FirstGeneration:
        return 0
    print("resume_evolution never reached a generation", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
