#!/usr/bin/env python3
"""ganevo benchmark: the generation loop on frozen, homogeneous populations.

    python3 bench/run.py --workload ring2d-mlp --seed 1 --seconds 30 --trace 0

Every individual of a workload carries the same generator or discriminator
genome and all three mutation rates are 0, so offspring are exact clones and
every generation does the same work.  The bench writes a checkpoint with the
program's own init_state / write_checkpoint and runs resume_evolution from it
until --seconds have passed (one process, one run at a time: a closed loop).
It checks that every generation trained exactly the injected genomes and that
metrics.txt is complete, finite and byte-identical across runs of one seed.

The last line of stdout is one JSON object with the keys correct, attempted
(generations started), failed (generations that broke a check) and metrics:
the end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# A run stops at the first generation boundary after --seconds once it has
# this many steady generations (those after the first), or at the cap below
# whatever it has, so a much slower commit still ends well within 180 s.
MIN_STEADY = 3
SEGMENT_CAP_S = 65.0
SETUP_PROBES = 7
SETUP_PROBES_CAP_S = 60.0  # all probes together, so a run still ends within 180 s

COMMON = dict(pairing="all", embedding="identity", batch_size=64,
              add_layer_rate=0.0, remove_layer_rate=0.0, change_layer_rate=0.0)

# Why each workload exists is in bench/README.md.
WORKLOADS = {
    "ring2d-mlp": dict(
        generator="L512relu-L256leaky_relu-L128sigmoid",
        discriminator="L512elu-L256tanh",
        config=dict(dataset="ring2d", generator_population=5, discriminator_population=5,
                    batches_per_pair=10, fid_samples=1000, rmse_samples=1000,
                    ring_modes=8, ring_radius=2.0, ring_sigma=0.05),
    ),
    "mnist-train": dict(
        generator="L512relu-T128relu-T64leaky_relu",
        discriminator="C64leaky_relu-C128leaky_relu-L256elu",
        config=dict(dataset="mnist", generator_population=1, discriminator_population=1,
                    batches_per_pair=2, fid_samples=64, rmse_samples=64),
    ),
    "mnist-eval": dict(
        generator="L512relu-T128relu-T64leaky_relu",
        discriminator="C64leaky_relu-C128leaky_relu-L256elu",
        config=dict(dataset="mnist", generator_population=1, discriminator_population=1,
                    batches_per_pair=1, fid_samples=256, rmse_samples=256),
    ),
}

IDX_COUNT, IDX_ROWS, IDX_COLS = 60000, 28, 28


class SetupError(RuntimeError):
    """The program cannot be found or imported from this checkout."""


class StopRun(Exception):
    """Raised at a generation boundary once the segment's time is up."""


# -- genomes ------------------------------------------------------------------

GENE_TEXT = re.compile(r"([LCT])(\d+)([a-z_]+)")


def parse_genome(G, role: str, text: str, first_id: int, max_len: int):
    kinds = {"L": G.LINEAR, "C": G.CONV, "T": G.TRANSPOSE_CONV}
    genes = []
    for i, part in enumerate(text.split("-")):
        m = GENE_TEXT.fullmatch(part)
        genes.append(G.Gene(innovation_id=first_id + i, kind=kinds[m[1]],
                            units=int(m[2]), activation=m[3]))
    return G.Genome(role=role, genes=tuple(genes), max_len=max_len)


def genome_text(genome) -> str:
    letter = {"linear": "L", "conv": "C", "transpose_conv": "T"}
    return "-".join(f"{letter.get(g.kind, g.kind)}{g.units}{g.activation}"
                    for g in genome.genes)


# -- inputs -------------------------------------------------------------------

def write_idx(np, path: str, seed: int) -> None:
    """A 60000x28x28 IDX image file of uniform random pixels from `seed`.

    Only the shape matters for speed; written in chunks so the bench's own
    memory stays out of the run's peak RSS.
    """
    rng = np.random.default_rng([seed, IDX_ROWS])
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, IDX_COUNT, IDX_ROWS, IDX_COLS))
        for start in range(0, IDX_COUNT, 5000):
            n = min(5000, IDX_COUNT - start)
            fh.write(rng.integers(0, 256, size=(n, IDX_ROWS, IDX_COLS), dtype=np.uint8).tobytes())


def write_start_checkpoint(api, G, np, workload: dict, seed: int, run_dir: str) -> str:
    """Fresh state from the program's init_state with the frozen genomes
    injected into every individual, saved with write_checkpoint."""
    overrides = dict(COMMON, **workload["config"], seed=seed, out_dir=run_dir,
                     generations=1)
    if overrides["dataset"] != "ring2d":
        data_root = os.path.join(run_dir, "data")
        write_idx(np, os.path.join(data_root, overrides["dataset"],
                                   "train-images-idx3-ubyte"), seed)
        overrides["data_dir"] = data_root
    config = api.load_config(overrides=overrides)
    state = api.init_state(config)
    g_genome = parse_genome(G, G.GENERATOR, workload["generator"], 0, config.genome_limit)
    d_genome = parse_genome(G, G.DISCRIMINATOR, workload["discriminator"],
                            len(g_genome.genes), config.genome_limit)
    for ind in state.generators:
        ind.genome = g_genome
    for ind in state.discriminators:
        ind.genome = d_genome
    return api.write_checkpoint(state, config, run_dir)


class Api:
    """The program's entry points, looked up by name like the trace hooks."""

    NAMES = ("load_config", "init_state", "write_checkpoint", "resume_evolution",
             "dump_final_samples")

    def __init__(self, hooks, modules):
        for name in self.NAMES:
            found = hooks.find(modules, name)
            if found is None:
                raise SetupError(f"ganevo defines no {name}()")
            setattr(self, name, found[2])


# -- the timed loop -------------------------------------------------------------

class Loop:
    """Generation boundaries, the frozen-work guard and the stop rule of one
    resume_evolution call (a segment)."""

    def __init__(self, workload: dict, seconds: float):
        self.expected_g = workload["generator"]
        self.expected_d = workload["discriminator"]
        self.pop_g = workload["config"]["generator_population"]
        self.pop_d = workload["config"]["discriminator_population"]
        self.batches = workload["config"]["batches_per_pair"]
        self.batch_size = COMMON["batch_size"]
        self.seconds = seconds
        self.cap_ns = time.perf_counter_ns() + int(SEGMENT_CAP_S * 1e9)
        self.boundaries: list[int] = []  # ns at each generation start, then the stop
        self.started: list[int] = []      # generation numbers started
        self.completed = 0
        self.problems: dict[int, list[str]] = {}
        self.state = self.config = None
        self._bouts: list[tuple] = []
        self._in_bout = False
        self._real = 0
        self._patcher = None
        self._counting = False

    def install(self, patcher) -> None:
        self._patcher = patcher
        patcher.patch("run_generation", self._run_generation)
        patcher.patch("train_pair", self._train_pair)

    def _problem(self, gen: int, message: str) -> None:
        self.problems.setdefault(gen, []).append(message)

    def _stop(self, now: int) -> bool:
        if now >= self.cap_ns:
            return True
        done = len(self.boundaries) - 1
        return (now - self.boundaries[0]) / 1e9 >= self.seconds and done >= 1 + MIN_STEADY

    def _run_generation(self, inner):
        def hooked(state, config, *args, **kwargs):
            now = time.perf_counter_ns()
            self.boundaries.append(now)
            if self._stop(now):
                raise StopRun()
            gen = state.generation
            self.started.append(gen)
            self.state, self.config = state, config
            if not self._counting:
                self._count_real_batches(type(state.data_source))
            self._check_population(gen, state)
            self._bouts = []
            pairs = sorted((g.id, d.id) for g in state.generators for d in state.discriminators)
            result = inner(state, config, *args, **kwargs)
            self._check_bouts(gen, pairs)
            self.completed += 1
            return result
        return hooked

    def _train_pair(self, inner):
        def hooked(d_individual, g_individual, *args, **kwargs):
            self._in_bout, self._real = True, 0
            try:
                outcome = inner(d_individual, g_individual, *args, **kwargs)
            finally:
                self._in_bout = False
            self._bouts.append((g_individual.id, d_individual.id,
                                genome_text(g_individual.genome),
                                genome_text(d_individual.genome),
                                outcome.batches, self._real))
            return outcome
        return hooked

    def _count_real_batches(self, source_type) -> None:
        """Counts the real batches each bout draws from the outer data source."""
        def make(inner):
            def counted(source, n, *args, **kwargs):
                if self._in_bout and n == self.batch_size:
                    self._real += 1
                return inner(source, n, *args, **kwargs)
            return counted
        self._counting = True
        self._patcher.replace(source_type, "next_batch", make(source_type.next_batch))

    def _check_population(self, gen: int, state) -> None:
        for pop, expected, size in ((state.generators, self.expected_g, self.pop_g),
                                    (state.discriminators, self.expected_d, self.pop_d)):
            if len(pop) != size:
                self._problem(gen, f"population of {len(pop)}, expected {size}")
            for ind in pop:
                text = genome_text(ind.genome)
                if text != expected:
                    self._problem(gen, f"individual {ind.id} carries {text}, expected {expected}")

    def _check_bouts(self, gen: int, expected: list[tuple[int, int]]) -> None:
        pairs = sorted((g, d) for g, d, *_ in self._bouts)
        if pairs != expected:
            self._problem(gen, f"{len(pairs)} bouts {pairs}, expected all-vs-all {expected}")
        for g, d, g_text, d_text, batches, real in self._bouts:
            if g_text != self.expected_g or d_text != self.expected_d:
                self._problem(gen, f"bout {g}v{d} trained {g_text} / {d_text}")
            if batches != self.batches or real != self.batches:
                self._problem(gen, f"bout {g}v{d}: {batches} batches reported, {real} real "
                                   f"batches drawn, expected {self.batches}")

    def generation_seconds(self) -> list[float]:
        b = self.boundaries[: self.completed + 1]
        return [(y - x) / 1e9 for x, y in zip(b, b[1:])]


def run_segment(hooks, modules, api, workload, ckpt: str, run_dir: str, seconds: float,
                recorder=None) -> tuple[Loop, list[str], str | None]:
    """One resume_evolution call under the loop hooks (and the trace hooks
    when a recorder is given).  Returns (loop, missing hook targets, error)."""
    loop = Loop(workload, seconds)
    patcher = hooks.Patcher(modules)
    if recorder is not None:
        hooks.install(patcher, recorder)
    loop.install(patcher)
    error = None
    try:
        try:
            api.resume_evolution(ckpt, generations=10 ** 9, out_dir=run_dir)
            error = "resume_evolution returned before the segment's time was up"
        except StopRun:
            pass
        if loop.state is not None and loop.completed:
            api.dump_final_samples(loop.state, loop.config)
    except Exception:  # the program failed: report it as a failed generation
        error = traceback.format_exc()
    finally:
        patcher.restore()
    return loop, patcher.missing, error


# -- output checks -----------------------------------------------------------------

def check_metrics_file(path: str, generations: int) -> tuple[list[str], dict[int, str]]:
    """One line per generation, numbered from 0, every value finite."""
    problems: dict[int, str] = {}
    lines = []
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    if len(lines) != generations:
        problems[-1] = f"metrics.txt has {len(lines)} lines for {generations} generations"
    for i, line in enumerate(lines):
        try:
            values = dict(item.split("=", 1) for item in line.split())
            numbers = [float(v) for v in values.values()]
        except ValueError:
            problems[i] = f"line {i} is not key=value numbers: {line[:80]}"
            continue
        if values.get("generation") != str(i):
            problems[i] = f"line {i} has generation={values.get('generation')}"
        elif not all(math.isfinite(v) for v in numbers):
            problems[i] = f"line {i} holds a non-finite value"
    return lines, problems


def source_digest() -> str:
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "ganevo"), BENCH):
        for dirpath, dirnames, files in os.walk(base):
            dirnames.sort()
            for name in sorted(f for f in files if f.endswith(".py")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def check_reference(name: str, seed: int, lines: list[str]) -> dict[int, str]:
    """Compares metrics.txt with the longest earlier run of this workload and
    seed on the same sources (common prefix), then keeps the longer one."""
    ref_dir = os.path.join(WORK, "ref")
    os.makedirs(ref_dir, exist_ok=True)
    path = os.path.join(ref_dir, f"{name}-s{seed}-{source_digest()}.txt")
    ref: list[str] = []
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            ref = fh.read().splitlines()
    problems = {i: f"line {i} differs from an earlier run of seed {seed}"
                for i, (a, b) in enumerate(zip(lines, ref)) if a != b}
    if len(lines) > len(ref) and not problems:
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines))
        os.replace(path + ".tmp", path)
    return problems


# -- set-up and environment ----------------------------------------------------------

def setup_seconds(ckpt: str, run_dir: str) -> list[float]:
    """Process start to first generation of fresh processes resuming `ckpt`.

    The run's checkpoint writes are flushed first, so the probes time the
    set-up rather than the disk's write-back of the generations before them.
    """
    os.sync()
    out = []
    deadline = time.monotonic() + SETUP_PROBES_CAP_S
    for i in range(SETUP_PROBES):
        spawn = time.perf_counter_ns()
        done = subprocess.run([sys.executable, os.path.join(BENCH, "probe.py"), SRC, ckpt,
                               os.path.join(run_dir, f"probe{i}")],
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        marks = [line.split()[1] for line in done.stdout.splitlines()
                 if line.startswith("probe-ns ")]
        if done.returncode != 0 or not marks:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        out.append((int(marks[0]) - spawn) / 1e9)
    return out


def blas_threads() -> int | None:
    """Threads OpenBLAS will use, read from the loaded library itself."""
    import ctypes

    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(np, nproc: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = blas_threads()
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": threads,
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "blas_threads_exceed_nproc": threads is not None and threads > nproc,
    }


def import_program():
    """Imports ganevo from this checkout's src/, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "ganevo", "__init__.py")):
        raise SetupError(f"no ganevo package under {SRC}")
    sys.path.insert(0, SRC)
    import numpy as np

    import hooks
    from ganevo import genome as G

    if not os.path.abspath(G.__file__).startswith(SRC + os.sep):
        raise SetupError(f"imported ganevo from {G.__file__}, not from {SRC}")
    modules = hooks.ganevo_modules()
    return np, hooks, G, modules, Api(hooks, modules)


# -- main ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    nproc = len(os.sched_getaffinity(0))
    if not any(var in os.environ for var in THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = str(nproc)  # the default, capped at nproc
    os.environ.pop("GANEVO_DATA_DIR", None)
    try:
        np, hooks, G, modules, api = import_program()
    except (SetupError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    env = environment(np, nproc)
    print("env " + json.dumps(env, sort_keys=True))
    if env["blas_threads_exceed_nproc"]:
        print(f"WARNING: BLAS runs {env['blas_threads']} threads on {nproc} cores")

    os.makedirs(WORK, exist_ok=True)
    for stale in os.listdir(WORK):
        if stale.startswith("run-"):
            shutil.rmtree(os.path.join(WORK, stale), ignore_errors=True)
    run_dir = os.path.join(WORK, f"run-{args.workload}-s{args.seed}-{os.getpid()}")
    try:
        ckpt = write_start_checkpoint(api, G, np, workload, args.seed, run_dir)
        result = measure(args, workload, hooks, modules, api, env, ckpt, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(args, workload, hooks, modules, api, env, ckpt, run_dir) -> dict:
    # a traced run splits --seconds between an untraced and a traced segment
    seconds = args.seconds / 2 if args.trace else args.seconds
    segments = [run_segment(hooks, modules, api, workload, ckpt, run_dir, seconds)]
    recorder = None
    if args.trace:
        recorder = hooks.Recorder()
        segments.append(run_segment(hooks, modules, api, workload, ckpt, run_dir,
                                    seconds, recorder))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # failed generations by number; -1 stands for a run-level problem
    failed_gens: set[int] = set()
    for loop, _, error in segments:
        for gen, messages in sorted(loop.problems.items()):
            failed_gens.add(gen)
            for message in messages[:5]:
                print(f"FROZEN-WORK generation {gen}: {message}")
            if len(messages) > 5:
                print(f"FROZEN-WORK generation {gen}: {len(messages) - 5} more")
        if error is not None:
            print(f"ERROR in the run:\n{error}")
            interrupted = len(loop.started) > loop.completed
            failed_gens.add(loop.started[-1] if interrupted else -1)
    completed = sum(loop.completed for loop, _, _ in segments)
    attempted = max(1, sum(len(loop.started) for loop, _, _ in segments))
    lines, file_problems = check_metrics_file(os.path.join(run_dir, "metrics.txt"), completed)
    file_problems.update(check_reference(args.workload, args.seed, lines))
    for gen, message in sorted(file_problems.items()):
        failed_gens.add(gen)
        print(f"OUTPUT {message}")

    gens = segments[0][0].generation_seconds()
    steady = gens[1:]
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "generation_seconds": gens}
    metrics: dict[str, dict] = {}
    if steady:
        print(f"{args.workload} seed {args.seed}: {len(gens)} generations, first "
              f"{gens[0]:.3f} s, steady median {statistics.median(steady):.3f} s, "
              f"max {max(steady):.3f} s over {len(steady)} steady generations")
    if not args.trace and steady:
        try:
            setup = setup_seconds(ckpt, run_dir)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"ERROR in the set-up probe: {exc}")
            failed_gens.add(-1)
            setup = []
        report["setup_seconds"] = setup
        metrics = {
            "gen_s": {"value": statistics.median(steady), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        if setup:
            metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    elif args.trace and steady:
        loop, missing, _ = segments[1]
        if len(loop.boundaries) >= 3 and loop.completed >= 2:
            per_layer, shapes = hooks.per_layer(
                recorder.spans, loop.boundaries[: loop.completed + 1], gens, missing)
            metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in per_layer.items()}
            report["shapes"] = shapes
            print_shapes(shapes)
        absent = sorted(set(hooks.PER_LAYER) - set(metrics))
        report["missing_hook_targets"] = missing
        report["absent_metrics"] = absent
        if missing or absent:
            print(f"ABSENT per-layer metrics {absent}; hook targets not found: {missing}")
        os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
        hooks.dump(os.path.join(WORK, "traces", f"{args.workload}-s{args.seed}.json"),
                   recorder.spans, dict(report, metrics=metrics))
    report["metrics"] = metrics
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results",
                           f"{args.workload}-s{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    failed = min(attempted, len(failed_gens))
    return {"correct": failed == 0 and bool(metrics), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def print_shapes(shapes: list[dict]) -> None:
    print("shapes: op pass batch input_shape calls/gen ms/call GMAC/call MB/call")
    for s in shapes:
        print(f"  {s['op']:5} {s['pass']} {s['batch']:4} {str(tuple(s['input_shape'])):16} "
              f"{s['calls_per_gen']:8.1f} {s['ms_per_call']:9.3f} "
              f"{s['gmac_per_call']:9.4f} {s['mb_per_call']:9.2f}")


if __name__ == "__main__":
    raise SystemExit(main())
