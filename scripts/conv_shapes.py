"""Per-shape times of `backend._conv_transpose` in two source trees.

    python scripts/conv_shapes.py --parent A --change B --pr 28

Both trees' `ganevo` packages are loaded side by side in one process, under
the names `parent_ganevo` and `change_ganevo`, and the process keeps its
freed heap as a run does (`experiment.keep_freed_heap`).  For each shape it
makes one float32 input (about a fifth of it +0.0 or -0.0), weights and,
for a transpose-conv forward, a bias; checks that the two trees write the
same output bytes; then times `--reps` calls per tree, alternating which
tree goes first.  Per shape it reports each tree's median and quartiles in
ms, the ratio of the medians, the change's formulation, and whether the
change is slower than the parent by more than the wider of the two
interquartile ranges.  The table replaces the `conv_shapes` entry of
BENCH_<pr>.json; everything else in that file is kept.

The shapes are the bench's (its mnist transpose convs at batch 64 and 256,
and the input gradients of its convs at batch 64), a ring2d desk
generator's transpose convs on 1x1, 2x2 and 4x4 inputs, and conv input
gradients at the genome's three conv settings.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")

# (what, n, in_c, input hw, out_c, kernel, stride, padding, output hw); a
# transpose-conv forward carries a bias, a conv input gradient does not
TCONV = (4, 2, 1)
SHAPES = [
    ("mnist tconv 1, eval", 256, 11, (7, 7), 128) + TCONV + ((14, 14),),
    ("mnist tconv 2, eval", 256, 128, (14, 14), 64) + TCONV + ((28, 28),),
    ("mnist tconv 1, train", 64, 11, (7, 7), 128) + TCONV + ((14, 14),),
    ("mnist tconv 2, train", 64, 128, (14, 14), 64) + TCONV + ((28, 28),),
    ("mnist conv 2 dx", 64, 128, (7, 7), 64, 3, 2, 1, (14, 14)),
    ("mnist conv 1 dx", 64, 64, (14, 14), 1, 3, 2, 1, (28, 28)),
    ("mnist adapter dx", 64, 1, (28, 28), 64, 1, 1, 0, (28, 28)),
    ("desk tconv 1x1 wide", 64, 1024, (1, 1), 1024) + TCONV + ((2, 2),),
    ("desk tconv 1x1", 64, 256, (1, 1), 128) + TCONV + ((2, 2),),
    ("desk tconv 2x2", 64, 128, (2, 2), 64) + TCONV + ((4, 4),),
    ("desk tconv 4x4", 64, 64, (4, 4), 32) + TCONV + ((8, 8),),
    ("desk tconv 4x4 wide", 64, 256, (4, 4), 128) + TCONV + ((8, 8),),
    ("desk tconv 8x8", 64, 128, (8, 8), 64) + TCONV + ((16, 16),),
    ("conv dx k3s1 7x7", 64, 32, (7, 7), 16, 3, 1, 1, (7, 7)),
    ("conv dx k3s1 7x7 wide", 64, 64, (7, 7), 64, 3, 1, 1, (7, 7)),
    ("conv dx k3s1 14x14", 64, 64, (14, 14), 64, 3, 1, 1, (14, 14)),
    ("conv dx k3s1 4x4", 64, 128, (4, 4), 64, 3, 1, 1, (4, 4)),
    ("conv dx k3s2 7->14", 64, 32, (7, 7), 16, 3, 2, 1, (14, 14)),
    ("conv dx k3s2 7->14 wide", 64, 64, (7, 7), 64, 3, 2, 1, (14, 14)),
    ("conv dx k3s2 7->13", 64, 64, (7, 7), 64, 3, 2, 1, (13, 13)),
    ("conv dx k3s2 14->28", 64, 64, (14, 14), 64, 3, 2, 1, (28, 28)),
    ("conv dx k3s1 1x2 ring", 64, 64, (1, 2), 64, 3, 1, 1, (1, 2)),
    ("conv dx k1 7x7", 64, 64, (7, 7), 64, 1, 1, 0, (7, 7)),
    ("conv dx k1 14x14", 64, 64, (14, 14), 64, 1, 1, 0, (14, 14)),
]


def load_backend(tree: Path, alias: str):
    """`tree`'s `ganevo.backend`, imported as `<alias>.backend`."""
    package = tree / "src" / "ganevo"
    spec = importlib.util.spec_from_file_location(
        alias, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{alias}.backend")


def quartiles(values: list[float]) -> list[float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def measure(backends: dict, shape: tuple, reps: int, rng) -> dict:
    what, n, in_c, hw, out_c, kernel, stride, padding, out_hw = shape
    x = rng.standard_normal((n, in_c) + hw).astype(np.float32)
    x[x < -1.2] = 0.0
    x[x > 1.2] = -0.0
    weights = rng.standard_normal((in_c, out_c, kernel, kernel)).astype(np.float32)
    bias = rng.standard_normal(out_c).astype(np.float32) if (kernel, stride) == (4, 2) else None
    out_shape = (n, out_c) + out_hw

    def call(side):
        return backends[side]._conv_transpose(x, weights, out_shape, kernel, stride, padding,
                                              bias)

    same = call("parent").tobytes() == call("change").tobytes()
    times = {side: [] for side in SIDES}
    for rep in range(reps):
        for side in (SIDES if rep % 2 else SIDES[::-1]):
            start = time.perf_counter()
            call(side)
            times[side].append((time.perf_counter() - start) * 1e3)
    med = {side: statistics.median(times[side]) for side in SIDES}
    iqr = {side: quartiles(times[side]) for side in SIDES}
    spread = max(q3 - q1 for q1, q3 in iqr.values())
    planes = backends["change"]._adds_phase_planes(in_c, out_shape, kernel, stride, padding)
    return {
        "what": what, "n": n, "in_c": in_c, "in_hw": list(hw), "out_c": out_c,
        "kernel": kernel, "stride": stride, "padding": padding, "out_hw": list(out_hw),
        "formulation": "phase planes" if planes else "channels-last scatter",
        "same_bytes": same,
        "parent_ms": round(med["parent"], 3), "change_ms": round(med["change"], 3),
        "parent_iqr_ms": [round(v, 3) for v in iqr["parent"]],
        "change_iqr_ms": [round(v, 3) for v in iqr["change"]],
        "ratio": round(med["change"] / med["parent"], 3),
        "slower_than_spread": med["change"] - med["parent"] > spread,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent's tree")
    parser.add_argument("--change", type=Path, required=True, help="the change's tree")
    parser.add_argument("--reps", type=int, default=15, help="timed calls per tree and shape")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pr", type=int, help="writes the table into BENCH_<pr>.json")
    parser.add_argument("--out-dir", type=Path, default=ROOT, help="default: this repo")
    args = parser.parse_args(argv)
    backends = {side: load_backend(getattr(args, side).resolve(), f"{side}_ganevo")
                for side in SIDES}
    importlib.import_module("change_ganevo.experiment").keep_freed_heap()
    rng = np.random.default_rng(args.seed)
    rows = []
    for shape in SHAPES:
        row = measure(backends, shape, args.reps, rng)
        rows.append(row)
        print(f"{row['what']:24} {row['parent_ms']:9.2f} -> {row['change_ms']:9.2f} ms "
              f"x{row['ratio']:.2f}  {row['formulation']:21} same bytes {row['same_bytes']}"
              f"{'  SLOWER' if row['slower_than_spread'] else ''}", flush=True)
    if args.pr is not None:
        out = args.out_dir / f"BENCH_{args.pr}.json"
        doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
        doc["conv_shapes"] = {"reps": args.reps, "seed": args.seed, "shapes": rows}
        out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {out}")
    return 0 if all(row["same_bytes"] for row in rows) else 1


if __name__ == "__main__":
    raise SystemExit(main())
