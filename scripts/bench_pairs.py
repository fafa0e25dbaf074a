"""Paired benchmark runs of two source trees, written to BENCH_<pr>.json.

    python scripts/bench_pairs.py --parent A --change B --workload mnist-eval \
        --seeds 121-130 --pr 26

For each seed it runs `python3 bench/run.py --workload W --seed S --seconds N
--trace 0` once in each tree, with that tree's own bench/ and src/, one run at
a time: the parent first on odd seeds, the change first on even ones.  Each
run records the end-to-end metrics of the JSON line the bench prints last,
its correct/attempted/failed counts, and the minor page faults and system CPU
seconds of the bench process together with the set-up probes it starts (the
rusage of the children this script waited for, taken around the run).

Per metric it writes each side's median, the parent's quartiles (linear
interpolation), the change's wins (ties count for neither) and a verdict:
"regressed" when the change's median is worse than the parent's by more than
the bound BENCHMARK.json fixes, "gain" when the change wins at least nine
tenths of the pairs and the medians differ by more than the parent's
interquartile range, "unresolved" when that range is wider than the bound and
not every change run beats every parent run, else "within bound".  It also
compares, seed by seed, the metrics lines the two trees' bench runs recorded
under .bench_work/ref, and names each key=value field that differs there with
its largest relative difference |x - y| / max(|x|, |y|).  A workload's
results replace that workload's entry of the output file; everything else in
the file is kept.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
RUN_TIMEOUT_S = 600


def parse_seeds(text: str) -> list[int]:
    """'121-130' or '1,4,7' or a mix, e.g. '121-124,130'."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench run in `tree`: its last-line report plus the rusage of the
    processes it ran in."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"bench run in {tree} failed ({done.returncode}):\n"
                           f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
    report = json.loads(lines[-1])
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: m["value"] for name, m in report["metrics"].items()},
        "minor_faults": after.ru_minflt - before.ru_minflt,
        "system_s": round(after.ru_stime - before.ru_stime, 3),
        "env": env,
    }


def summary(parent: list[float], change: list[float], bound: float | None) -> dict:
    """Medians, the parent's quartiles, the change's wins and a verdict, for a
    metric where lower is better."""
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = (statistics.quantiles(parent, n=4, method="inclusive")
                 if len(parent) > 1 else (parent[0],) * 3)
    wins = sum(c < p for p, c in zip(parent, change))
    if bound is not None and c_med > p_med * (1 + bound):
        verdict = "regressed"
    elif wins * 10 >= 9 * len(parent) and p_med - c_med > q3 - q1:
        verdict = "gain"
    elif bound is not None and (q3 - q1) > bound * p_med and max(change) >= min(parent):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"parent_median": p_med, "change_median": c_med, "parent_iqr": [q1, q3],
            "change_wins": f"{wins} of {len(parent)}", "verdict": verdict,
            "parent": parent, "change": change}


def ref_lines(side: str, tree: Path, workload: str, seed: int) -> list[str]:
    """The metrics lines `tree`'s bench recorded for this seed on its current
    sources, read through that tree's own bench/run.py."""
    spec = importlib.util.spec_from_file_location(f"bench_run_{side}", tree / "bench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    path = Path(run.WORK) / "ref" / f"{workload}-s{seed}-{run.source_digest()}.txt"
    return path.read_text(encoding="utf-8").splitlines() if path.exists() else []


def relative_difference(a: str, b: str) -> float:
    """|x - y| / max(|x|, |y|) of two numbers written as text; inf when one
    is not a number or only one is infinite."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    if x == y:
        return 0.0
    diff = abs(x - y) / max(abs(x), abs(y))
    return diff if math.isfinite(diff) else math.inf


def differing_fields(a: list[str], b: list[str]) -> dict[str, float]:
    """For each key=value field whose text differs between paired metrics
    lines, the largest relative difference over those lines."""
    worst: dict[str, float] = {}
    for line_a, line_b in zip(a, b):
        fields_b = dict(item.partition("=")[::2] for item in line_b.split())
        for key, value in (item.partition("=")[::2] for item in line_a.split()):
            if fields_b.get(key) != value:
                diff = relative_difference(value, fields_b.get(key, ""))
                worst[key] = max(worst.get(key, 0.0), diff)
    return worst


def compare_refs(trees: dict, workload: str, seeds: list[int]) -> dict:
    out = {}
    for seed in seeds:
        a, b = (ref_lines(side, trees[side], workload, seed) for side in SIDES)
        common = min(len(a), len(b))
        out[str(seed)] = {"lines_compared": common,
                          "equal": common > 0 and a[:common] == b[:common],
                          "differing_fields": differing_fields(a[:common], b[:common])}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent's tree")
    parser.add_argument("--change", type=Path, required=True, help="the change's tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 121-130")
    parser.add_argument("--pr", type=int, required=True, help="writes BENCH_<pr>.json")
    parser.add_argument("--out-dir", type=Path, default=ROOT, help="default: this repo")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    runs = []
    for seed in seeds:
        order = SIDES if seed % 2 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = bench_run(trees[side], args.workload, seed, seconds)
            r = pair[side]
            print(f"{args.workload} seed {seed} {side:6}: correct {r['correct']} "
                  f"{json.dumps(r['metrics'])} minflt {r['minor_faults']} "
                  f"sys {r['system_s']} s", flush=True)
        runs.append(pair)
    machine = runs[0]["parent"].pop("env")
    for pair in runs:
        for side in SIDES:
            pair[side].pop("env", None)

    metrics = {}
    for name in bounds:
        if all(name in p[side]["metrics"] for p in runs for side in SIDES):
            parent, change = ([p[side]["metrics"][name] for p in runs] for side in SIDES)
            metrics[name] = summary(parent, change, bounds[name])
    for key in ("minor_faults", "system_s"):
        parent, change = ([p[side][key] for p in runs] for side in SIDES)
        metrics[key] = summary(parent, change, None)
    result = {
        "seeds": args.seeds, "pairs": len(runs), "seconds": seconds,
        "correct": all(p[side]["correct"] for p in runs for side in SIDES),
        "failed": {side: sum(p[side]["failed"] for p in runs) for side in SIDES},
        "metrics": metrics,
        "ref_lines": compare_refs(trees, args.workload, seeds),
        "runs": runs,
    }
    for name, m in metrics.items():
        print(f"{name}: parent {m['parent_median']:.4g} change {m['change_median']:.4g} "
              f"iqr {m['parent_iqr'][0]:.4g}-{m['parent_iqr'][1]:.4g} "
              f"wins {m['change_wins']} -> {m['verdict']}")

    out = args.out_dir / f"BENCH_{args.pr}.json"
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    doc.setdefault("machine", machine)
    doc.setdefault("end_to_end", {})[args.workload] = result
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
