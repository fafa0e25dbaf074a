"""Acceptance criterion 8's margins over many seeds of the ring2d desk run.

For each seed it runs the desk config of `tests/test_acceptance.py` for 30
generations and prints generation 1's and generation 30's best FID, their
ratio (criterion 8 asks for a median <= 0.5), the best generator's mode
coverage (>= 6 of 8 in >= 3 of 5 seeds), criterion 9's rho (the larger
Spearman correlation of generation with mean layers over the two
subpopulations) and the run's wall seconds; then the medians.

    python scripts/desk_margins.py --seeds 0-9

The repo's `src` and `tests` are appended to the import path, so a
PYTHONPATH naming another tree's `src` and `tests` measures that tree
instead.  Runs write under a temporary directory that is removed at exit.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path += [str(ROOT / "src"), str(ROOT / "tests")]

from scipy.stats import spearmanr  # noqa: E402

import ganevo  # noqa: E402
from ganevo import experiment as E  # noqa: E402
from test_acceptance import best_generator_coverage, desk_config  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    """'0-9' or '0,3,7' or a mix, e.g. '0-4,9'."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def desk_margins(seed: int, out_dir: Path) -> dict:
    config = desk_config(out_dir, seed)
    start = time.perf_counter()
    history, state = E.run_evolution(config)
    gens = [r.generation for r in history]
    rho = max(spearmanr(gens, [r.d_mean_layers for r in history]).statistic,
              spearmanr(gens, [r.g_mean_layers for r in history]).statistic)
    first, last = history[0].best_fid, history[-1].best_fid
    return {"seed": seed, "fid_1": first, "fid_30": last, "ratio": last / first,
            "coverage": best_generator_coverage(state, config), "rho": float(rho),
            "seconds": time.perf_counter() - start}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 0,3,7 (default 0-9)")
    args = parser.parse_args(argv)
    print(f"ganevo from {Path(ganevo.__file__).parent}")
    print(f"{'seed':>4} {'fid_1':>10} {'fid_30':>10} {'ratio':>8} {'coverage':>8} "
          f"{'rho':>6} {'seconds':>7}", flush=True)
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in parse_seeds(args.seeds):
            r = desk_margins(seed, Path(tmp) / f"seed{seed}")
            rows.append(r)
            print(f"{r['seed']:>4} {r['fid_1']:>10.4g} {r['fid_30']:>10.4g} {r['ratio']:>8.3f} "
                  f"{r['coverage']:>8} {r['rho']:>6.3f} {r['seconds']:>7.1f}", flush=True)
    med = {key: float(np.median([r[key] for r in rows]))
           for key in ("fid_1", "fid_30", "ratio", "coverage", "rho", "seconds")}
    print(f"{'med':>4} {med['fid_1']:>10.4g} {med['fid_30']:>10.4g} {med['ratio']:>8.3f} "
          f"{med['coverage']:>8.1f} {med['rho']:>6.3f} {med['seconds']:>7.1f}")
    print(f"seeds with coverage >= 6: {sum(r['coverage'] >= 6 for r in rows)} of {len(rows)}")


if __name__ == "__main__":
    main()
