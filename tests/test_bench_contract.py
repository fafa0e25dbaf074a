"""The benchmark's hooks and entry points bind to program names and read
entry fields; a rename or a dropped field would otherwise show only as
absent bench metrics, a failed trace run or a bench that does not start."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import make_genome
from ganevo import experiment as E
from ganevo import genome as G

BENCH = Path(__file__).resolve().parents[1] / "bench"

# spans whose computed info reads shapes, entry fields or checkpoint files
SIZED_SPANS = (
    "backend.linear.fwd", "backend.linear.bwd",
    "backend.conv.fwd", "backend.conv.bwd",
    "backend.tconv.fwd", "backend.tconv.bwd",
    "backend.build", "experiment.checkpoint_write",
)


def load_bench_module(monkeypatch, name):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location(f"ganevo_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def hooks(monkeypatch):
    return load_bench_module(monkeypatch, "hooks")


@pytest.fixture
def bench_api(monkeypatch, hooks):
    """The entry points bench/run.py binds, found the way it finds them."""
    return load_bench_module(monkeypatch, "run").Api(hooks, hooks.ganevo_modules())


def run_files(run_dir):
    """metrics.txt and the checkpoint and samples/ files' bytes by name."""
    files = {p.relative_to(run_dir).as_posix(): p.read_bytes()
             for sub in ("checkpoint", "samples") for p in (run_dir / sub).iterdir()}
    files["metrics.txt"] = (run_dir / "metrics.txt").read_bytes()
    return files


def test_bench_api_binds_the_entry_points(bench_api):
    for name in bench_api.NAMES:
        assert getattr(bench_api, name) is getattr(E, name)


def test_fresh_run_matches_the_bench_start(tmp_path, bench_api):
    """A fresh run leaves the files of the bench's start: a checkpoint of
    init_state's state, written at generations=1 and resumed for more."""
    base = dict(dataset="ring2d", ring_modes=4, generator_population=2,
                discriminator_population=2, batches_per_pair=2, batch_size=8,
                fid_samples=16, rmse_samples=16, noise_dim=8, feature_range=(8, 32),
                add_layer_rate=0.5, seed=3)
    E.run_evolution(E.load_config(overrides=dict(base, generations=3,
                                                 out_dir=str(tmp_path / "run"))))
    bench_dir = str(tmp_path / "bench")
    config = bench_api.load_config(overrides=dict(base, generations=1, out_dir=bench_dir))
    ckpt = bench_api.write_checkpoint(bench_api.init_state(config), config, bench_dir)
    bench_api.resume_evolution(ckpt, generations=3, out_dir=bench_dir)
    assert run_files(tmp_path / "run") == run_files(tmp_path / "bench")


def test_hooks_bind_and_record_sized_spans(tmp_path, hooks):
    config = E.load_config(overrides=dict(
        dataset="ring2d", ring_modes=4, generations=2, generator_population=2,
        discriminator_population=2, batches_per_pair=2, batch_size=8,
        fid_samples=16, rmse_samples=16, noise_dim=8, add_layer_rate=0.0,
        remove_layer_rate=0.0, change_layer_rate=0.0, seed=3,
        out_dir=str(tmp_path / "run")))
    state = E.init_state(config)
    g_genome = make_genome(G.GENERATOR, [(0, G.LINEAR, 8, "relu"),
                                         (1, G.TRANSPOSE_CONV, 4, "elu")])
    d_genome = make_genome(G.DISCRIMINATOR, [(2, G.CONV, 4, "leaky_relu"),
                                             (3, G.LINEAR, 8, "tanh")])
    for ind in state.generators:
        ind.genome = g_genome
    for ind in state.discriminators:
        ind.genome = d_genome
    ckpt = E.write_checkpoint(state, config, config.out_dir)

    patcher = hooks.Patcher(hooks.ganevo_modules())
    recorder = hooks.Recorder()
    hooks.install(patcher, recorder)
    try:
        history, _ = E.resume_evolution(ckpt)
    finally:
        patcher.restore()

    assert [r.generation for r in history] == [0, 1]
    # mutate() was folded into mutate_with_events(), which the table also hooks
    assert set(patcher.missing) <= {"mutate"}
    sized = {span[hooks.NAME] for span in recorder.spans if span[hooks.INFO] is not None}
    assert set(SIZED_SPANS) <= sized


def test_probe_resumes_into_its_own_directory(tmp_path):
    """bench/probe.py times setup_s by resuming a run's checkpoint with
    out_dir set to a probe directory: it reports the first generation's
    start and leaves every file of the probed run as it was."""
    def files(directory):
        return {p: p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}

    run = tmp_path / "run"
    E.run_evolution(E.load_config(overrides=dict(
        dataset="ring2d", ring_modes=4, generations=1, generator_population=2,
        discriminator_population=2, batches_per_pair=2, batch_size=8, fid_samples=16,
        rmse_samples=16, noise_dim=8, seed=3, out_dir=str(run))))
    before = files(run)
    done = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), str(BENCH.parent / "src"),
         str(run / "checkpoint"), str(tmp_path / "probe")],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))  # leave bench/ as it is
    assert done.returncode == 0, done.stderr
    assert any(line.startswith("probe-ns ") for line in done.stdout.splitlines())
    assert files(run) == before
