"""The benchmark's hooks bind to program names and read entry fields; a
rename or a dropped field would otherwise show only as absent bench metrics
or a failed trace run."""

import importlib.util
import sys
from pathlib import Path

import pytest

from conftest import make_genome
from ganevo import experiment as E
from ganevo import genome as G

HOOKS_PATH = Path(__file__).resolve().parents[1] / "bench" / "hooks.py"

# spans whose computed info reads shapes, entry fields or checkpoint files
SIZED_SPANS = (
    "backend.linear.fwd", "backend.linear.bwd",
    "backend.conv.fwd", "backend.conv.bwd",
    "backend.tconv.fwd", "backend.tconv.bwd",
    "backend.build", "experiment.checkpoint_write",
)


@pytest.fixture
def hooks(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("ganevo_bench_hooks", HOOKS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
