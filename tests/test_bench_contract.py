"""The benchmark's tracer names tokmoe functions; they must keep resolving and running.

``bench/tracer.py`` wraps each ``<module>.<name>`` in its ``TRACED`` table at
run time, so a rename in ``src/`` would otherwise surface only as an
AttributeError inside a traced benchmark run, and a traced name left behind
as a shim that nothing calls would report a per-layer metric of 0. The
paper-ckpt workload's output check runs here too, so that a change to what
``load_model`` returns fails tier-1 and not only ``bench/test_smoke.py``.
"""

import importlib
import importlib.util
from pathlib import Path

import tokmoe.cli as cli
from tokmoe import checkpoint, data, metrics, model, training
from tokmoe.config import OptimizerConfig, SchemeConfig, VariantConfig

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_bench_module("tracer")


def test_every_traced_name_resolves_in_tokmoe():
    tracer = load_tracer()
    names = [(module, name) for module, names in tracer.TRACED.items() for name in names]
    assert names
    missing = []
    for module, name in names:
        owner = importlib.import_module(f"tokmoe.{module}")
        for part in name.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{name}")
    assert missing == []


def tiny_pipeline(tmp_path):
    """Synthesize, train, decode, score, save, load and run the gradient oracle."""
    spec = data.SynthSpec(intents=2, samples_per_intent=3, seed=1)
    train, _, _ = data.generate_synthetic_splits(spec)
    vocab = data.Vocabulary.build(train, cap=60)
    encoded = data.encode_corpus(vocab, train)
    intents = sorted(training.partition_by_intent(train))
    variant = VariantConfig(hidden_size=3, embedding_size=3, attn_size=2, gate_hidden=4, gate_out=3)
    params = model.init_model(len(vocab), len(intents), variant, seed=0)
    training.train_run(
        params, encoded, SchemeConfig.from_name("S4"), OptimizerConfig(batch_size=2), 1, 0,
        training.expert_index_map(intents),
    )
    generated = [vocab.decode_ids(model.greedy_decode(params, s.context_ids, 4)) for s in encoded]
    metrics.build_report([s.sample for s in encoded], generated)
    checkpoint.save_model(params, tmp_path / "model.ckpt", vocab.id_to_token, intents, "S4")
    checkpoint.load_model(tmp_path / "model.ckpt")
    cli.run_gradcheck(num_experts=1, hidden=1, vocab_size=5)


def test_every_traced_name_is_called(tmp_path):
    tracer = load_tracer()
    recorder = tracer.Tracer()
    recorder.install()
    try:
        tiny_pipeline(tmp_path)
    finally:
        recorder.uninstall()
    calls, _, _ = recorder.snapshot()
    never = [name for name, count in zip(tracer.FUNCTIONS, calls) if count == 0]
    assert never == []


def test_checkpoint_workload_output_check_passes(tmp_path):
    """paper-ckpt's own output check, at its smoke shape, on what load_model returns."""
    workloads = load_bench_module("workloads")
    checks = workloads.Checks()
    workload = workloads.build("paper-ckpt", 0, True, checks, tmp_path)
    workload.job()
    workload.check()
    assert checks.attempted > 0
    assert checks.failed == 0, checks.messages
