"""Which program functions the traced run wraps, under which span names,
and what each call adds to the counters.

Each layer is patched where its callers look it up: ``quanv`` imports
``apply_circuit_batch`` by name and ``harness`` imports ``attack_batch`` and
``build_ansatz`` by name, so those aliases are patched together with the
defining module's attribute (one shared wrapper, counted once).  Calls made
through a module attribute (``quanv.quanvolve_dataset``, ``nn.train``, ...)
need only that attribute.
"""
from __future__ import annotations

import hashlib
import os

import numpy as np

from quanvbench import ansatz, attacks, cli, data, harness, nn, qsim, quanv, synthdata, verify


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=8)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _model_digest(model) -> str:
    return _digest(*(arr for _li, _name, arr in model.param_entries()))


def _source_key(source) -> tuple:
    if isinstance(source, attacks.EndToEndSource):
        return ("end_to_end", repr(source.quanv_cfg), _model_digest(source.head))
    return (source.mode, _model_digest(source.model))


def _qsim_hook(tr, args, kwargs, result):
    amps, circuit = args[0], args[1]
    states = amps.size // amps.shape[-1]
    gates = len(circuit.gates)
    tr.counts["qsim.apply_circuit_batch.states"] += states
    tr.counts["qsim.apply_circuit_batch.gate_apps"] += states * gates
    # computed, not measured: every gate reads and writes the whole batch
    tr.counts["qsim.apply_circuit_batch.bytes_computed"] += 2 * gates * amps.nbytes


def _quanvolve_dataset_hook(tr, args, kwargs, result):
    images, cfg = args[0], args[1]
    tr.counts["quanv.quanvolve_dataset.images"] += len(images)
    tr.distinct["quanv.quanvolve_dataset"].add((repr(cfg), _digest(images)))
    return len(images)


def _write_qnvf_hook(tr, args, kwargs, result):
    tr.counts["quanv.write_qnvf.bytes"] += os.path.getsize(args[0])


def _read_qnvf_hook(tr, args, kwargs, result):
    tr.counts["quanv.read_qnvf.bytes"] += os.path.getsize(args[0])


def _train_hook(tr, args, kwargs, result):
    model, inputs, labels, cfg = args[:4]
    tr.counts["nn.train.samples"] += len(inputs) * cfg.epochs
    tr.distinct["nn.train"].add((model.arch.value, cfg.seed, _digest(inputs, labels)))
    return model.arch.value


def _evaluate_hook(tr, args, kwargs, result):
    tr.counts["nn.evaluate.images"] += len(args[1])


def _attack_batch_hook(tr, args, kwargs, result):
    source, images, _labels, cfg = args[:4]
    tr.counts["attacks.attack_batch.images"] += len(images)
    if cfg.epsilon > 0:  # eps = 0 returns the clean images: never useful
        tr.distinct["attacks.attack_batch"].add((_source_key(source), repr(cfg), _digest(images)))
    return [cfg.kind.value, cfg.epsilon, source.mode, len(images)]


def _load_idx_hook(tr, args, kwargs, result):
    tr.counts["data.load_idx.bytes"] += os.path.getsize(args[0]) + os.path.getsize(args[1])


def _run_trial_hook(tr, args, kwargs, result):
    return [args[1].value, args[3].value]


# (span name, aliases, hook, runs only in the parent process of a sweep)
LAYERS = (
    ("qsim.apply_circuit_batch",
     ((qsim, "apply_circuit_batch"), (quanv, "apply_circuit_batch")), _qsim_hook, False),
    ("ansatz.build_ansatz",
     ((ansatz, "build_ansatz"), (harness, "build_ansatz"), (cli, "build_ansatz")), None, False),
    ("quanv.quanvolve_dataset", ((quanv, "quanvolve_dataset"),), _quanvolve_dataset_hook, False),
    ("quanv.quanvolve_image", ((quanv, "quanvolve_image"),), None, False),
    ("quanv.input_gradient", ((quanv, "input_gradient"),), None, False),
    ("quanv.write_qnvf", ((quanv, "write_qnvf"),), _write_qnvf_hook, False),
    ("quanv.read_qnvf", ((quanv, "read_qnvf"),), _read_qnvf_hook, False),
    ("nn.train", ((nn, "train"),), _train_hook, False),
    ("nn.input_gradient", ((nn, "input_gradient"),), None, False),
    ("nn.evaluate", ((nn, "evaluate"),), _evaluate_hook, False),
    ("attacks.attack_batch",
     ((attacks, "attack_batch"), (harness, "attack_batch")), _attack_batch_hook, False),
    ("data.load_idx", ((data, "load_idx"),), _load_idx_hook, True),
    ("data.subset", ((data, "subset"),), None, True),
    ("synthdata.synthetic_dataset", ((synthdata, "synthetic_dataset"),), None, True),
    ("harness.run_trial", ((harness, "run_trial"),), _run_trial_hook, False),
    ("harness.emit", ((harness, "aggregate"),), None, True),
    ("harness.emit", ((harness, "emit_csv"),), None, True),
    ("harness.emit", ((harness, "emit_plot"),), None, True),
)

GRADIENT_SOURCES = (attacks.SurrogateSource, attacks.EndToEndSource)


def install(tracer, patcher, parent_only: bool = False) -> None:
    """Wrap every layer (only the parent-process ones if ``parent_only``)."""
    for name, aliases, hook, in_parent in LAYERS:
        if in_parent or not parent_only:
            patcher.patch(aliases, lambda fn, name=name, hook=hook: tracer.wrap(name, fn, hook))
    patcher.patch(((harness, "iter_sweep"),),
                  lambda fn: tracer.wrap_iter("harness.iter_sweep", fn))
    if not parent_only:
        for cls in GRADIENT_SOURCES:
            patcher.patch(((cls, "gradient"),),
                          lambda fn: tracer.counter("attacks.gradient_evals", fn))


def install_verify(tracer, patcher) -> None:
    """Wrap only ``verify.run_all``; its result gives the passed count."""
    def hook(tr, args, kwargs, results):
        tr.counts["verify.passed"] += sum(r.passed for r in results)

    patcher.patch(((verify, "run_all"),), lambda fn: tracer.wrap("verify.run_all", fn, hook))
