"""Per-layer tracing of tokmoe from outside the package.

``Tracer.install`` replaces each function listed in ``TRACED`` with a timing
wrapper in every ``tokmoe`` module namespace that holds it, so a call is
traced wherever its caller looks the name up (``training`` imports
``forward_teacher_forced`` by name, ``checkpoint`` imports ``init_model`` by
name, everything else goes through module attributes).

Each wrapped call is a span: id, parent span id, function, start, end. Spans
nest on one stack because the benchmark is single-threaded, so no layer ever
waits on another and only busy time is recorded. A span's self time is its
duration minus the time covered by its child spans. Call counts and self
times are aggregated as spans close; the first ``SPAN_CAP`` raw spans are
kept in memory and written out by the caller when the run ends.
"""

from __future__ import annotations

import sys
import time

# module -> traced functions, named as ``<module>.<function>`` in the metrics.
TRACED: dict[str, list[str]] = {
    "tensor": [
        "matmul", "softmax", "softmax_backward", "concat", "concat_backward",
        "sigmoid", "sigmoid_backward", "tanh", "tanh_backward",
    ],
    "layers": [
        "cell_step", "cell_step_backward", "attention_context", "attention_backward",
        "project_to_vocab", "project_backward",
        "EmbeddingTable.lookup", "EmbeddingTable.lookup_backward",
    ],
    "model": [
        "init_model", "encode_context", "encode_backward", "expert_step",
        "expert_step_backward", "gate_weights", "gate_weights_backward",
        "chair_combine", "chair_combine_backward", "forward_teacher_forced",
        "backward_teacher_forced", "greedy_decode",
    ],
    "training": [
        "train_run", "train_epoch", "train_batch", "nll_sequence", "apply_l2",
        "clip_gradients", "adam_step", "grad_check",
    ],
    "data": ["generate_synthetic_splits", "Vocabulary.build", "encode_corpus"],
    "metrics": ["build_report", "bleu_corpus"],
    "checkpoint": ["save_model", "load_model", "save_tensors", "load_tensors", "fnv1a64"],
    "cli": ["run_gradcheck"],
}

FUNCTIONS: list[str] = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]

# Raw spans kept in memory; calls and self times count every span regardless.
SPAN_CAP = 20_000


class Tracer:
    def __init__(self) -> None:
        self.calls = [0] * len(FUNCTIONS)
        self.self_s = [0.0] * len(FUNCTIONS)
        self.covered_s = 0.0    # time inside top-level spans
        self.spans: list[tuple[int, int, int, float, float]] = []
        self.span_count = 0
        self._stack: list[list] = []  # open spans: [span id, child time]
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _wrap(self, index: int, fn):
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        calls = self.calls
        self_s = self.self_s
        tracer = self

        def traced(*args, **kwargs):
            tracer.span_count += 1
            frame = [tracer.span_count, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[index] += 1
                self_s[index] += duration - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += duration
                    parent_id = parent[0]
                else:
                    tracer.covered_s += duration
                    parent_id = 0
                if len(spans) < SPAN_CAP:
                    spans.append((frame[0], parent_id, index, start, end))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        """Wrap every traced function in every tokmoe namespace holding it."""
        namespaces = [
            module for name, module in list(sys.modules.items())
            if module is not None and (name == "tokmoe" or name.startswith("tokmoe."))
        ]
        for index, full in enumerate(FUNCTIONS):
            mod_name, _, attr = full.partition(".")
            module = sys.modules[f"tokmoe.{mod_name}"]
            if "." in attr:  # a method: wrap it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    replacement = classmethod(self._wrap(index, raw.__func__))
                else:
                    replacement = self._wrap(index, raw)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, replacement)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(index, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._restore.append((ns, key, original))
                        setattr(ns, key, wrapper)

    def exclude(self, duration: float) -> None:
        """Take time spent in the current span on other work out of its self time."""
        if self._stack:
            self._stack[-1][1] += duration
            self.covered_s -= duration  # the top-level span will add it back

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # ------------------------------------------------------------------
    def snapshot(self) -> tuple[list[int], list[float], float]:
        return list(self.calls), list(self.self_s), self.covered_s

    def span_records(self) -> list[dict]:
        return [
            {"id": sid, "parent": parent, "name": FUNCTIONS[index], "start": start, "end": end}
            for sid, parent, index, start, end in self.spans
        ]


def diff(after: tuple[list[int], list[float], float], before: tuple[list[int], list[float], float]):
    """Calls, self times and covered time between two snapshots."""
    calls = [a - b for a, b in zip(after[0], before[0])]
    self_s = [a - b for a, b in zip(after[1], before[1])]
    return calls, self_s, after[2] - before[2]
