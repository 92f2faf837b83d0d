"""Spans around library calls, installed from outside the package.

A Tracer replaces named functions of the ``lorenzcast`` modules with
wrappers that record one span per call: name, start, end and the span
that was open when the call began. Every module that bound the function
with ``from ... import`` gets the wrapper, so no call path escapes.
Spans stay in memory as compact arrays, one segment per operation, and
are turned into counts and self times only after the run has finished.
"""

from __future__ import annotations

import array
import functools
import hashlib
import importlib
import inspect
import sys
import time
from collections import Counter

import numpy as np

PACKAGE = "lorenzcast"
MODULES = ("lorenz", "nn_core", "optim", "models", "train_eval", "cli")

# model-level passes: one forward per model.predict / model.forward call,
# one backward per model.backward call
MODEL_FORWARDS = ("models.wavenet_forward", "models.lstm_model_forward",
                  "models.ffn_forward")
MODEL_BACKWARDS = ("models.wavenet_backward", "models.lstm_model_backward",
                   "models.ffn_backward")


def public_functions() -> list[str]:
    """Every public, non-generator function defined in MODULES, as
    ``module.name``. Generator functions are left out: their call returns
    before any of their work runs, so a span would time nothing."""
    names = []
    for short in MODULES:
        module = importlib.import_module(f"{PACKAGE}.{short}")
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if (fn.__module__ == module.__name__ and not name.startswith("_")
                    and not inspect.isgeneratorfunction(fn)):
                names.append(f"{short}.{name}")
    return names


def resolve(name: str):
    short, attr = name.split(".", 1)
    return getattr(importlib.import_module(f"{PACKAGE}.{short}"), attr)


def package_modules():
    return [m for key, m in sorted(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]


# ---------------------------------------------------------------------------
# hooks: count work at a boundary without changing what the call does


def _count_loss_evals(tracer, fn, args, kwargs):
    loss_fn, *rest = args

    def counted():
        tracer.counts["nn_core.grad_check.loss_evals"] += 1
        return loss_fn()

    return fn(counted, *rest, **kwargs)


def _count_adam_arrays(tracer, fn, args, kwargs):
    tracer.counts["optim.adam_step.arrays"] += len(args[0])
    return fn(*args, **kwargs)


def _count_distinct_predictions(tracer, fn, args, kwargs):
    preds = fn(*args, **kwargs)
    digest = hashlib.sha256(np.ascontiguousarray(preds).tobytes()).hexdigest()
    tracer.distinct_predictions.add((id(args[1]), digest))
    return preds


def _count_train_examples(tracer, fn, args, kwargs):
    config = args[0]
    tracer.counts["train_eval.train.examples"] += (
        config.n_train * config.resolved_epochs)
    return fn(*args, **kwargs)


def _count_eval_examples(tracer, fn, args, kwargs):
    tracer.counts["train_eval.evaluate.examples"] += args[1].n_examples
    return fn(*args, **kwargs)


HOOKS = {
    "nn_core.grad_check": _count_loss_evals,
    "optim.adam_step": _count_adam_arrays,
    "train_eval.predict_dataset": _count_distinct_predictions,
    "train_eval.train": _count_train_examples,
    "train_eval.evaluate": _count_eval_examples,
}


# ---------------------------------------------------------------------------
# tracer


class OpSpans:
    """The spans of one operation: parallel arrays indexed by span."""

    def __init__(self, names, codes, starts, ends, parents, counts,
                 distinct_predictions):
        self.names = names
        self.codes = np.frombuffer(codes, dtype=np.int32).copy()
        self.starts = np.frombuffer(starts, dtype=np.float64).copy()
        self.ends = np.frombuffer(ends, dtype=np.float64).copy()
        self.parents = np.frombuffer(parents, dtype=np.int64).copy()
        self.counts = counts
        self.distinct_predictions = distinct_predictions

    def __len__(self) -> int:
        return len(self.codes)

    def mask(self, names) -> np.ndarray:
        codes = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.codes, codes)

    def under(self, name: str) -> np.ndarray:
        """True for spans that have an ancestor called `name`."""
        named = self.mask([name])
        child = np.flatnonzero(self.parents >= 0)
        parent = self.parents[child]
        result = np.zeros(len(self), dtype=bool)
        # one level of ancestry per pass; settles after as many passes as
        # the deepest nesting
        while True:
            step = np.zeros(len(self), dtype=bool)
            step[child] = named[parent] | result[parent]
            if np.array_equal(step, result):
                return result
            result = step

    def seconds(self, names) -> float:
        """Summed wall time of spans with these names (not nested in one
        another)."""
        m = self.mask(names)
        return float(np.sum(self.ends[m] - self.starts[m]))


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it covered by its children.

    Children are visited in start order (their index order), so the
    covered part is the union of their intervals clipped to the parent,
    merged on the fly.
    """
    starts, ends, parents = (np.asarray(a).tolist() for a in (starts, ends, parents))
    n = len(starts)
    covered = [0.0] * n
    reach = {}
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], starts[p], reach.get(p, starts[p]))
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


class Tracer:
    """Records spans for the named functions while installed.

    One instance serves one benchmark run: install() patches every module
    of the package, begin_op()/end_op() delimit operations, uninstall()
    restores the original functions.
    """

    def __init__(self, names, clock=time.perf_counter):
        self.names = list(names)
        self.clock = clock
        self.ops: list[OpSpans] = []
        self.bindings: dict[str, list[str]] = {}
        self._originals: set[int] = set()
        self._patched: list[tuple[object, str, object]] = []
        # wrappers hold references to these buffers; they are cleared in
        # place between operations, never replaced
        self._codes = array.array("i")
        self._starts = array.array("d")
        self._ends = array.array("d")
        self._parents = array.array("q")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.distinct_predictions: set = set()

    def wrap(self, code: int, fn, hook=None):
        codes, starts, ends, parents = (self._codes, self._starts, self._ends,
                                        self._parents)
        stack, clock, tracer = self._stack, self.clock, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(codes)
            codes.append(code)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(tracer, fn, args, kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        self.bindings = {}
        wrappers = {}
        for code, name in enumerate(self.names):
            fn = resolve(name)
            wrappers[id(fn)] = (name, self.wrap(code, fn, HOOKS.get(name)))
        self._originals = set(wrappers)
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None:
                    name, wrapper = hit
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
                    self.bindings.setdefault(name, []).append(
                        f"{module.__name__}.{attr}")

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def unpatched(self) -> list[str]:
        """Bindings that still hold an original traced function."""
        return [f"{module.__name__}.{attr}"
                for module in package_modules()
                for attr, value in vars(module).items()
                if id(value) in self._originals]

    def begin_op(self) -> None:
        self._clear()

    def end_op(self) -> OpSpans:
        op = OpSpans(self.names, self._codes, self._starts, self._ends,
                     self._parents, self.counts, self.distinct_predictions)
        self.ops.append(op)
        self._clear()
        return op

    def _clear(self) -> None:
        for buf in (self._codes, self._starts, self._ends, self._parents):
            del buf[:]
        self._stack.clear()
        self.counts = Counter()
        self.distinct_predictions = set()
