"""Layer tracing from outside the program.

A Tracer replaces public functions and methods of the hallustat modules with
wrappers that record spans (id, parent id, name, start, end) or bump
counters, in memory, per thread. Because modules import names directly
(`from .oracle import generate_qualified`), each function is replaced under
every name that is bound to it in any hallustat module, and each method
under every class attribute bound to it (`MemorizerModel.predict` and its
alias `__call__`). `uninstall` puts the originals back.

Self time of a span is its duration minus the durations of its child spans
in the same thread. Spans started by worker threads of `--threads 2` have
no parent.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import sys
import threading
from collections import Counter
from time import perf_counter

import numpy as np

# Per-layer metric -> span whose self time it sums.
TIMED = {
    "kernels.sample_codes_s": "kernels.sample_codes",
    "kernels.count_misses_s": "kernels.count_misses",
    "kernels.product_probs_s": "kernels.product_probs",
    "evaluation.coded_other_s": "evaluation.coded_trial",
    "measures.sample_batch_s": "measures.sample_batch",
    "oracle.generate_qualified_self_s": "oracle.generate_qualified",
    "flrm.train_s": "flrm.train",
    "evaluation.mc_hp_self_s": "evaluation.mc_hp",
    "evaluation.exact_hp_s": "evaluation.exact_hp",
    "limits.nfl_brute_force_s": "limits.nfl_brute_force",
    "limits.diagonalize_s": "limits.diagonalize",
    "limits.verify_diagonal_s": "limits.verify_diagonal",
    "limits.random_table_models_s": "limits.random_table_models",
    "shannon.smallest_high_mass_set_s": "shannon.smallest_high_mass_set",
    "measures.dominates_s": "measures.dominates",
    "cli.emit_s": "cli.emit",
}

# Counters that merge across calls and threads by maximum, not by sum.
MAXIMA = ("flrm.n_bar_max", "limits.nfl_work_budget_ratio", "shannon.blocks_budget_ratio")

_DIAGONAL_SPANS = ("limits.diagonalize", "limits.verify_diagonal")


class _ThreadState:
    def __init__(self):
        self.thread = threading.current_thread()
        self.stack: list[tuple[int, str]] = []
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}

    def bump_max(self, name: str, value: float):
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value


def _nbytes(*values) -> int:
    total = 0
    for v in values:
        if isinstance(v, np.ndarray):
            total += v.nbytes
        elif isinstance(v, tuple):
            total += _nbytes(*v)
    return total


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # ------------------------------------------------------------ recording

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState()
            with self._lock:
                self._states.append(st)
            self._local.state = st
        return st

    def span(self, name: str, fn, hook=None):
        """Wrap fn in a span; hook(state, arguments by name, result) runs after."""
        signature = inspect.signature(fn) if hook is not None else None

        def wrapper(*args, **kwargs):
            st = self._state()
            sid = next(self._ids)
            parent = st.stack[-1][0] if st.stack else None
            st.stack.append((sid, name))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                st.stack.pop()
                st.spans.append((sid, parent, name, start, end))
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(st, bound.arguments, result)
            return result

        return wrapper

    def counter(self, name: str, fn, hook=None):
        """Count calls of fn; hook(state) runs before each call."""
        def wrapper(*args, **kwargs):
            st = self._state()
            st.counts[name] += 1
            if hook is not None:
                hook(st)
            return fn(*args, **kwargs)

        return wrapper

    def root(self, name: str, fn, *args):
        """Call fn(*args) inside a top-level span (one benchmark op)."""
        return self.span(name, fn)(*args)

    def drain(self):
        """Spans, counts and maxima recorded since the last drain, merged over
        threads. Call only while no traced worker thread is running."""
        spans, counts, maxima = [], Counter(), {}
        with self._lock:
            for st in self._states:
                spans.extend(st.spans)
                counts.update(st.counts)
                for k, v in st.maxima.items():
                    maxima[k] = max(maxima.get(k, 0), v)
                st.spans, st.counts, st.maxima = [], Counter(), {}
            self._states = [st for st in self._states if st.thread.is_alive()]
        spans.sort()
        return spans, counts, maxima

    # ------------------------------------------------------------- patching

    def _replace(self, owners, original, wrapper):
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, attr, wrapper)
                    self._restore.append((owner, attr, original))

    @staticmethod
    def _module(name: str):
        try:
            return importlib.import_module(name)
        except ModuleNotFoundError:
            return None

    def patch_function(self, module: str, attr: str, make):
        original = getattr(self._module(module), attr, None)
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        owners = [m for name, m in sys.modules.items()
                  if m is not None and (name == "hallustat" or name.startswith("hallustat."))]
        self._replace(owners, original, make(original))

    def patch_method(self, module: str, cls_name: str, attr: str, make):
        cls = getattr(self._module(module), cls_name, None)
        original = None if cls is None else vars(cls).get(attr)
        if original is None:
            self.missing.append(f"{module}.{cls_name}.{attr}")
            return
        self._replace([cls], original, make(original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def install(self):
        """Wrap the layer functions of every hallustat module."""
        importlib.import_module("hallustat.cli")  # binds every name the CLI uses
        span, counter = self.span, self.counter

        def kernel_hook(attr, elems_of):
            def hook(st, params, result):
                st.counts[f"kernels.{attr}_elems"] += elems_of(params, result)
                st.counts["kernels.bytes_computed"] += _nbytes(*params.values(), result)
            return hook

        for attr, elems_of in (
            ("sample_codes", lambda p, r: len(p["u_len"])),
            ("count_misses", lambda p, r: len(p["codes"])),
            ("product_probs", lambda p, r: r.size),
        ):
            self.patch_function("hallustat.kernels", attr, lambda f, a=attr, h=kernel_hook(attr, elems_of):
                                span(f"kernels.{a}", f, h))

        def on_mc(st, params, result):
            st.counts["evaluation.mc_draws"] += params["n_samples"]

        def on_exact(st, params, result):
            st.counts["evaluation.exact_support_atoms"] += sum(1 for _ in params["mu"].support())

        def on_train(st, params, result):
            st.counts["flrm.table_entries"] += len(result.table)
            st.counts["flrm.train_calls"] += 1
            st.bump_max("flrm.n_bar_max", result.threshold)

        def on_generate(st, params, result):
            st.counts["oracle.pairs"] += len(result)

        def on_nfl(st, params, result):
            inst = params["inst"]
            n, p = len(inst.domain), len(inst.codomain)
            st.counts["limits.nfl_sequences"] += n**inst.m
            st.bump_max("limits.nfl_work_budget_ratio", p**n * n**inst.m * n / params["budget"])

        def on_typical(st, params, result):
            blocks = len(params["source"].pmf) ** params["m"]
            st.counts["shannon.blocks"] += blocks
            st.bump_max("shannon.blocks_budget_ratio", blocks / params["budget"])

        def on_emit(st, params, result):
            st.counts["cli.emit_bytes"] += len(params["text"].encode())

        for module, attr, name, hook in (
            ("hallustat.evaluation", "_fast_trial", "evaluation.coded_trial", None),
            ("hallustat.evaluation", "run_trial", "evaluation.run_trial", None),
            ("hallustat.evaluation", "mc_hp", "evaluation.mc_hp", on_mc),
            ("hallustat.evaluation", "exact_hp", "evaluation.exact_hp", on_exact),
            ("hallustat.evaluation", "sweep", "evaluation.sweep", None),
            ("hallustat.oracle", "generate_qualified", "oracle.generate_qualified", on_generate),
            ("hallustat.flrm", "train", "flrm.train", on_train),
            ("hallustat.measures", "dominates", "measures.dominates", None),
            ("hallustat.limits", "nfl_brute_force", "limits.nfl_brute_force", on_nfl),
            ("hallustat.limits", "diagonalize", "limits.diagonalize", None),
            ("hallustat.limits", "verify_diagonal", "limits.verify_diagonal", None),
            ("hallustat.limits", "random_table_models", "limits.random_table_models", None),
            ("hallustat.shannon", "smallest_high_mass_set", "shannon.smallest_high_mass_set", on_typical),
            ("hallustat.cli", "_emit", "cli.emit", on_emit),
        ):
            self.patch_function(module, attr, lambda f, n=name, h=hook: span(n, f, h))

        def on_draws(st, params, result):
            st.counts["measures.sample_batch_draws"] += params["size"]

        for cls_name in ("FiniteSupport", "UniformOverSet", "LengthFactored"):
            self.patch_method("hallustat.measures", cls_name, "sample_batch",
                              lambda f: span("measures.sample_batch", f, on_draws))

        def on_predict(st):
            if st.stack and st.stack[-1][1] in _DIAGONAL_SPANS:
                st.counts["limits.model_queries"] += 1

        self.patch_method("hallustat.flrm", "MemorizerModel", "predict",
                          lambda f: counter("flrm.predict_calls", f, on_predict))
        self.patch_method("hallustat.core", "Str", "__post_init__",
                          lambda f: counter("core.str_built", f))
        self.patch_function("hallustat.core", "shortlex_string",
                            lambda f: counter("core.shortlex_string_calls", f))
        self.patch_function("hallustat.flrm", "threshold_length",
                            lambda f: counter("flrm.threshold_length_calls", f))

        def learner_factory(original):
            def make_trainer(*args, **kwargs):
                return counter("limits.nfl_learner_calls", original(*args, **kwargs))
            return make_trainer

        self.patch_function("hallustat.limits", "memorize_constant_trainer", learner_factory)


def self_times(spans) -> dict[str, float]:
    """Total self time per span name."""
    child = Counter()
    for _sid, parent, _name, start, end in spans:
        if parent is not None:
            child[parent] += end - start
    out: Counter = Counter()
    for sid, _parent, name, start, end in spans:
        out[name] += end - start - child[sid]
    return dict(out)


def layer_counts(spans, counts, maxima) -> dict[str, float]:
    """Per-layer work counts of one round, derived from its spans and counters."""
    names = {sid: name for sid, _p, name, _s, _e in spans}
    coded = [s for s in spans if s[2] == "evaluation.coded_trial"]
    coded_in_run_trial = sum(1 for s in coded if names.get(s[1]) == "evaluation.run_trial")
    run_trials = sum(1 for s in spans if s[2] == "evaluation.run_trial")
    out = {
        name: counts.get(name, 0)
        for name in (
            "kernels.sample_codes_elems", "kernels.count_misses_elems",
            "kernels.product_probs_elems", "kernels.bytes_computed",
            "core.str_built", "core.shortlex_string_calls",
            "measures.sample_batch_draws", "oracle.pairs", "flrm.predict_calls",
            "evaluation.mc_draws", "evaluation.exact_support_atoms",
            "limits.nfl_learner_calls", "limits.nfl_sequences", "limits.model_queries",
            "shannon.blocks", "cli.emit_bytes",
        )
    }
    out.update({name: maxima.get(name, 0) for name in MAXIMA})
    calls = counts.get("flrm.train_calls", 0)
    out["flrm.table_size_mean"] = counts.get("flrm.table_entries", 0) / calls if calls else 0
    out["evaluation.trials_coded"] = len(coded)
    out["evaluation.trials_object"] = run_trials - coded_in_run_trial
    return out
