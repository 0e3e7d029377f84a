"""Spans around the calls into each stochfg module, recorded from outside.

The package is left untouched: after it is imported, every target function
is replaced by a timing wrapper at each place it is bound.  A name imported
with ``from .graphs import classify`` is a separate binding in the importing
module, so all ``stochfg`` modules are scanned for the original object and
every binding is swapped.  Methods are patched on their class, which every
module shares.

Spans stay in memory (four flat arrays) and are reduced to per-name call
counts and self time (span duration minus its child spans) at the end.
Wrappers only observe, so a traced run replays the plain run exactly.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

#: (module, attribute, span name); "Class.method" patches the method on the class
TARGETS = (
    ("stochfg.environment", "Environment.step", "environment.step"),
    ("stochfg.environment", "Environment.step_batch", "environment.step_batch"),
    ("stochfg.stochastic", "StochasticFeedbackGraph.__post_init__", "stochastic.graph_validate"),
    ("stochfg.graphs", "classify", "graphs.classify"),
    ("stochfg.graphs", "independence_number", "graphs.independence_number"),
    ("stochfg.graphs", "weak_domination", "graphs.weak_domination"),
    ("stochfg.graphs", "weighted_weak_domination", "graphs.weighted_weak_domination"),
    ("stochfg.otcg", "ucb_update", "otcg.ucb_update"),
    ("stochfg.otcg", "select_eps_theta", "otcg.select_eps_theta"),
    ("stochfg.otcg", "theta", "otcg.theta"),
    ("stochfg.otcg", "iw_loss", "otcg.iw_loss"),
    ("stochfg.otcg", "psi_upper", "otcg.psi_upper"),
    ("stochfg.otcg", "lambda_bound", "otcg.lambda_bound"),
    ("stochfg.otcg", "OtcgRunner.play_round", "otcg.play_round"),
    ("stochfg.edge_catcher", "round_robin", "edge_catcher.round_robin"),
    ("stochfg.edge_catcher", "phi_components", "edge_catcher.phi_components"),
    ("stochfg.edge_catcher", "block_reduction", "edge_catcher.block_reduction"),
    ("stochfg.exp_weights", "Exp3GPolicy.distribution", "exp_weights.distribution"),
    ("stochfg.exp_weights", "Exp3GPolicy.update", "exp_weights.update"),
    ("stochfg.traces", "RegretTrace.to_csv", "traces.to_csv"),
    ("stochfg.traces", "RegretTrace.to_sidecar_json", "traces.to_sidecar_json"),
    ("stochfg.harness", "build_losses", "harness.build_losses"),
    ("stochfg.harness", "run_one", "harness.run_one"),
)


def _support_key(graph, *_args, **_kwargs):
    # in_masks is already cached by the solver's own classify call
    return graph.K, tuple(graph.in_masks)


#: span name -> function of the call's arguments whose distinct values are counted
DISTINCT_KEYS = {"graphs.weighted_weak_domination": _support_key}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self.distinct: dict[str, set] = {}

    def wrap(self, fn, span: str):
        sid = len(self.names)
        self.names.append(span)
        names, parents, starts, ends, stack = (
            self._name, self._parent, self._start, self._end, self._stack
        )
        key_fn = DISTINCT_KEYS.get(span)
        seen = self.distinct.setdefault(span, set()) if key_fn else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(sid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
                if key_fn is not None:
                    seen.add(key_fn(*args, **kwargs))

        return wrapper

    def install(self) -> None:
        """Swap every target at every binding site in the loaded stochfg modules."""
        for modname, attr, span in TARGETS:
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(cls.__dict__[meth], span))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(original, span)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "stochfg" or name.startswith("stochfg.")):
                    continue
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, bound, wrapper)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s and, where tracked, distinct argument keys."""
        n = len(self._name)
        dur = [self._end[i] - self._start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self._parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {span: {"calls": 0, "self_s": 0.0} for span in self.names}
        for i in range(n):
            rec = out[self.names[self._name[i]]]
            rec["calls"] += 1
            rec["self_s"] += dur[i] - child[i]
        for span, seen in self.distinct.items():
            out[span]["distinct"] = len(seen)
        return out
