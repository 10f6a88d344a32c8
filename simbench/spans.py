"""In-memory span tracer bound around the program's public layer functions.

Each layer's function (or method) is replaced by a wrapper at every place
it is bound: the defining module, every frsicl module that imported it by
name, and the class for methods. A wrapper records one span per call:
layer, parent span, start and end (perf_counter_ns). Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array
from typing import Dict, List, Tuple

import numpy as np

# layer name -> (module, attribute path) of every implementation it covers.
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "channel.link_budget": (("frsicl.channel", "link_budget"),),
    "env.init_world": (("frsicl.env", "init_world"),),
    "env.observe": (("frsicl.env", "observe"),),
    "env.step": (("frsicl.env", "step"),),
    "env.summarize": (("frsicl.env", "summarize"),),
    "policies.decide": (("frsicl.policies", "MaxAoiPolicy.decide"),
                        ("frsicl.policies", "NearestNeighborPolicy.decide"),
                        ("frsicl.policies", "RoundRobinPolicy.decide")),
    "features.feature_vector": (("frsicl.features", "feature_vector"),),
    "icl.controller.icl_decide": (("frsicl.icl.controller", "icl_decide"),),
    "icl.pool.retrieve": (("frsicl.icl.pool", "ExperiencePool.retrieve"),),
    "icl.pool.add": (("frsicl.icl.pool", "ExperiencePool.add"),),
    "icl.prompts.build_step_prompt": (("frsicl.icl.prompts", "build_step_prompt"),),
    "icl.backends.complete": (("frsicl.icl.backends", "MockBackend.complete"),
                              ("frsicl.icl.backends", "HttpBackend.complete")),
    "icl.parsing.parse_action": (("frsicl.icl.parsing", "parse_action"),),
    "ppo.net.forward": (("frsicl.ppo.net", "forward"),),
    "ppo.net.sample_action": (("frsicl.ppo.net", "sample_action"),),
    "ppo.gae.gae_advantages": (("frsicl.ppo.gae", "gae_advantages"),),
    "ppo.loss.ppo_loss_and_grads": (("frsicl.ppo.loss", "ppo_loss_and_grads"),),
    "ppo.adam.adam_update": (("frsicl.ppo.adam", "adam_update"),),
    "harness.run_experiment": (("frsicl.harness", "run_experiment"),),
}



class Tracer:
    def __init__(self):
        self.names: List[str] = list(LAYERS)
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        # Pool records summed over all traced `retrieve` calls.
        self.retrieved_records = 0
        self._stack = [-1]
        self._bindings: List[Tuple[object, str, object]] = []

    def _wrap(self, layer_id: int, fn):
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns
        is_retrieve = self.names[layer_id] == "icl.pool.retrieve"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(layer)
            layer.append(layer_id)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            if is_retrieve:
                self.retrieved_records += len(args[0])
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()

        return traced

    def install(self) -> None:
        """Bind a wrapper at every site of every layer."""
        modules = [m for name, m in sys.modules.items()
                   if name == "frsicl" or name.startswith("frsicl.")]
        for layer_id, name in enumerate(self.names):
            for module_name, path in LAYERS[name]:
                owner = importlib.import_module(module_name)
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[attr]
                    self._bind(cls, attr, self._wrap(layer_id, original), original)
                    continue
                original = getattr(owner, path)
                wrapper = self._wrap(layer_id, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._bind(module, attr, wrapper, original)

    def _bind(self, owner, attr: str, wrapper, original) -> None:
        setattr(owner, attr, wrapper)
        self._bindings.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()

    @contextlib.contextmanager
    def paused(self):
        """Run program work the measurement must not count, untraced."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def layer_totals(self) -> Dict[str, Tuple[int, float]]:
        """layer -> (calls, self time in ms)."""
        layer = np.frombuffer(self.layer, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = (np.frombuffer(self.end, dtype=np.int64)
                    - np.frombuffer(self.start, dtype=np.int64)).astype(np.float64)
        child = parent >= 0
        children_ns = np.bincount(parent[child], weights=duration[child],
                                  minlength=len(layer))
        self_ns = duration - children_ns
        k = len(self.names)
        calls = np.bincount(layer, minlength=k)
        self_ms = np.bincount(layer, weights=self_ns, minlength=k) / 1e6
        return {name: (int(calls[i]), float(self_ms[i]))
                for i, name in enumerate(self.names)}

    def write(self, path: str) -> None:
        """Save every span: layer index, parent span index (-1 for a root),
        start and end in ns; `names` maps layer indices to layer names."""
        np.savez(path, names=np.array(self.names),
                 layer=np.frombuffer(self.layer, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start_ns=np.frombuffer(self.start, dtype=np.int64),
                 end_ns=np.frombuffer(self.end, dtype=np.int64))
