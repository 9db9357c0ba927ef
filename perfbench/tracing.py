"""Per-layer spans recorded by wrapping the program's public functions.

`Tracer.install()` replaces every public function of the layer modules with a
wrapper, in every spraywaves module that holds a reference to it, so calls
from one module into another (and within a module, through its globals) are
caught. Each call is a span with a parent: the innermost wrapped call active
when it started. Spans are folded into per-name aggregates as they close, so
memory stays flat however many calls a pass makes:

- calls, raised (spans that ended in an exception);
- inclusive seconds, counted for outermost spans of a name only, so that
  recursion is not counted twice;
- self seconds: span duration minus the time covered by its child spans;
- parent -> child call counts.

Nothing under src/ is modified; `uninstall()` restores the originals.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "profiles", "quadrature", "dispersion", "hyperbolic", "modesim")


class _Stat:
    __slots__ = ("calls", "raised", "incl", "self_s")

    def __init__(self):
        self.calls = 0
        self.raised = 0
        self.incl = 0.0
        self.self_s = 0.0


class Tracer:
    def __init__(self, package):
        self.package = package
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.edges: Counter = Counter()
        self.derived: Counter = Counter()
        self._stack: list[list] = []          # [name, child seconds]
        self._depth: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- result probes: counts the program reports in its return values --
    def _probe(self, name, result):
        if name == "dispersion.find_roots":
            self.derived["roots"] += len(result)
            self.derived["newton_iters"] += sum(r.newton_iters for r in result)
        elif name == "modesim.integrate":
            self.derived["rk4_steps"] += len(result.times) - 1

    def _wrap(self, name, fn):
        stats, stack, depth, edges, derived = (self.stats, self._stack, self._depth,
                                               self.edges, self.derived)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [name, 0.0]
            edges[(stack[-1][0] if stack else "", name)] += 1
            if name == "dispersion.dispersion_value" and depth["dispersion.find_roots"]:
                derived["find_roots_evals"] += 1
            stack.append(frame)
            depth[name] += 1
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[name] -= 1
                st = stats[name]
                st.calls += 1
                st.self_s += elapsed - frame[1]
                if not depth[name]:
                    st.incl += elapsed
                if raised:
                    st.raised += 1
                if stack:
                    stack[-1][1] += elapsed
            self._probe(name, result)
            return result

        return span

    def _modules(self):
        pkg = self.package
        names = [m.name for m in pkgutil.iter_modules(pkg.__path__)]
        return [pkg] + [importlib.import_module(f"{pkg.__name__}.{n}") for n in names]

    def install(self) -> None:
        modules = self._modules()
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{self.package.__name__}.{layer}")
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)][1])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def layer_self(self, layer: str) -> float:
        return sum(st.self_s for name, st in self.stats.items()
                   if name.startswith(layer + "."))

    def snapshot(self) -> dict:
        return {"spans": {name: {"calls": st.calls, "raised": st.raised,
                                 "s": st.incl, "self_s": st.self_s}
                          for name, st in sorted(self.stats.items())},
                "edges": {f"{a or '<bench>'} -> {b}": n
                          for (a, b), n in sorted(self.edges.items())},
                "derived": dict(self.derived),
                "layer_self_s": {layer: self.layer_self(layer) for layer in LAYERS}}
