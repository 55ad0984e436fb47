"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions and hot methods of each
hopfbraid layer.  A module-level function is replaced in every hopfbraid
module that holds it, because ``from .linalg import kron`` binds a separate
name in each importing module.  Each wrapper records its call count and its
self time (its duration minus the part covered by wrapped callees), plus a
few work counters, into in-memory aggregates.  ``uninstall`` restores every
original.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

PACKAGE = "hopfbraid"
LAYERS = ("scalar", "linalg", "groupalg", "braidrep", "quantum", "floatback")
ROOT_SPAN = ("cli", "main")  # the outermost span: one CLI invocation

# methods wrapped per (module, class): attribute -> span name
METHODS = {
    ("scalar", "CyclotomicNumber"): {
        "__add__": "scalar.add", "__radd__": "scalar.add",
        "__mul__": "scalar.mul", "__rmul__": "scalar.mul",
        "invert": "scalar.invert", "lift": "scalar.lift", "conjugate": "scalar.conjugate",
    },
    ("linalg", "Matrix"): {
        "__matmul__": "linalg.matmul", "__eq__": "linalg.eq",
        "__add__": "linalg.elementwise", "__sub__": "linalg.elementwise",
        "__neg__": "linalg.elementwise", "__mul__": "linalg.elementwise",
        "__rmul__": "linalg.elementwise",
        "transpose": "linalg.other", "conjugate_transpose": "linalg.other",
    },
    ("linalg", "RegularRepresentation"): {
        "on_tensor": "linalg.on_tensor", "on_element": "linalg.other",
        "on_basis": "linalg.other",
    },
    ("groupalg", "TensorElement"): {
        "__mul__": "groupalg.tensor_mul", "__add__": "groupalg.other",
        "__eq__": "groupalg.other",
    },
    ("groupalg", "AlgebraElement"): {
        "__mul__": "groupalg.other", "__add__": "groupalg.other",
        "__eq__": "groupalg.other",
    },
}

# module-level functions with a span name of their own; every other public
# function of a layer module is traced as "<layer>.other"
FUNCTIONS = {
    "linalg": {"kron": "linalg.kron", "invert_matrix": "linalg.invert",
               "exact_rank": "linalg.exact_rank"},
    "groupalg": {"universal_r": "groupalg.universal_r"},
    "braidrep": {name: f"braidrep.{name}" for name in
                 ("braided_r", "braiding_map", "braid_generator", "evaluate_braid_word")},
    "quantum": {"apply_gate": "quantum.apply_gate", "schmidt_rank": "quantum.schmidt_rank"},
    "floatback": {"matrix_complex": "floatback.matrix_complex",
                  "tensor_complex": "floatback.tensor_complex"},
}
# left unwrapped, so their time stays with their caller: the scalar
# constructors run once per matrix entry, and linalg.matmul is just "@"
UNTRACED = {"scalar.as_scalar", "scalar.rational", "scalar.root_of_unity",
            "scalar.cyclotomic_polynomial", "linalg.matmul"}


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [child seconds, span name] per open span
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, span: str, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        count = self._counter(span)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(args, stack[-1][1] if stack else None)
            frame = [0.0, span]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                calls[span] += 1
                self_s[span] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt

        return traced

    def _counter(self, span: str):
        counts = self.counts
        if span == "scalar.lift":
            def count(args, parent):
                if args[1] != args[0].order:
                    counts["scalar.lift.changing"] += 1
        elif span == "scalar.mul":
            def count(args, parent):
                if parent == "linalg.matmul":
                    counts["linalg.matmul.scalar_muls"] += 1
        elif span == "linalg.matmul":
            def count(args, parent):
                a, b = args
                counts["linalg.matmul.dense_mults"] += a.rows * a.cols * b.cols
        elif span == "groupalg.tensor_mul":
            tensor = sys.modules[f"{PACKAGE}.groupalg"].TensorElement

            def count(args, parent):
                a, b = args
                if isinstance(b, tensor):
                    counts["groupalg.tensor_mul.term_pairs"] += len(a.terms) * len(b.terms)
        else:
            count = None
        return count

    def _patch(self, owner, name: str, new) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def install(self) -> None:
        """Wrap every traced callable."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == PACKAGE]
        for (mod, cls), spans in METHODS.items():
            owner = getattr(sys.modules[f"{PACKAGE}.{mod}"], cls)
            wrapped = {}
            for attr, span in spans.items():
                fn = owner.__dict__[attr]
                if fn not in wrapped:  # aliases such as __radd__ = __add__ share a wrapper
                    wrapped[fn] = self._wrap(span, fn)
                self._patch(owner, attr, wrapped[fn])
        targets = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            named = FUNCTIONS.get(layer, {})
            for name, fn in vars(module).items():
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__ \
                        or name.startswith("_"):
                    continue
                if f"{layer}.{name}" in UNTRACED:
                    continue
                span = named.get(name, f"{layer}.other")
                if layer == "floatback" and name.startswith("check_"):
                    span = "floatback.check"
                targets[fn] = self._wrap(span, fn)
        mod_name, fn_name = ROOT_SPAN
        root_fn = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
        targets[root_fn] = self._wrap(mod_name, root_fn)
        for module in modules:
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in targets:
                    self._patch(module, name, targets[value])

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- results -----------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))

    def layer_calls(self, layer: str) -> int:
        return sum(v for k, v in self.calls.items() if k.startswith(layer + "."))

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced since the last reset."""
        calls, self_s, counts = self.calls, self.self_s, self.counts
        ops = calls["scalar.mul"] + calls["scalar.add"]
        dense = counts["linalg.matmul.dense_mults"]
        out = {
            "scalar.mul.calls": calls["scalar.mul"],
            "scalar.add.calls": calls["scalar.add"],
            "scalar.invert.calls": calls["scalar.invert"],
            "scalar.lift.calls": counts["scalar.lift.changing"],
            "scalar.lift_ratio": counts["scalar.lift.changing"] / ops if ops else 0.0,
            "scalar.self_s": self.layer_self_s("scalar"),
            "linalg.calls": self.layer_calls("linalg"),
            "linalg.matmul.calls": calls["linalg.matmul"],
            "linalg.matmul.dense_mults": dense,
            "linalg.matmul.fill_ratio":
                counts["linalg.matmul.scalar_muls"] / dense if dense else 0.0,
            "groupalg.tensor_mul.calls": calls["groupalg.tensor_mul"],
            "groupalg.tensor_mul.term_pairs": counts["groupalg.tensor_mul.term_pairs"],
            "groupalg.self_s": self.layer_self_s("groupalg"),
            "braidrep.braiding_map.calls": calls["braidrep.braiding_map"],
            "braidrep.braid_generator.calls": calls["braidrep.braid_generator"],
            "cli.self_s": self_s["cli"],
        }
        for span in ("linalg.matmul", "linalg.kron", "linalg.invert", "linalg.elementwise",
                     "linalg.eq", "linalg.on_tensor", "linalg.exact_rank",
                     "groupalg.tensor_mul", "groupalg.universal_r",
                     "braidrep.braided_r", "braidrep.braiding_map",
                     "braidrep.evaluate_braid_word", "quantum.apply_gate",
                     "quantum.schmidt_rank", "floatback.tensor_complex",
                     "floatback.matrix_complex", "floatback.check"):
            out[f"{span}.self_s"] = self_s[span]
        return out
