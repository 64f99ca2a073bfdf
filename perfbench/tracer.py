"""Per-layer tracing from outside the package.

`Tracer.install` replaces every public function of the layer modules, in
every ``cactus_groups`` module namespace that binds it, with a wrapper
that records a span: id, parent id, name, start and end.  A span's self
time is its duration minus the time of its child spans.  Aggregates are
kept per span name as calls run; the first `SPAN_LOG` spans are kept
whole.  `Tracer.uninstall` puts every original back, and `bound_wrappers`
proves that none is left.

Counters recorded at the same boundaries (letters in and cancelled,
vanishing products, monomials out, degrees tried, kernel calls inside
verification) come from `COUNTERS`, computed from each call's arguments
and result.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "cactus_groups"
LAYERS = (
    "words",
    "cactus_core",
    "diagram_group",
    "kernels",
    "algebra_f2",
    "algebra_z",
    "certificates",
    "cli",
)
# Methods traced besides module functions: (layer, class, method).
METHODS = (
    ("certificates", "SeparationCertificate", "to_json"),
    ("certificates", "SeparationCertificate", "from_json"),
)
MARK = "__perfbench_span__"
SPAN_LOG = 10000

SEPARATIONS = {
    "algebra_f2.f2_image": "algebra_f2.nilpotent_separation",
    "algebra_z.z_image": "algebra_z.tfn_separation",
}
VERIFY = "certificates.verify_certificate"


def _lean_reduce(count, args, result):
    count["letters_in"] += len(args[0])
    count["letters_cancelled"] += len(args[0]) - len(result)


def _letters_in(count, args, result):
    count["letters_in"] += len(args[0])


def _canonical_if_lean(count, args, result):
    count["zero"] += result is None


def _parse(count, args, result):
    count["letters"] += len(result)


def _f2_image(count, args, result):
    count["monomials_out"] += len(result.support)


def _z_image(count, args, result):
    count["terms_out"] += len(result.coeffs)


def _separation(count, args, result):
    count["separated"] += result is not None


COUNTERS = {
    "kernels.lean_reduce": _lean_reduce,
    "kernels.lex_least": _letters_in,
    "kernels.canonical_if_lean": _canonical_if_lean,
    "words.parse_cactus_word": _parse,
    "words.parse_diagram_word": _parse,
    "algebra_f2.f2_image": _f2_image,
    "algebra_z.z_image": _z_image,
    "algebra_f2.nilpotent_separation": _separation,
    "algebra_z.tfn_separation": _separation,
}


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "count")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.count: dict[str, int] = defaultdict(int)


def layer_functions() -> dict[object, str]:
    """Public functions of each layer module -> span name ``layer.function``.

    A function belongs to the layer whose module defines it; the kernel
    layer owns the functions of whichever backend it selected.
    """
    owned = {}
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        homes = {module.__name__}
        if layer == "kernels":
            homes.add(module._impl.__name__)
        for attr, value in vars(module).items():
            if attr.startswith("_") or not callable(value) or isinstance(value, type):
                continue
            if getattr(value, "__module__", None) in homes:
                owned.setdefault(value, f"{layer}.{attr}")
    return owned


def package_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def bound_wrappers() -> list[str]:
    """Every place in the package that still binds a tracing wrapper."""
    found = []
    for module in package_modules():
        for attr, value in vars(module).items():
            if hasattr(value, MARK):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type):
                for name, member in vars(value).items():
                    if hasattr(getattr(member, "__func__", member), MARK):
                        found.append(f"{module.__name__}.{attr}.{name}")
    return found


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.spans: list[list] = []  # [id, parent id, name, start, end]
        self._stack: list[list] = []  # [id, name, child seconds]
        self._open: dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._patched: list[tuple] = []  # (namespace, attribute, original)

    # -- spans -------------------------------------------------------------

    def wrap(self, name: str, fn):
        stats, stack, is_open, spans = self.stats, self._stack, self._open, self.spans
        counter = COUNTERS.get(name)
        image_of = SEPARATIONS.get(name)
        is_kernel = name.startswith("kernels.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._next_id += 1
            parent = stack[-1] if stack else None
            # Spans are logged when they open, so a kept span's parent is kept.
            entry = None
            if len(spans) < SPAN_LOG:
                entry = [self._next_id, parent[0] if parent else 0, name, 0.0, 0.0]
                spans.append(entry)
            frame = [self._next_id, name, 0.0]
            stack.append(frame)
            is_open[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                is_open[name] -= 1
                took = end - start
                stat = stats[name]
                stat.calls += 1
                stat.total_s += took
                stat.self_s += took - frame[2]
                if parent is not None:
                    parent[2] += took
                if entry is not None:
                    entry[3], entry[4] = start, end
            if counter is not None:
                counter(stat.count, args, result)
            if image_of is not None and parent is not None and parent[1] == image_of:
                stats[image_of].count["degrees_tried"] += 1
            if is_kernel and is_open[VERIFY]:
                stats[VERIFY].count["kernel_calls"] += 1
            return result

        setattr(wrapper, MARK, name)
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): self.wrap(name, fn) for fn, name in layer_functions().items()}
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        for layer, cls_name, method in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], cls_name)
            original = vars(cls)[method]
            name = f"{layer}.{method}"
            if isinstance(original, classmethod):
                replacement = classmethod(self.wrap(name, original.__func__))
            else:
                replacement = self.wrap(name, original)
            self._patched.append((cls, method, original))
            setattr(cls, method, replacement)

    def uninstall(self) -> None:
        while self._patched:
            namespace, attr, original = self._patched.pop()
            setattr(namespace, attr, original)
        left = bound_wrappers()
        if left:
            raise RuntimeError(f"tracing wrappers left behind: {left}")

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

