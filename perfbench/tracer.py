"""Outside-in tracer: times the package's modules by wrapping their functions.

Nothing in the package is edited.  `install` finds every public function
defined in a public module of the package and replaces it, in every loaded
module namespace that binds it, by a wrapper that records one span per
call: name, start, end and the enclosing span.  A call made as
`model.beta_function` and one made as `specfun.beta_function` are both
seen.  Discovery is by module contents, so a function that a later version
of the package deletes or renames simply records no calls.

Spans are kept in memory as parallel lists and written out at the end.
The tracer keeps a single span stack, so trace only single-threaded runs.

Calls made through a reference taken before `install` (a default argument,
a function stored in a container) are not seen.
"""

from __future__ import annotations

import csv
import functools
import inspect
import sys
import time


def layer_of(module_name: str, package: str) -> str | None:
    """Layer of a module: its first component below the package.

    Private modules (a component starting with `_`) have no layer: their
    functions count as the self time of the public function calling them.
    """
    if not module_name.startswith(package + "."):
        return None
    parts = module_name.split(".")[1:]
    if any(p.startswith("_") for p in parts):
        return None
    return parts[0]


class Tracer:
    """Span recorder for the functions of one package."""

    def __init__(self):
        self.names: list[str] = []
        self.start_ns: list[int] = []
        self.end_ns: list[int] = []
        self.parent: list[int] = []    # enclosing span, -1 at top level
        self.child_ns: list[int] = []  # time covered by direct children
        self._stack: list[int] = []
        self._installed: list[tuple[dict, str, object]] = []

    def _wrap(self, name: str, func):
        names, starts, ends = self.names, self.start_ns, self.end_ns
        parents, child, stack = self.parent, self.child_ns, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            child.append(0)
            ends.append(0)
            stack.append(index)
            start = clock()
            starts.append(start)
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                ends[index] = end
                stack.pop()
                if stack:
                    child[stack[-1]] += end - start

        return traced

    def install(self, package: str) -> None:
        """Wrap the package's public functions in every namespace binding them."""
        originals = {}
        for module_name, module in list(sys.modules.items()):
            layer = layer_of(module_name, package)
            if layer is None or module is None:
                continue
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module_name):
                    originals[id(obj)] = (obj, f"{layer}.{attr}")
        wrappers = {}
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == package
                                      or module_name.startswith(package + ".")):
                continue
            namespace = vars(module)
            for attr, obj in list(namespace.items()):
                if id(obj) not in originals:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(originals[id(obj)][1], obj)
                namespace[attr] = wrappers[id(obj)]
                self._installed.append((namespace, attr, obj))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._installed):
            namespace[attr] = original
        self._installed.clear()

    def spans(self):
        """(name, duration_ns, self_ns, parent) per span, in call order."""
        for i, name in enumerate(self.names):
            duration = self.end_ns[i] - self.start_ns[i]
            yield name, duration, duration - self.child_ns[i], self.parent[i]

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["span", "name", "start_ns", "end_ns", "self_ns", "parent"])
            origin = self.start_ns[0] if self.start_ns else 0
            for i, (name, duration, self_ns, parent) in enumerate(self.spans()):
                start = self.start_ns[i] - origin
                writer.writerow([i, name, start, start + duration, self_ns, parent])
