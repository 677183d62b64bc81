"""In-memory spans around the public functions of flipswitch's modules.

``Tracer.install`` replaces every public function of ``cli``, ``channels``,
``measures`` and ``matcore`` with a timing wrapper, in every flipswitch
module that holds the name (``cli.pair_evolution`` as well as
``measures.pair_evolution``), so calls inside the package are traced too.
``uninstall`` puts the originals back.  Nothing in the package changes.

A span is ``(name, seconds, self_s, extra)``: self time is the duration
minus the time covered by child spans.  ``extra`` holds the work counts
taken at the boundary (grid points and output bytes of
``conditional_kraus``, samples of ``pair_search``).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

TRACED_MODULES = ("cli", "channels", "measures", "matcore")


def _kraus_extra(bound, result):
    return {"points": len(bound["ts"]), "out_bytes": result[0].nbytes}


def _search_extra(bound, result):
    return {"samples": int(bound["samples"])}


_EXTRAS = {
    "measures.conditional_kraus": _kraus_extra,
    "measures.pair_search": _search_extra,
}


def _package_modules():
    return [m for name, m in sys.modules.items() if name == "flipswitch" or name.startswith("flipswitch.")]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [child_seconds] per open span
        self._patched: list[tuple] = []  # (module, attribute, original)

    def _wrap(self, name: str, fn):
        extra_fn = _EXTRAS.get(name)
        signature = inspect.signature(fn) if extra_fn else None
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                extra = None
                if extra_fn is not None and result is not None:
                    extra = extra_fn(signature.bind(*args, **kwargs).arguments, result)
                spans.append((name, end - start, end - start - frame[0], extra))

        return traced

    def install(self) -> None:
        modules = _package_modules()
        for short in TRACED_MODULES:
            module = sys.modules[f"flipswitch.{short}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for holder in modules:
                    if vars(holder).get(attr) is fn:
                        self._patched.append((holder, attr, fn))
                        setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._patched):
            setattr(holder, attr, fn)
        self._patched.clear()

    def take(self) -> list[tuple]:
        """Hand over the recorded spans and start a new list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def summarize(spans: list[tuple]) -> dict:
    """Per-name calls, inclusive seconds, self seconds and summed extras."""
    out: dict = defaultdict(lambda: {"calls": 0, "seconds": 0.0, "self_s": 0.0})
    for name, seconds, self_s, extra in spans:
        entry = out[name]
        entry["calls"] += 1
        entry["seconds"] += seconds
        entry["self_s"] += self_s
        for key, value in (extra or {}).items():
            entry[key] = entry.get(key, 0) + value
    return out
