"""Wrap and restore entry points of ``repro`` from outside.

One helper serves the traced run (spans around every layer boundary) and
the call-log recorder (what the simulated fleet asks of a ``Coordinator``).
Both measure the program without editing it: a target's attribute is
replaced for the length of a run and put back afterwards.

A method is replaced on its class.  A module-level function is replaced in
*every* ``repro.*`` namespace that holds the same function object —
``from .wire import decode_frame`` binds a second name, and a caller going
through that name would otherwise slip past the wrapper.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
from typing import Any, Callable, Dict, Iterator, List, Tuple

PACKAGE = "repro"
_ORIGINAL = "__bench_original__"


def import_all() -> None:
    """Import every submodule of ``repro``.

    A module first imported *after* patching would bind the wrapper through
    its ``from x import f`` and keep it past :meth:`Instrumenter.restore`;
    importing everything up front makes the set of namespaces closed.
    """
    root = importlib.import_module(PACKAGE)
    for info in pkgutil.walk_packages(root.__path__, PACKAGE + "."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _loaded_modules() -> Iterator[Tuple[str, Any]]:
    """Every imported ``repro`` / ``repro.*`` module."""
    for name, module in list(sys.modules.items()):
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + ".")):
            yield name, module


def resolve(target: str) -> Tuple[Any, str, Callable]:
    """``"pkg.mod:func"`` or ``"pkg.mod:Class.method"`` → (owner, name, function)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    # vars() so an inherited method is an error here, not a silent patch of
    # a slot that restore() would then create instead of reset.
    original = vars(owner)[name]
    if not inspect.isfunction(original):
        raise TypeError(f"{target} is {type(original).__name__}, not a plain function")
    return owner, name, original


def public_methods(cls: type) -> List[str]:
    """Names of the plain methods ``cls`` itself defines, minus ``_private``."""
    return [
        name
        for name, value in vars(cls).items()
        if inspect.isfunction(value) and not name.startswith("_")
    ]


class Instrumenter:
    """Installs replacements and guarantees they all come off again."""

    def __init__(self) -> None:
        self._live: List[Tuple[Any, str, Callable]] = []
        self._touched: List[Tuple[Any, str, Callable]] = []

    @staticmethod
    def _namespaces(function: Callable) -> List[Tuple[Any, str]]:
        return [
            (module, attr)
            for _, module in _loaded_modules()
            for attr, value in list(vars(module).items())
            if value is function
        ]

    def wrap(self, target: str, factory: Callable[[Callable], Callable]) -> Callable:
        """Replace ``target`` with ``factory(original)`` everywhere it is bound."""
        owner, name, original = resolve(target)
        replacement = factory(original)
        setattr(replacement, _ORIGINAL, original)
        slots = [(owner, name)] if inspect.isclass(owner) else self._namespaces(original)
        for holder, attr in slots:
            setattr(holder, attr, replacement)
            self._live.append((holder, attr, original))
        return replacement

    def restore(self) -> None:
        """Put every original back and prove it by identity."""
        while self._live:
            holder, attr, original = self._live.pop()
            setattr(holder, attr, original)
            self._touched.append((holder, attr, original))
        self.assert_restored()

    def assert_restored(self) -> None:
        """Raise unless every slot ever patched holds its original object,
        and no ``repro.*`` namespace still binds a wrapper under any name."""
        if self._live:
            raise AssertionError(f"{len(self._live)} patches still installed")
        for holder, attr, original in self._touched:
            if vars(holder).get(attr) is not original:
                raise AssertionError(f"{holder!r}.{attr} was not restored")
        for module_name, module in _loaded_modules():
            for attr, value in vars(module).items():
                if hasattr(value, _ORIGINAL):
                    raise AssertionError(f"{module_name}.{attr} is still a wrapper")

    def __enter__(self) -> "Instrumenter":
        return self

    def __exit__(self, *_exc) -> None:
        self.restore()


class CallRecorder:
    """Logs the calls that enter a set of methods *from outside*.

    The depth guard is what makes a log replayable: ``Coordinator.ingest``
    calls ``pump`` itself, so a recorder without it would log that inner
    ``pump`` too and the replay would run it twice — 12 500 redundant pumps
    on ``serve_chaos``.  Only depth-0 calls are the fleet's.
    """

    def __init__(self) -> None:
        self.log: List[Tuple[str, tuple, Dict[str, Any]]] = []
        self._depth = 0

    def factory(self, name: str) -> Callable[[Callable], Callable]:
        def make(original: Callable) -> Callable:
            def recorded(obj, *args, **kwargs):
                if self._depth == 0:
                    self.log.append((name, args, kwargs))
                self._depth += 1
                try:
                    return original(obj, *args, **kwargs)
                finally:
                    self._depth -= 1

            return recorded

        return make
