"""Point specifications: what one sweep point runs, spawn-safely.

A :class:`PointSpec` names its point function by *importable reference*
(``"package.module:qualname"``) instead of holding the function object.
That keeps specs trivially picklable under the ``spawn`` start method,
JSON-able for logging, and guarantees the worker executes exactly the code
the current source tree defines — there is no silently-captured closure
state to drift between the serial oracle and a worker process.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple


def callable_ref(fn: Callable[..., Any]) -> str:
    """The ``"module:qualname"`` reference of a module-level callable.

    Raises ``ValueError`` for lambdas, locals, and bound methods — anything
    a spawned worker could not re-import by name.
    """
    name = getattr(fn, "__qualname__", None)
    module = getattr(fn, "__module__", None)
    if not name or not module or "<" in name or "." in name:
        raise ValueError(
            f"{fn!r} is not an importable module-level callable; farm point "
            f"functions must be plain top-level functions")
    ref = f"{module}:{name}"
    if resolve_callable(ref) is not fn:
        raise ValueError(f"{ref} does not resolve back to {fn!r}")
    return ref


def resolve_callable(ref: str) -> Callable[..., Any]:
    """Import and return the callable a ``"module:qualname"`` ref names."""
    module_name, _, qualname = ref.partition(":")
    if not module_name or not qualname:
        raise ValueError(f"malformed callable reference {ref!r} "
                         "(expected 'module:qualname')")
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    if not callable(obj):
        raise TypeError(f"{ref} resolved to non-callable {obj!r}")
    return obj


@dataclass(frozen=True)
class PointSpec:
    """One grid point: a function reference plus its keyword arguments.

    A point's place in the grid is its position in the list handed to
    :func:`~repro.farm.farm.run_specs`.  ``labels`` carry the
    human-readable axis values for reports and failure messages; ``seed``
    records the per-point seed for provenance.  :meth:`build` forwards an
    explicit ``seed`` into ``kwargs`` (unless the caller already put one
    there), so the point function consumes exactly the seed the spec
    records.
    """

    func: str
    kwargs: Dict[str, Any] = field(default_factory=dict)
    labels: Tuple[str, ...] = ()
    seed: Optional[int] = None

    @classmethod
    def build(cls, fn: Callable[..., Any], *, labels: Tuple[str, ...] = (),
              seed: Optional[int] = None, **kwargs: Any) -> "PointSpec":
        """Spec from a callable, validating importability up front."""
        if seed is None:
            seed = kwargs.get("seed")
        elif "seed" not in kwargs:
            kwargs["seed"] = seed
        return cls(func=callable_ref(fn), kwargs=kwargs,
                   labels=tuple(str(label) for label in labels), seed=seed)

    def resolve(self) -> Callable[..., Any]:
        return resolve_callable(self.func)

    def arguments(self) -> Dict[str, Any]:
        """Every keyword the point will see: ``kwargs`` over its defaults.

        Raises ``TypeError`` when ``kwargs`` do not bind to the function.
        """
        bound = inspect.signature(self.resolve()).bind(**self.kwargs)
        bound.apply_defaults()
        return dict(bound.arguments)

    @property
    def label(self) -> str:
        return "/".join(self.labels) or self.func.rpartition(":")[2]
