"""``frozen_value``: ``@dataclass(frozen=True, slots=True)`` built by slot stores.

The stock ``__init__`` stores each field with an ``object.__setattr__`` C
call that looks the slot up again; this one calls the slot's member
descriptor ``__set__``, bound once per class.  All else is the stock class.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields


def frozen_value(cls: type) -> type:
    """Raises ``TypeError`` on a ``default_factory``/``init=False``/``kw_only`` field."""
    cls = dataclass(frozen=True, slots=True)(cls)
    own = fields(cls)
    params, closure = [], {}
    for f in own:
        if f.default_factory is not MISSING or not f.init or f.kw_only:
            raise TypeError(f"{cls.__name__}.{f.name}: frozen_value takes "
                            "no default_factory, init=False or kw_only field")
        closure[f"_set_{f.name}"] = cls.__dict__[f.name].__set__
        if f.default is not MISSING:
            closure[f"_dflt_{f.name}"] = f.default
        params.append(f.name if f.default is MISSING else f"{f.name}=_dflt_{f.name}")
    body = "".join(f"  _set_{f.name}(self, {f.name})\n" for f in own)
    if hasattr(cls, "__post_init__"):
        body += "  self.__post_init__()\n"
    exec(f"def make({', '.join(closure)}):\n def __init__(self, {', '.join(params)}):\n"
         f"{body} return __init__\n", {"__name__": cls.__module__}, namespace := {})
    init = namespace["make"](**closure)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {**{f.name: f.type for f in own}, "return": None}
    cls.__init__ = init
    return cls
