"""The framework registry: the one place names map to strategy bundles.

Every comparable system (the paper's Table 5 lineup plus the out-of-core
variants) registers a constructor under a lowercase name; everything
else — the experiment runner, the serving simulator, the CLIs, the
public :mod:`repro.api` facade — resolves names through
:func:`create` / :func:`available_frameworks` instead of reaching into
module-level dicts. Third-party frameworks join the comparison with
:func:`register` (usable as a decorator).
"""

from __future__ import annotations

#: name -> Framework subclass. Exposed as ``repro.frameworks.FRAMEWORKS``
#: for backward compatibility; treat it as read-only and use
#: :func:`register` to add entries.
FRAMEWORKS: dict = {}


def register(name: str, cls: type | None = None):
    """Register a framework class under ``name``.

    Usable directly (``register("mine", MyFramework)``) or as a class
    decorator (``@register("mine")``). Re-registering a name replaces the
    previous entry (latest wins), which keeps test doubles simple.
    """
    if not isinstance(name, str) or not name:
        raise ValueError("framework name must be a non-empty string")

    def _register(cls: type) -> type:
        FRAMEWORKS[name] = cls
        return cls

    if cls is None:
        return _register
    return _register(cls)


def unregister(name: str) -> None:
    """Remove a registered framework (tests cleaning up after themselves)."""
    FRAMEWORKS.pop(name, None)


def available_frameworks() -> tuple:
    """Registered framework names, sorted."""
    return tuple(sorted(FRAMEWORKS))


def create(name: str, **kwargs):
    """Instantiate the framework registered under ``name``; keyword
    arguments (such as ``spec``, the simulated
    :class:`repro.gpu.spec.GPUSpec`) pass through to its constructor."""
    try:
        cls = FRAMEWORKS[name]
    except KeyError:
        raise KeyError(
            f"unknown framework {name!r}; available: "
            f"{list(available_frameworks())}"
        ) from None
    return cls(**kwargs)


def resolve(framework):
    """Coerce a name, class, or instance into a framework instance."""
    if isinstance(framework, str):
        return create(framework)
    if isinstance(framework, type):
        return framework()
    return framework
