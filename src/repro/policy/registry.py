"""The policy registry: name -> :class:`RoutingPolicy` class.

One validated lookup replaces the stringly-typed ``mode`` plumbing that
used to be smeared across the simulators: unknown names raise
:class:`~repro.exceptions.ConfigError` listing every registered policy,
so a typo'd ``--policy`` or config field fails loudly and immediately
instead of selecting a silent default.
"""

from __future__ import annotations

from repro.exceptions import ConfigError
from repro.policy.base import RoutingPolicy

_REGISTRY: dict[str, type[RoutingPolicy]] = {}


def register(cls: type[RoutingPolicy]) -> type[RoutingPolicy]:
    """Class decorator: enter ``cls`` into the zoo under ``cls.name``."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} has no policy name")
    if cls.name in _REGISTRY:
        raise ValueError(f"duplicate policy name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def available_policies() -> dict[str, type[RoutingPolicy]]:
    """All registered policies, sorted by name."""
    return dict(sorted(_REGISTRY.items()))


def policy_class(name: str) -> type[RoutingPolicy]:
    """Validated lookup: the class registered under ``name``.

    Raises:
        ConfigError: for unknown names, listing the known ones.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigError(
            f"unknown routing policy {name!r}; known policies: {known}"
        ) from None


def create_policy(name: str, **params) -> RoutingPolicy:
    """Instantiate the policy registered under ``name``.

    ``params`` are the policy's own knobs (``k`` for ``ecmp-k``, ``eta``
    for ``opt``, ...); a mismatch raises :class:`ConfigError` naming the
    policy rather than a bare ``TypeError``.
    """
    cls = policy_class(name)
    try:
        return cls(**params)
    except TypeError as exc:
        raise ConfigError(
            f"bad parameters for policy {name!r}: {exc}"
        ) from None

