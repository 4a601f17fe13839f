"""The ``@sanitizes`` declaration for the flow analyzer's taint rules.

The interprocedural taint analysis (``repro.devtools.flow``) treats
every value derived from untrusted web content as tainted until it
passes through a function explicitly declared to neutralize a class of
sink.  That declaration is the :func:`sanitizes` decorator::

    from repro.sanitizers import sanitizes

    @sanitizes("path")
    def parse_url(url: str) -> ParsedURL: ...

The decorator returns the function unchanged.  The analyzer finds it by
name in the AST, so declaring sanitization is an auditable, reviewable
act rather than an implicit property of a helper's name.

Categories match the taint sink rules:

==========  ==========================================================
``path``    filesystem path construction / ``open()``          (T001)
``ssrf``    outbound fetch URLs (registrable-domain pinning)    (T004)
``*``       clears every category (full sanitization)
==========  ==========================================================
"""

from __future__ import annotations

from typing import Callable, TypeVar

from repro.exceptions import ValidationError

__all__ = ["sanitizes", "SANITIZER_CATEGORIES"]

#: The recognized sink categories (plus the ``"*"`` wildcard).
SANITIZER_CATEGORIES = frozenset({"path", "ssrf", "*"})

_F = TypeVar("_F", bound=Callable[..., object])


def sanitizes(*categories: str) -> Callable[[_F], _F]:
    """Declare that the decorated function's return value is safe for
    the given sink ``categories``.

    Args:
        categories: one or more of :data:`SANITIZER_CATEGORIES`
            (``"*"`` clears everything).

    Returns:
        A decorator that returns the function unchanged (zero call
        overhead).
    """
    kinds = frozenset(categories)
    if not kinds:
        raise ValidationError("sanitizes() requires at least one category")
    unknown = kinds - SANITIZER_CATEGORIES
    if unknown:
        raise ValidationError(
            f"unknown sanitizer categories {sorted(unknown)}; "
            f"choose from {sorted(SANITIZER_CATEGORIES)}"
        )

    def decorate(fn: _F) -> _F:
        return fn

    return decorate
