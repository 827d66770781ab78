"""Search guards for the exhaustive oracles, and for nothing else.

Guards are soft configuration values, not hard limits: every oracle takes
an explicit override (``guard=``; ``ntk oracle --guard-override`` on the
CLI). Exceeding a guard raises :class:`~ntk.errors.OrderTooLarge` (or
``TooLarge`` for the vertex-count guard of the exact independent-set
solver). ``near_transversal`` calls no guarded oracle.
"""

from .errors import OrderTooLarge

DEFAULT_GUARDS = {
    "transversal": 12,       # brute-force transversal search, by order
    "count": 10,             # exhaustive transversal counting, by order
    "max_partial": 9,        # maximum partial transversal search, by order
    "complete_mapping": 16,  # exhaustive complete-mapping search, by order
    "independent_set": 60,   # exact independent-set solver, by vertex count
}


def ensure_within(kind: str, size: int, override: int | None = None,
                  error: type = OrderTooLarge) -> None:
    """Raise ``error`` if ``size`` exceeds the guard for ``kind``: the
    explicit override, else the default."""
    limit = DEFAULT_GUARDS[kind] if override is None else int(override)
    if size > limit:
        raise error(
            f"{kind} search guarded at {limit} but size {size} was requested; "
            "pass an explicit guard to force"
        )
