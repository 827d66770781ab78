"""Search guards for the exhaustive oracles.

Guards are soft configuration values, not hard limits: every guarded
operation takes an explicit override, and the ``NTK_GUARD_N`` environment
variable raises (or lowers) all of them at once. Exceeding a guard raises
:class:`~ntk.errors.OrderTooLarge` (or ``TooLarge`` for the vertex-count
guard of the exact independent-set solver).
"""

import os

from .errors import OrderTooLarge

DEFAULT_GUARDS = {
    "transversal": 12,       # brute-force transversal search, by order
    "count": 10,             # exhaustive transversal counting, by order
    "max_partial": 9,        # maximum partial transversal search, by order
    "complete_mapping": 16,  # exhaustive complete-mapping search, by order
    "independent_set": 60,   # exact independent-set solver, by vertex count
}

ENV_OVERRIDE = "NTK_GUARD_N"


def guard_limit(kind: str, override: int | None = None) -> int:
    """Effective guard for ``kind``: explicit override > env var > default."""
    if override is not None:
        return int(override)
    env = os.environ.get(ENV_OVERRIDE)
    if env is not None and env.strip():
        return int(env)
    return DEFAULT_GUARDS[kind]


def ensure_within(kind: str, size: int, override: int | None = None,
                  error: type = OrderTooLarge) -> None:
    limit = guard_limit(kind, override)
    if size > limit:
        raise error(
            f"{kind} search guarded at {limit} but size {size} was requested; "
            f"pass an explicit guard or set {ENV_OVERRIDE} to force"
        )
