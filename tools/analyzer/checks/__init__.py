"""Check passes for exist-analyzer.

Each module exposes `run(index) -> list[Finding]` over the shared
whole-program `ast_model.Index`; the driver owns allowlisting and
output, so passes simply report every violation they can prove.
"""

from checks import (
    banned_api, determinism, event_block, exhaustive, guarded_by, lock_rank,
)

ALL_CHECKS = {
    "lock-rank": lock_rank.run,
    "guarded-by": guarded_by.run,
    "event-block": event_block.run,
    "determinism": determinism.run,
    "exhaustive": exhaustive.run,
    "banned-api": banned_api.run,
}
