"""Check 6: banned APIs.

The lexical rules behind the bit-identical-reports invariant: one
banned-use fact per spelling in ast_model.BANNED_API, reported when it
sits outside the rule's homes.  raw-locking is the same fact's fifth
row; lock-rank reports it, next to the rest of the lock discipline.

Rules
  raw-rand         rand()/std::mt19937 & friends outside util/rng.h;
                   randomness flows through seeded exist::Rng streams
  time-seeded-rng  an Rng/seed/srand seeding whose value reads the
                   wall clock (time(), clock(), *_clock::now())
  raw-file-io      fopen/freopen/std::ofstream/std::fstream outside the
                   durability plane and the cluster storage layer
  obs-read-back    the self-trace plane's read side outside src/obs/
"""

from __future__ import annotations

from ast_model import Finding, banned_uses_outside_home

WHY = {
    "raw-rand": "global or std RNG state outside util/rng.h; draw from "
                "an exist::Rng stream seeded by splitmix64",
    "time-seeded-rng": "seeds an RNG from the wall clock, so every run "
                       "differs; derive the seed from the config seed",
    "raw-file-io": "writes files outside the WAL/snapshot code, which "
                   "recovery cannot see",
    "obs-read-back": "reads the write-only self-trace plane back into "
                     "product code; span timing could leak into report "
                     "bytes",
}


def run(index) -> list[Finding]:
    findings: list[Finding] = []
    for tu in index.tus:
        for rule, token, line in banned_uses_outside_home(tu, WHY):
            findings.append(Finding(
                check="banned-api", rule=rule, file=tu.path, line=line,
                message=f"'{token}' {WHY[rule]}"))
    return findings
