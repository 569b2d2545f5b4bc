"""Check 4: determinism dataflow.

An AST-accurate pass over container iteration that is alias-aware
(follows `using` aliases to the underlying container) and taint-aware
(iteration order escaping through a collected-into local or a return
value is still a violation, even when the serialization loop itself
runs over an innocent std::vector).

Rules:

  unordered-iteration      iterating an unordered container either
                           (a) inside the bit-identical-output
                           subsystems, or (b) anywhere, when the loop
                           body feeds a serialization sink
  unordered-taint-return   returning a container populated in
                           unordered iteration order without sorting
  pointer-keyed-container  map/set keyed by pointer value, declared as
                           a class member, a function parameter or a
                           local in the bit-identical-output subsystems

Mitigation is recognized in-function: passing the collected container
to std::sort (or member .sort()) clears the taint.
"""

from __future__ import annotations

import re

from ast_model import Finding

# Subsystems whose outputs must be bit-identical across runs.
ORDERED_OUTPUT_DIRS = (
    "src/analysis/", "src/cluster/", "src/decode/", "src/core/",
    "src/hwtrace/",
)

_PTR_KEY_RE = re.compile(
    r"(?:unordered_)?(?:map|set|multimap|multiset)<[^,>]*\*")
_ID_RE = re.compile(r"[A-Za-z_]\w*")


def _expr_tail(expr: str) -> str:
    ids = _ID_RE.findall(expr)
    return ids[-1] if ids else ""


def _is_unordered(index, f, tail: str) -> bool:
    """Is identifier `tail` (local or member) of unordered type?"""
    t = f.local_types.get(tail)
    if t is not None:
        return index.is_unordered_type(t) or "unordered_" in t
    cls = f.cls
    for qname, c in index.classes.items():
        if not cls or ("::" + cls + "::") not in ("::" + qname + "::"):
            continue
        for m in c.members:
            if m.name == tail:
                return m.is_unordered or \
                    index.is_unordered_type(m.type_text)
    return False


def run(index) -> list[Finding]:
    findings: list[Finding] = []

    for q, f in index.functions.items():
        in_ordered_dir = f.file.startswith(ORDERED_OUTPUT_DIRS)
        tainted: set[str] = set()
        for it in f.iters:
            tail = _expr_tail(it.container)
            unordered = _is_unordered(index, f, tail)
            taint_src = tail in tainted
            if not unordered and not taint_src:
                continue
            origin = ("unordered container" if unordered
                      else "container populated in unordered order")
            if it.sink_calls:
                findings.append(Finding(
                    check="determinism", rule="unordered-iteration",
                    file=f.file, line=it.sink_line or it.line,
                    message=f"loop over {origin} '{it.container}' "
                            f"feeds serialization sink "
                            f"'{it.sink_calls[0]}'; iteration order is "
                            "nondeterministic",
                    function=q))
            elif unordered and in_ordered_dir and not (
                    it.collects_into and
                    it.collects_into in f.sorted_idents):
                # Collect-then-sort is the sanctioned mitigation; a
                # bare unordered walk in these subsystems is not.
                findings.append(Finding(
                    check="determinism", rule="unordered-iteration",
                    file=f.file, line=it.line,
                    message=f"iteration over {origin} "
                            f"'{it.container}' in a "
                            "bit-identical-output subsystem; order "
                            "must not observably leak",
                    function=q))
            if it.collects_into and \
                    it.collects_into not in f.sorted_idents:
                tainted.add(it.collects_into)
        for r in f.returned_idents:
            if r in tainted and r not in f.sorted_idents:
                findings.append(Finding(
                    check="determinism", rule="unordered-taint-return",
                    file=f.file, line=f.line,
                    message=f"'{q.rsplit('::', 1)[-1]}' returns "
                            f"'{r}', populated in unordered iteration "
                            "order and never sorted; callers inherit "
                            "the nondeterminism",
                    function=q))
                break

    def pointer_keyed(what, file, line, type_text):
        if _PTR_KEY_RE.search(index.resolve_type(type_text)):
            findings.append(Finding(
                check="determinism", rule="pointer-keyed-container",
                file=file, line=line,
                message=f"{what} is keyed by pointer value; addresses "
                        "vary across runs, so any ordered walk is "
                        "nondeterministic"))

    for c in index.classes.values():
        if c.file.startswith(ORDERED_OUTPUT_DIRS):
            for m in c.members:
                pointer_keyed(f"member '{c.qname}::{m.name}'", c.file,
                              m.line, m.type_text)
    for q, f in index.functions.items():
        if f.file.startswith(ORDERED_OUTPUT_DIRS):
            for name, line in f.local_lines.items():
                pointer_keyed(f"'{name}' in '{q}'", f.file, line,
                              f.local_types[name])
    return findings
