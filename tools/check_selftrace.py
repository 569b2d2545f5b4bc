#!/usr/bin/env python3
"""Validate an `existctl --self-trace` Chrome trace-event JSON file.

Checks the properties the observability PR promises (DESIGN.md §14):

  - the file parses as JSON with a ``traceEvents`` array;
  - at least ``--min-categories`` distinct span categories appear;
  - both clock domains are present: real-clock events on pid 1 and
    sim-clock events on pids >= 100;
  - duration events balance: every "B" has a matching "E" per
    (pid, tid), with proper nesting;
  - flow links pair up: every flow id with an "s" also has an "f"
    (unless events were lost and ``--allow-loss`` accepted that);
  - process/thread metadata names the pids/tids that carry events;
  - nothing was lost: ``otherData`` reports zero events overwritten by
    ring wrap (``events_lost``) and zero threads past the ring table
    (``threads_dropped``). Pass ``--allow-loss`` when a run is known to
    outgrow the rings; the counts are then printed, not enforced.

Exit status 0 when all hold, 1 with a diagnostic otherwise.
"""
import argparse
import collections
import json
import sys


def fail(msg):
    print("check_selftrace: FAIL: %s" % msg, file=sys.stderr)
    return 1


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("trace", help="self-trace JSON file")
    ap.add_argument("--min-categories", type=int, default=8)
    ap.add_argument("--allow-loss", action="store_true",
                    help="accept a self-trace whose rings lost events")
    args = ap.parse_args()

    with open(args.trace, "r", encoding="utf-8") as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        return fail("no traceEvents array")

    other = doc.get("otherData") or {}
    lost = other.get("events_lost")
    dropped = other.get("threads_dropped")
    if not isinstance(lost, int) or not isinstance(dropped, int):
        return fail("otherData lacks events_lost/threads_dropped: "
                    "cannot tell whether the trace is complete")
    if (lost or dropped) and not args.allow_loss:
        return fail("incomplete self-trace: %d event(s) lost to ring "
                    "wrap, %d thread(s) dropped (pass --allow-loss if "
                    "expected)" % (lost, dropped))

    cats = set()
    pids = set()
    open_stacks = collections.defaultdict(list)
    flows = collections.defaultdict(set)
    named_pids = set()
    named_tids = set()
    event_pids = set()
    event_tids = set()

    for e in events:
        ph = e.get("ph")
        pid, tid = e.get("pid"), e.get("tid")
        if ph == "M":
            if e.get("name") == "process_name":
                named_pids.add(pid)
            elif e.get("name") == "thread_name":
                named_tids.add((pid, tid))
            continue
        event_pids.add(pid)
        event_tids.add((pid, tid))
        if e.get("cat"):
            cats.add(e["cat"])
        pids.add(pid)
        if ph == "B":
            open_stacks[(pid, tid)].append(e.get("name"))
        elif ph == "E":
            stack = open_stacks[(pid, tid)]
            if not stack:
                return fail("unmatched E on pid=%s tid=%s" % (pid, tid))
            stack.pop()
        elif ph in ("s", "f"):
            flows[e.get("id")].add(ph)

    for key, stack in open_stacks.items():
        if stack:
            return fail("unclosed B %r on pid=%s tid=%s"
                        % (stack[-1], key[0], key[1]))
    # A ring that wrapped may have overwritten one end of a flow; with
    # loss allowed those half-flows are expected, not a defect.
    half_flows = 0
    for fid, phases in flows.items():
        if phases != {"s", "f"}:
            if not lost:
                return fail("flow %s has only %s" % (fid, sorted(phases)))
            half_flows += 1

    if len(cats) < args.min_categories:
        return fail("only %d categories (%s); need >= %d"
                    % (len(cats), ", ".join(sorted(cats)),
                       args.min_categories))
    if 1 not in pids:
        return fail("no real-clock events (pid 1)")
    if not any(isinstance(p, int) and p >= 100 for p in pids):
        return fail("no sim-clock events (pid >= 100)")
    if not event_pids <= named_pids:
        return fail("pids without process_name metadata: %s"
                    % sorted(event_pids - named_pids))
    if not event_tids <= named_tids:
        return fail("tids without thread_name metadata: %s"
                    % sorted(event_tids - named_tids))

    print("check_selftrace: OK: %d events, %d categories (%s), "
          "%d pids, %d half-flows, %d lost, %d threads dropped"
          % (sum(1 for e in events if e.get("ph") != "M"),
             len(cats), ", ".join(sorted(cats)), len(pids), half_flows,
             lost, dropped))
    return 0


if __name__ == "__main__":
    sys.exit(main())
