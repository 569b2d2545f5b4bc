"""The shared AST-index model every frontend lowers into.

A frontend (native lexer/parser or Clang AST-dump) turns one source
file into a `TranslationUnit` of *facts*: classes with their members
and annotations, functions with their lock operations, calls, writes,
blocking operations and container iterations, enums with their
enumerators, and callback registrations.  The `Index` merges the
per-file facts into one whole-program view and resolves the call
graph; the check passes only ever see the index, so they are frontend
agnostic by construction.

Everything here is plain dataclasses that round-trip through
`to_dict`/`from_dict`, which is what makes the per-file fact cache
(keyed by source-content hash) possible.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from dataclasses import dataclass, field

# --- Lock ranks (mirrors src/util/lock_order.h) ---------------------------

LOCK_RANKS = {
    "kPool": 0,
    "kDecodeQueue": 10,
    "kDecodeCore": 20,
    "kAgentQueue": 25,
    "kCommitLog": 30,
    "kIngest": 35,
    "kShard": 40,
    "kWal": 45,
    "kStore": 50,
    "kMetrics": 60,
    "kObs": 70,
    "kLeaf": 100,
}
RANK_NAMES = {v: k for k, v in LOCK_RANKS.items()}
UNRANKED = -1  # declaration did not name a LockRank

# Method tails too generic to resolve by name alone: std-container /
# std-algorithm vocabulary.  A call through one of these only
# resolves when the receiver's type is known exactly; the
# unique-program-wide fallback would otherwise wire every
# `keys.insert(...)` to whatever class happens to define `insert`.
GENERIC_TAILS = {
    "push_back", "emplace_back", "pop_back", "push", "pop", "insert",
    "emplace", "erase", "clear", "resize", "assign", "reserve", "swap",
    "begin", "end", "rbegin", "rend", "size", "empty", "find", "count",
    "at", "front", "back", "data", "get", "reset", "release", "str",
    "c_str", "substr", "append", "sort", "store", "load", "exchange",
    "fetch_add", "fetch_sub", "first", "second", "value", "emplace_hint",
    "push_front", "pop_front", "length", "compare", "contains",
}

# Banned spellings, one row per rule: rule -> (spellings, homes).  A
# spelling is `std::name` (that qualified name), `name(` (a call under
# any namespace, never a member call) or `ns::name(` (a call qualified
# by `ns`).  The homes are the repo paths (or path prefixes) allowed to
# use the spellings.  time-seeded-rng's spellings are clock reads; they
# count only inside the arguments of an RNG seeding (SEED_CALLS).
BANNED_API = {
    # All randomness flows through exist::Rng streams seeded with
    # splitmix64, so results depend only on (seed, id), never on
    # global RNG call order.
    "raw-rand": (
        ("rand(", "srand(", "rand_r(", "drand48(", "lrand48(", "mrand48(",
         "srand48(", "random(", "std::random_device", "std::mt19937",
         "std::mt19937_64", "std::minstd_rand", "std::minstd_rand0",
         "std::ranlux24", "std::ranlux48", "std::ranlux24_base",
         "std::ranlux48_base", "std::knuth_b",
         "std::default_random_engine"),
        ("src/util/rng.h",)),
    # A wall-clock seed makes every run unique.
    "time-seeded-rng": (
        ("time(", "clock(", "steady_clock::now(", "system_clock::now(",
         "high_resolution_clock::now("),
        ()),
    # Durable bytes flow through the checksummed, crash-point-
    # instrumented WAL/snapshot code, or recovery cannot see them.
    "raw-file-io": (
        ("fopen(", "freopen(", "std::ofstream", "std::fstream"),
        ("src/durability/", "src/cluster/storage")),
    # The self-trace plane is write-only from product code: reading it
    # back could leak span timing into report bytes.
    "obs-read-back": (
        ("chromeTraceJson(", "flightDumpText(", "flightDumpTo(",
         "obs::snapshot(", "obs::eventsRecorded(", "obs::eventsLost(",
         "obs::threadsRegistered(", "obs::threadsDropped("),
        ("src/obs/",)),
    # Locking goes through the annotated exist::Mutex wrappers, so the
    # thread-safety analysis and the lock-order validator see it.
    "raw-locking": (
        ("std::mutex", "std::timed_mutex", "std::recursive_mutex",
         "std::shared_mutex", "std::shared_timed_mutex", "std::lock_guard",
         "std::unique_lock", "std::scoped_lock", "std::shared_lock",
         "std::condition_variable", "std::condition_variable_any"),
        ("src/util/thread_annotations.h", "src/util/lock_order.h",
         "src/util/lock_order.cc")),
}
SEED_CALLS = {"Rng", "seed", "srand", "srand48"}


def banned_uses_outside_home(tu, rules) -> list[tuple]:
    """The (rule, token, line) uses in `tu` of the given rules that
    sit outside each rule's homes."""
    return [u for u in tu.banned_uses
            if u[0] in rules and not tu.path.startswith(BANNED_API[u[0]][1])]


# Contexts a function (usually a lambda) can be rooted in.
CTX_EVENT = "event-callback"    # sim/EventQueue::schedule{,After}
CTX_COMMIT = "commit-action"    # CommitLog::commit sequenced action
CTX_POOL = "pool-task"          # ThreadPool::submit / parallelFor


@dataclass
class MutexDecl:
    """One `exist::Mutex` site: a class member, a static local, or a
    namespace-scope variable."""
    owner: str        # qualified class name, or "<file>" for locals
    name: str         # member/variable identifier
    rank: int         # LOCK_RANKS value, or UNRANKED
    rank_token: str   # the spelled enumerator ("kShard"), "" if none
    label: str        # the string name passed to the constructor
    file: str
    line: int

    @property
    def key(self) -> str:
        return f"{self.owner}::{self.name}"


@dataclass
class Member:
    """A non-mutex data member of a class."""
    name: str
    type_text: str
    guarded_by: str   # argument of EXIST_GUARDED_BY, "" if none
    pt_guarded_by: str
    is_atomic: bool
    is_const: bool
    is_static: bool
    is_condvar: bool
    is_unordered: bool  # declared type resolves to std::unordered_*
    is_func_type: bool  # std::function-ish: a dynamic callback slot
    line: int


@dataclass
class ClassInfo:
    qname: str
    file: str
    line: int
    members: list[Member] = field(default_factory=list)
    mutexes: list[MutexDecl] = field(default_factory=list)
    methods: list[str] = field(default_factory=list)  # qualified names

    @property
    def lock_bearing(self) -> bool:
        return bool(self.mutexes)


@dataclass
class LockOp:
    """A lock acquisition/release/wait inside a function body."""
    op: str          # "acquire" | "release" | "wait" | "scoped"
    target: str      # normalized mutex expression tail (member name)
    target_expr: str # the raw spelled expression
    line: int
    held: list[str] = field(default_factory=list)  # mutex keys held here
    scope_end: int = 0  # for "scoped": last line of the RAII scope


@dataclass
class CallSite:
    callee: str       # spelled callee ("obj.method", "ns::fn", "fn")
    line: int
    held: list[str] = field(default_factory=list)
    lambda_args: list[str] = field(default_factory=list)  # synthetic fn names
    in_unordered_loop: str = ""  # container expr if inside such a loop


@dataclass
class WriteSite:
    member: str       # member identifier written ("foo_", "stats")
    line: int
    held: list[str] = field(default_factory=list)
    via_call: str = ""  # mutating method name if write was e.g. push_back


@dataclass
class BlockOp:
    """A potentially blocking primitive: condvar wait, sleep, flush,
    join, future wait."""
    kind: str         # "condvar-wait" | "sleep" | "flush" | "join" | "future-wait"
    detail: str
    line: int


@dataclass
class IterSite:
    """Iteration over an unordered container."""
    container: str    # spelled container expression
    line: int
    sink_calls: list[str] = field(default_factory=list)  # sink callees in loop body
    sink_line: int = 0
    collects_into: str = ""  # local the loop pushes into, if any


@dataclass
class EnumMention:
    enum: str         # enum tail name ("MsgType", "RecordType")
    enumerator: str
    line: int


@dataclass
class FunctionInfo:
    qname: str        # "Class::method", "ns::fn", or synthetic lambda name
    file: str
    line: int
    cls: str = ""     # owning class qname ("" for free functions)
    context: str = "" # CTX_* for synthetic lambda roots
    is_lambda: bool = False
    returns_value: bool = False
    calls: list[CallSite] = field(default_factory=list)
    lock_ops: list[LockOp] = field(default_factory=list)
    writes: list[WriteSite] = field(default_factory=list)
    blocks: list[BlockOp] = field(default_factory=list)
    iters: list[IterSite] = field(default_factory=list)
    enum_mentions: list[EnumMention] = field(default_factory=list)
    returned_idents: list[str] = field(default_factory=list)
    sorted_idents: list[str] = field(default_factory=list)
    local_types: dict[str, str] = field(default_factory=dict)
    local_lines: dict[str, int] = field(default_factory=dict)  # params too


@dataclass
class EnumDef:
    qname: str        # qualified tail ("net::MsgType")
    file: str
    line: int
    enumerators: list[str] = field(default_factory=list)


@dataclass
class CallbackReg:
    """`slot = lambda` / `slot = fn` where slot is a std::function-ish
    member: the dynamic-dispatch edge a static call graph would miss."""
    slot: str         # member identifier ("deliver", "on_region")
    target: str       # lambda synthetic name or function name
    file: str
    line: int


@dataclass
class TranslationUnit:
    """All facts extracted from one source file."""
    path: str         # repo-relative, forward slashes
    classes: list[ClassInfo] = field(default_factory=list)
    functions: list[FunctionInfo] = field(default_factory=list)
    enums: list[EnumDef] = field(default_factory=list)
    mutex_decls: list[MutexDecl] = field(default_factory=list)  # non-member
    callback_regs: list[CallbackReg] = field(default_factory=list)
    banned_uses: list[tuple] = field(default_factory=list)  # (rule, tok, line)
    allow_lines: dict = field(default_factory=dict)  # line -> {rules}
    aliases: dict[str, str] = field(default_factory=dict)  # using X = Y

    def to_dict(self):
        d = dataclasses.asdict(self)
        d["allow_lines"] = {str(k): sorted(v)
                            for k, v in self.allow_lines.items()}
        return d

    @staticmethod
    def from_dict(d):
        tu = TranslationUnit(path=d["path"])
        tu.classes = [
            ClassInfo(
                qname=c["qname"], file=c["file"], line=c["line"],
                members=[Member(**m) for m in c["members"]],
                mutexes=[MutexDecl(**m) for m in c["mutexes"]],
                methods=list(c["methods"]),
            )
            for c in d["classes"]
        ]
        tu.functions = [_fn_from_dict(f) for f in d["functions"]]
        tu.enums = [EnumDef(**e) for e in d["enums"]]
        tu.mutex_decls = [MutexDecl(**m) for m in d["mutex_decls"]]
        tu.callback_regs = [CallbackReg(**r) for r in d["callback_regs"]]
        tu.banned_uses = [tuple(u) for u in d["banned_uses"]]
        tu.allow_lines = {int(k): set(v) for k, v in d["allow_lines"].items()}
        tu.aliases = dict(d["aliases"])
        return tu


def _fn_from_dict(f):
    fn = FunctionInfo(
        qname=f["qname"], file=f["file"], line=f["line"], cls=f["cls"],
        context=f["context"], is_lambda=f["is_lambda"],
        returns_value=f["returns_value"],
    )
    fn.calls = [CallSite(**c) for c in f["calls"]]
    fn.lock_ops = [LockOp(**o) for o in f["lock_ops"]]
    fn.writes = [WriteSite(**w) for w in f["writes"]]
    fn.blocks = [BlockOp(**b) for b in f["blocks"]]
    fn.iters = [IterSite(**i) for i in f["iters"]]
    fn.enum_mentions = [EnumMention(**e) for e in f["enum_mentions"]]
    fn.returned_idents = list(f["returned_idents"])
    fn.sorted_idents = list(f["sorted_idents"])
    fn.local_types = dict(f["local_types"])
    fn.local_lines = dict(f["local_lines"])
    return fn


@dataclass
class Finding:
    check: str        # check module name ("lock-rank", ...)
    rule: str         # specific rule id (the `lint-allow:` spelling)
    file: str
    line: int
    message: str
    function: str = ""
    allowlisted: bool = False

    def to_dict(self):
        return dataclasses.asdict(self)


# --- Whole-program index ---------------------------------------------------

class Index:
    """Merged whole-program view + call-graph resolution."""

    def __init__(self, tus: list[TranslationUnit]):
        self.tus = tus
        self.classes: dict[str, ClassInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.enums: dict[str, EnumDef] = {}
        self.mutex_by_key: dict[str, MutexDecl] = {}
        self.mutex_by_name: dict[str, list[MutexDecl]] = defaultdict(list)
        self.methods_by_tail: dict[str, list[str]] = defaultdict(list)
        self.callback_targets: dict[str, list[str]] = defaultdict(list)
        self.aliases: dict[str, str] = {}
        self.allow_lines: dict[str, dict] = {}

        for tu in tus:
            self.allow_lines[tu.path] = tu.allow_lines
            self.aliases.update(tu.aliases)
            for c in tu.classes:
                # Later definitions of the same class merge (e.g. a
                # nested struct seen in both .h and a fixture).
                if c.qname in self.classes:
                    base = self.classes[c.qname]
                    base.members.extend(c.members)
                    base.mutexes.extend(c.mutexes)
                    base.methods.extend(c.methods)
                else:
                    self.classes[c.qname] = c
            for e in tu.enums:
                self.enums.setdefault(e.qname, e)
                self.enums.setdefault(e.qname.rsplit("::", 1)[-1], e)
            for r in tu.callback_regs:
                self.callback_targets[r.slot].append(r.target)

        # Expand forwarding registrations: `slot_ = std::move(param)`
        # inside a setter records "@fwd:<setter>", meaning the slot's
        # real targets are the lambdas registered at the setter's call
        # sites.  Fixpoint handles setter -> setter chains.
        for _ in range(4):
            changed = False
            for slot, targets in list(self.callback_targets.items()):
                for t in list(targets):
                    if not t.startswith("@fwd:"):
                        continue
                    for fwd in self.callback_targets.get(t[5:], []):
                        if not fwd.startswith("@fwd:") and \
                                fwd not in targets:
                            targets.append(fwd)
                            changed = True
            if not changed:
                break
        for slot in self.callback_targets:
            self.callback_targets[slot] = [
                t for t in self.callback_targets[slot]
                if not t.startswith("@fwd:")]

        for tu in tus:
            for f in tu.functions:
                if f.qname in self.functions:
                    # Overload / redefinition: union the effects so the
                    # analysis stays sound (may-analysis).
                    self._merge_fn(self.functions[f.qname], f)
                else:
                    self.functions[f.qname] = f
                tail = f.qname.rsplit("::", 1)[-1]
                self.methods_by_tail[tail].append(f.qname)

        for c in self.classes.values():
            for m in c.mutexes:
                self.mutex_by_key[m.key] = m
                self.mutex_by_name[m.name].append(m)
        for tu in tus:
            for m in tu.mutex_decls:
                self.mutex_by_key[m.key] = m
                self.mutex_by_name[m.name].append(m)

        self._resolved: dict[tuple, list[str]] = {}

    @staticmethod
    def _merge_fn(into: FunctionInfo, other: FunctionInfo):
        into.calls.extend(other.calls)
        into.lock_ops.extend(other.lock_ops)
        into.writes.extend(other.writes)
        into.blocks.extend(other.blocks)
        into.iters.extend(other.iters)
        into.enum_mentions.extend(other.enum_mentions)
        into.returned_idents.extend(other.returned_idents)
        into.sorted_idents.extend(other.sorted_idents)
        into.local_types.update(other.local_types)
        into.local_lines.update(other.local_lines)
        into.returns_value = into.returns_value or other.returns_value

    # -- type / mutex resolution -------------------------------------------

    def resolve_type(self, type_text: str) -> str:
        """Follow `using` aliases to a base type string."""
        seen = set()
        t = type_text
        while t in self.aliases and t not in seen:
            seen.add(t)
            t = self.aliases[t]
        return t

    def is_unordered_type(self, type_text: str) -> bool:
        t = self.resolve_type(type_text)
        return "unordered_map" in t or "unordered_set" in t or \
               "unordered_multimap" in t or "unordered_multiset" in t

    def mutex_for_expr(self, expr_tail: str, cls: str) -> MutexDecl | None:
        """Resolve a lock expression's trailing member name to its
        declaration: prefer the enclosing class, else a unique global
        match."""
        if cls:
            # Walk the class, its lexically nested structs, and its
            # enclosing classes (namespace-qualification tolerant).
            for qname, c in self.classes.items():
                if _cls_related(cls, qname):
                    for m in c.mutexes:
                        if m.name == expr_tail:
                            return m
        cands = self.mutex_by_name.get(expr_tail, [])
        if len(cands) == 1:
            return cands[0]
        if cands:
            ranks = {m.rank for m in cands}
            if len(ranks) == 1:  # ambiguous owner, unambiguous rank
                return cands[0]
        return None

    # -- call resolution ----------------------------------------------------

    def resolve_call(self, site: CallSite, caller: FunctionInfo) -> list[str]:
        key = (caller.qname, site.callee, site.line)
        if key in self._resolved:
            return self._resolved[key]
        out = self._resolve_call_uncached(site, caller)
        self._resolved[key] = out
        return out

    def _resolve_call_uncached(self, site, caller):
        callee = site.callee
        out: list[str] = []
        # Qualified call "A::b" / "ns::fn".
        if "::" in callee:
            if callee in self.functions:
                return [callee]
            tail = callee.rsplit("::", 1)[-1]
            for qn in self.methods_by_tail.get(tail, []):
                if qn == callee or qn.endswith("::" + callee):
                    out.append(qn)
            return out
        # Member call "obj.method" / "obj->method".
        for sep in (".", "->"):
            if sep in callee:
                obj, method = callee.rsplit(sep, 1)
                obj = obj.split(".")[-1].split(">")[-1].lstrip("-")
                # std::function slot member (`dep.deliver(...)`)?
                # Fan out to the registered callbacks.
                if self._is_callback_slot(method, caller):
                    return list(self.callback_targets.get(method, []))
                t = self._object_type(obj, caller)
                if t:
                    qn = f"{t}::{method}"
                    if qn in self.functions:
                        return [qn]
                    for cand in self.methods_by_tail.get(method, []):
                        if cand == qn or cand.endswith("::" + qn):
                            out.append(cand)
                    if out:
                        return out
                if method in GENERIC_TAILS:
                    return []  # too ambiguous without a receiver type
                cands = self.methods_by_tail.get(method, [])
                return cands if len(cands) == 1 else []
        # Bare call: a local lambda binding (`auto fn = [..]; fn();`)
        # shadows everything else and never escapes the function.
        lt = caller.local_types.get(callee, "")
        if lt.startswith("@lambda:"):
            tgt = lt[len("@lambda:"):]
            return [tgt] if tgt in self.functions else []
        # Same class first, then unique program-wide.
        if caller.cls:
            qn = f"{caller.cls}::{callee}"
            if qn in self.functions:
                return [qn]
            for cand in self.methods_by_tail.get(callee, []):
                if cand.startswith(caller.cls + "::"):
                    return [cand]
        # Callback slot called bare (a member std::function).
        if self._is_callback_slot(callee, caller):
            return list(self.callback_targets.get(callee, []))
        if callee in self.functions:
            return [callee]
        if callee in GENERIC_TAILS:
            return []
        cands = self.methods_by_tail.get(callee, [])
        return cands if len(cands) == 1 else []

    def _object_type(self, obj: str, caller: FunctionInfo) -> str:
        """Best-effort type of `obj` inside `caller`."""
        t = caller.local_types.get(obj, "")
        if t:
            return _strip_type(t)
        if caller.cls:
            for qname, c in self.classes.items():
                if _cls_related(caller.cls, qname):
                    for m in c.members:
                        if m.name == obj:
                            return _strip_type(m.type_text)
        if obj == "this" and caller.cls:
            return caller.cls
        return ""

    def _is_callback_slot(self, name: str, caller: FunctionInfo) -> bool:
        if not self.callback_targets.get(name):
            return False
        if caller.cls and caller.cls in self.classes:
            for m in self.classes[caller.cls].members:
                if m.name == name:
                    return m.is_func_type
        return True  # registered somewhere; treat as dynamic edge

    # -- interprocedural fixpoints ------------------------------------------

    def may_acquire(self) -> dict[str, dict[str, tuple]]:
        """For every function: {mutex_key: (rank, witness_chain)} of
        mutexes it may acquire, directly or transitively."""
        if hasattr(self, "_may_acquire"):
            return self._may_acquire
        acq: dict[str, dict[str, tuple]] = {q: {} for q in self.functions}
        for q, f in self.functions.items():
            for op in f.lock_ops:
                if op.op not in ("acquire", "scoped", "wait"):
                    continue
                decl = self.mutex_for_expr(op.target, f.cls)
                rank = decl.rank if decl else UNRANKED
                key = decl.key if decl else f"?::{op.target}"
                acq[q].setdefault(key, (rank, (q, op.line)))
        changed = True
        iters = 0
        while changed and iters < 60:
            changed = False
            iters += 1
            for q, f in self.functions.items():
                for site in f.calls:
                    for callee in self.resolve_call(site, f):
                        for key, (rank, chain) in acq.get(callee, {}).items():
                            if key not in acq[q]:
                                acq[q][key] = (rank, (q, site.line) + chain[-4:])
                                changed = True
        self._may_acquire = acq
        return acq

    def reachable_from(self, roots: list[str]) -> dict[str, tuple]:
        """BFS over the resolved call graph; returns
        {function: witness_path_tuple}."""
        seen: dict[str, tuple] = {}
        frontier = [(r, (r,)) for r in roots]
        while frontier:
            nxt = []
            for q, path in frontier:
                if q in seen or q not in self.functions:
                    continue
                seen[q] = path
                f = self.functions[q]
                for site in f.calls:
                    for callee in self.resolve_call(site, f):
                        if callee not in seen:
                            nxt.append((callee, path + (callee,)))
                    for lam in site.lambda_args:
                        # A lambda passed onward may run in-context
                        # (e.g. EventQueue::schedule from inside a
                        # callback chains the context) — except pool
                        # tasks, which run on worker threads.
                        lf = self.functions.get(lam)
                        if lf is not None and lf.context == CTX_POOL:
                            continue
                        if lam not in seen:
                            nxt.append((lam, path + (lam,)))
            frontier = nxt
        return seen


def _cls_related(cls: str, qname: str) -> bool:
    """True when `cls` names `qname`, a class enclosing it, or a class
    it encloses — tolerant of missing namespace qualification on
    either side."""
    a = "::" + cls + "::"
    b = "::" + qname + "::"
    return a in b or b in a


def _strip_type(t: str) -> str:
    """'const WorkerDeque &' / 'WorkerDeque*' -> 'WorkerDeque'."""
    t = t.replace("const", " ").replace("mutable", " ")
    t = t.replace("&", " ").replace("*", " ")
    t = t.replace("std::unique_ptr<", " ").replace("std::shared_ptr<", " ")
    t = t.replace("<", " ").replace(">", " ")
    parts = [p for p in t.split() if p not in ("struct", "class")]
    return parts[0] if parts else ""
