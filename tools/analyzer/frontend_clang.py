"""Clang AST-dump frontend.

Lowers `clang -Xclang -ast-dump=json` output into the same
`ast_model.TranslationUnit` fact schema as the native frontend.  The
JSON dumps themselves are produced per file and cached by the driver
exactly like native facts (keyed by source-content hash), so warm
runs invoke clang zero times.

Scope: this frontend is the *cross-check* lowering — it extracts the
declaration-level facts a compiler is authoritative about (class
inventory, members and their thread-safety attributes, exist::Mutex
sites with their LockRank initializers, enum definitions, enumerator
references inside function bodies, direct call edges) and leaves the
statement-level facts (RAII lock scopes, lambda contexts, taint) to
the native frontend, which is the CI gate.  Where both frontends see
the same fact kind, the driver's `--frontend clang` run must agree
with the native run or the divergence itself is the bug report.

The lexical facts (a fixture's virtual path, inline `lint-allow:`
waivers, banned-API uses) come from the native frontend's one shared
token pass, `frontend_native.lexical_facts`, so the two frontends
agree on them by construction, and they survive a failed dump.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import tempfile

import frontend_native
from ast_model import (
    LOCK_RANKS, UNRANKED,
    CallSite, ClassInfo, EnumDef, EnumMention, FunctionInfo, Member,
    MutexDecl, TranslationUnit,
)

FRONTEND_VERSION = 1

_CLANG_CANDIDATES = ("clang++", "clang++-18", "clang++-17", "clang++-16",
                     "clang++-15", "clang++-14", "clang")


def clang_binary() -> str | None:
    for name in _CLANG_CANDIDATES:
        path = shutil.which(name)
        if path:
            return path
    return None


def clang_available() -> bool:
    return clang_binary() is not None


def _dump_ast(rel_path: str, text: str) -> dict | None:
    clang = clang_binary()
    if clang is None:
        return None
    # Repo root is two levels above this file's directory.
    root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    suffix = ".cc" if not rel_path.endswith((".h", ".hpp")) else ".cc"
    with tempfile.NamedTemporaryFile(
            "w", suffix=suffix, delete=False, encoding="utf-8") as tf:
        tf.write(text)
        tmp = tf.name
    try:
        proc = subprocess.run(
            [clang, "-std=c++17", "-fsyntax-only",
             "-I", root, "-I", os.path.join(root, "src"),
             "-Wno-everything",
             "-Xclang", "-ast-dump=json", tmp],
            capture_output=True, text=True, timeout=120)
        if not proc.stdout:
            return None
        return json.loads(proc.stdout)
    except (subprocess.SubprocessError, json.JSONDecodeError, OSError):
        return None
    finally:
        try:
            os.unlink(tmp)
        except OSError:
            pass


class _Lowerer:
    def __init__(self, tu: TranslationUnit):
        self.tu = tu
        self.cls_stack: list[ClassInfo] = []
        self.fn_stack: list[FunctionInfo] = []
        self.ns_stack: list[str] = []

    # The dump interleaves nodes from included headers; only nodes
    # without an external "file" location belong to this TU's file.
    @staticmethod
    def _foreign(node) -> bool:
        loc = node.get("loc", {}) or {}
        f = loc.get("file") or (loc.get("includedFrom") or {}).get("file")
        return bool(f) and "/usr/" in str(f)

    def walk(self, node):
        if not isinstance(node, dict):
            return
        kind = node.get("kind", "")
        handler = getattr(self, "_on_" + kind, None)
        if handler is not None and not self._foreign(node):
            handler(node)
            return  # handlers recurse themselves as needed
        for child in node.get("inner", []) or []:
            self.walk(child)

    def _walk_children(self, node):
        for child in node.get("inner", []) or []:
            self.walk(child)

    def _qname(self, name: str) -> str:
        parts = self.ns_stack + \
            [c.qname.rsplit("::", 1)[-1] for c in self.cls_stack] + [name]
        return "::".join(p for p in parts if p)

    def _line(self, node) -> int:
        loc = node.get("loc", {}) or {}
        return int(loc.get("line", 0) or
                   (node.get("range", {}).get("begin", {}) or {})
                   .get("line", 0) or 0)

    # -- declarations ---------------------------------------------------

    def _on_NamespaceDecl(self, node):
        self.ns_stack.append(node.get("name", ""))
        self._walk_children(node)
        self.ns_stack.pop()

    def _on_CXXRecordDecl(self, node):
        if not node.get("completeDefinition") or not node.get("name"):
            self._walk_children(node)
            return
        info = ClassInfo(qname=self._qname(node["name"]),
                         file=self.tu.path, line=self._line(node))
        self.tu.classes.append(info)
        self.cls_stack.append(info)
        self._walk_children(node)
        self.cls_stack.pop()

    def _on_EnumDecl(self, node):
        if not node.get("name"):
            return
        enumerators = [c.get("name", "")
                       for c in node.get("inner", []) or []
                       if c.get("kind") == "EnumConstantDecl"]
        self.tu.enums.append(EnumDef(
            qname=self._qname(node["name"]), file=self.tu.path,
            line=self._line(node), enumerators=enumerators))

    def _on_FieldDecl(self, node):
        if not self.cls_stack or not node.get("name"):
            return
        cls = self.cls_stack[-1]
        qual = (node.get("type", {}) or {}).get("qualType", "")
        name = node["name"]
        if qual.endswith("Mutex") or "::Mutex" in qual:
            rank, rank_token, label = UNRANKED, "", ""
            for tok, val in LOCK_RANKS.items():
                if self._subtree_mentions(node, tok):
                    rank, rank_token = val, tok
                    break
            cls.mutexes.append(MutexDecl(
                owner=cls.qname, name=name, rank=rank,
                rank_token=rank_token, label=label,
                file=self.tu.path, line=self._line(node)))
            return
        guarded = ""
        for child in node.get("inner", []) or []:
            if child.get("kind") == "GuardedByAttr":
                guarded = "?"  # spelled arg not in the JSON dump
        cls.members.append(Member(
            name=name, type_text=qual, guarded_by=guarded,
            pt_guarded_by="",
            is_atomic="atomic" in qual,
            is_const=qual.startswith("const "),
            is_static=False,
            is_condvar="CondVar" in qual or "condition_variable" in qual,
            is_unordered="unordered_" in qual,
            is_func_type="function<" in qual,
            line=self._line(node)))

    def _on_FunctionDecl(self, node):
        self._function(node)

    def _on_CXXMethodDecl(self, node):
        self._function(node)

    def _on_CXXConstructorDecl(self, node):
        self._function(node)

    def _function(self, node):
        name = node.get("name", "")
        if not name:
            return
        has_body = any(c.get("kind") == "CompoundStmt"
                       for c in node.get("inner", []) or [])
        if not has_body:
            if self.cls_stack:
                self.cls_stack[-1].methods.append(self._qname(name))
            return
        fn = FunctionInfo(
            qname=self._qname(name), file=self.tu.path,
            line=self._line(node),
            cls=self.cls_stack[-1].qname if self.cls_stack else "")
        self.fn_stack.append(fn)
        self._walk_children(node)
        self.fn_stack.pop()
        self.tu.functions.append(fn)
        if self.cls_stack:
            self.cls_stack[-1].methods.append(fn.qname)

    # -- statements (only inside a function) ----------------------------

    def _on_DeclRefExpr(self, node):
        if not self.fn_stack:
            return
        ref = node.get("referencedDecl", {}) or {}
        if ref.get("kind") == "EnumConstantDecl":
            enum = (ref.get("type", {}) or {}).get("qualType", "")
            self.fn_stack[-1].enum_mentions.append(EnumMention(
                enum=enum.rsplit("::", 1)[-1],
                enumerator=ref.get("name", ""),
                line=self._line(node)))
        elif ref.get("kind") in ("FunctionDecl", "CXXMethodDecl"):
            self.fn_stack[-1].calls.append(CallSite(
                callee=ref.get("name", ""), line=self._line(node)))

    def _subtree_mentions(self, node, name: str) -> bool:
        if isinstance(node, dict):
            if node.get("name") == name or \
                    (node.get("referencedDecl", {}) or {}) \
                    .get("name") == name:
                return True
            return any(self._subtree_mentions(c, name)
                       for c in node.get("inner", []) or [])
        return False


def parse_file(rel_path: str, text: str) -> TranslationUnit:
    _tokens, tu = frontend_native.lexical_facts(rel_path, text)
    # Without a dump the TU keeps only its lexical facts: the driver
    # reports clang problems at startup, and a missing dump only
    # under-approximates.
    ast = _dump_ast(tu.path, text)
    if ast is not None:
        _Lowerer(tu).walk(ast)
    return tu
