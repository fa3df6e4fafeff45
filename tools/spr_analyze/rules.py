"""The analyzer's rules: four dataflow contracts over the micro-AST
(model.py) and five line rules over the stripped source.

Each is a named rule with a pragma escape hatch
(`// spr-analyze: allow(rule) reason`):

  arena-escape       Values derived from Arena-backed allocations
                     (ArenaVector storage, arena.allocate results, spans
                     over either) must not outlive the arena's reset()
                     scope: no stores into fields of non-arena-scoped
                     classes, globals or statics, and no returns of
                     pointers/views over arena-backed locals. A class is
                     arena-scoped when it holds an Arena (reference,
                     pointer or ArenaVector field) — its own lifetime is
                     tied to the epoch, so its fields may hold scratch.

  view-lifetime      No returning std::span/std::string_view over locals;
                     no span/string_view data members in classes that are
                     not lifetime-subordinate (holding a reference member
                     binds the object's lifetime to its referent); no
                     caching of epoch-scoped views (UnitDiskGraph
                     neighbors, QuadrantZones members/observers rows,
                     FlatLabeler flipped/raise_clusters) in members of
                     long-lived classes; and no use of an epoch view after
                     a with_failures/with_moves/adopt_* epoch advance.

  determinism-taint  Dataflow from nondeterministic sources (thread ids,
                     pointer-to-integer casts, wall clock, hardware
                     concurrency, unordered-container iteration, atomic
                     loads inside parallel callbacks) through assignments
                     and call arguments into report/serialize/merge sinks
                     (every function defined under src/report, src/stats
                     or util/json). Interprocedural-lite: functions whose
                     return value is tainted propagate taint to call
                     sites.

  merge-ordering     Callbacks handed to parallel_for_blocked / TaskPool
                     fan-outs may write shared non-atomic state only via
                     disjoint per-index slots (subscripts driven by the
                     block/loop index) or when the enclosing function
                     feeds the written container to an ordered merge
                     (sort/stable_sort/merge family) after the dispatch;
                     anything else needs a pragma.

  wallclock          No wall-clock time, thread ids or pointer values
                     anywhere: std::chrono::system_clock, time()/
                     localtime()/gmtime()/strftime()/gettimeofday(),
                     std::this_thread::get_id and %p pointer formatting
                     (matched inside string literals). steady_clock
                     durations are left to determinism-taint, which only
                     bans their flow into report sinks.

  raw-rng            No unseeded/global randomness outside the seeded RNG
                     wrapper (src/deploy/rng.*): rand(), srand(),
                     std::random_device, and direct std::mt19937 /
                     default_random_engine construction.

  unordered-iter     No range-for over std::unordered_map/unordered_set
                     (hash order is implementation- and run-dependent),
                     and no unordered containers at all in the ordered-only
                     layer (src/report/, src/stats/, serialize* files).
                     Keyed lookups elsewhere are fine. The clang engine
                     adds the loops it finds by the range expression's
                     type.

  raw-new            No raw `new` / `delete`: allocation goes through
                     containers, smart pointers or util/arena.h.

  header-hygiene     Every header starts with #pragma once, and project
                     includes are root-relative ("util/check.h"), never
                     parent-relative ("../util/check.h").

Heuristics are tuned against this repo's idiom and proven by the fixture
corpus (fixtures/); src/ and tools/ hold a zero-findings baseline enforced
in CI.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from model import (ClassInfo, FileModel, FunctionInfo, Param, Registry,
                   Stmt, Token, _match_braces, _parse_params,
                   split_statements)

RULES = {
    "arena-escape": "arena-backed value escaping its reset() scope",
    "view-lifetime": "span/string_view outliving its backing storage "
    "or topology epoch",
    "determinism-taint": "nondeterministic value flowing into a "
    "report/serialize/merge sink",
    "merge-ordering": "parallel callback writing shared state without "
    "an id-ordered merge",
    "wallclock": "wall-clock/thread-id/pointer value in deterministic code",
    "raw-rng": "randomness outside the seeded RNG wrapper",
    "unordered-iter": "hash-order iteration (or unordered container in "
    "report/serialize path)",
    "raw-new": "raw new/delete outside containers/arena",
    "header-hygiene": "public header include hygiene",
    "pragma": "malformed or unjustified spr-analyze pragma",
}

# ----------------------------------------------------------- type classifiers

_VIEW_RE = re.compile(r"\bstring_view\b|\bspan\s*<")
_CONTAINER_RE = re.compile(
    r"\bvector\s*<|\bstring\b|\barray\s*<|\bdeque\s*<|ArenaVector\s*<"
)
_PTRISH_RE = re.compile(r"[*&]|\bspan\s*<|\bstring_view\b|ArenaVector\s*<")

# Epoch-scoped view producers: calls whose results are valid only for the
# current topology epoch of their receiver.
_EPOCH_VIEW_PRODUCERS = (
    "neighbors", "members", "observers", "flipped", "raise_clusters",
)
_EPOCH_PRODUCER_RE = re.compile(
    r"(?:\.|->)\s*(" + "|".join(_EPOCH_VIEW_PRODUCERS) + r")\s*\("
)
# Epoch advancers: calls after which previously-obtained views are stale.
_EPOCH_ADVANCERS = (
    "with_failures", "with_moves", "adopt_safety", "rebuild_partition",
)
_EPOCH_ADVANCER_RE = re.compile(
    r"\b(" + "|".join(_EPOCH_ADVANCERS) + r")\s*\("
)

_ALLOC_CALL_RE = re.compile(r"(?:\.|->)\s*(allocate|allocator)\s*[(<]")

_TAINT_SOURCES = [
    ("thread-id", re.compile(r"\bthis_thread\s*::\s*get_id\b")),
    ("pointer-to-integer cast", re.compile(
        r"\b(?:reinterpret_cast|static_cast)\s*<[^>]*u?intptr_t")),
    ("wall clock", re.compile(
        r"\b(?:system_clock|steady_clock|high_resolution_clock)\s*::\s*now\b"
    )),
    ("hardware concurrency", re.compile(r"\bhardware_concurrency\b")),
]

# Files whose functions are report/serialize/merge sinks.
_SINK_FILE_RE = re.compile(r"(?:^|/)src/(report|stats)/|(?:^|/)util/json\.")

_DISPATCH_NAMES = ("parallel_for_blocked", "parallel_for", "submit")
_MUTATOR_METHODS = {
    "push_back", "emplace_back", "insert", "emplace", "erase", "clear",
    "resize", "assign", "append",
}
_ATOMIC_RMW = {"fetch_add", "fetch_sub", "fetch_or", "fetch_and",
               "fetch_xor"}
_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
               "<<=", ">>="}
_BLESSED_MERGE_RE = re.compile(r"\b(sort|stable_sort|merge|merge_sorted)\b")


@dataclass
class RawFinding:
    line: int
    rule: str
    message: str


# ------------------------------------------------------------- small helpers


def _is_view(type_text: str) -> bool:
    return bool(_VIEW_RE.search(type_text))


def _is_subordinate(cls: ClassInfo) -> bool:
    """A class holding a reference member cannot outlive its referent —
    it is lifetime-subordinate, so epoch/arena-scoped members are fine."""
    return any("&" in f.type_text for f in cls.fields)


def _is_arena_scoped(cls: ClassInfo | None) -> bool:
    if cls is None:
        return False
    return any("Arena" in f.type_text for f in cls.fields)


def _decl_of(stmt: Stmt) -> tuple[str, str, list[Token]] | None:
    """(name, type_text, init_tokens) for a local declaration, else None."""
    toks = stmt.tokens
    if not toks or toks[0].text in ("return", "if", "for", "while", "switch",
                                    "delete", "case", "using", "break",
                                    "continue", "else", "do", "goto"):
        return None
    depth = 0
    eq = -1
    for i, t in enumerate(toks):
        if t.text in ("(", "[", "{", "<"):
            depth += 1
        elif t.text in (")", "]", "}", ">"):
            depth -= 1
        elif t.text in ("=",) and depth == 0:
            eq = i
            break
    if eq > 0:
        left = toks[:eq]
        name_idx = -1
        for i in range(len(left) - 1, -1, -1):
            if left[i].kind == "id":
                name_idx = i
                break
        if name_idx <= 0:
            return None  # plain assignment `x = ...`
        type_toks = left[:name_idx]
        if any(t.text in (".", "->", "(", "[") for t in type_toks):
            return None  # member/array assignment, not a declaration
        type_text = " ".join(t.text for t in type_toks)
        return left[name_idx].text, type_text, toks[eq + 1:]
    # Constructor-style: `Type name ( args )` or `Type name { args }`.
    depth = 0
    for i, t in enumerate(toks):
        if t.text in ("(", "{") and depth == 0 and i >= 2 \
                and toks[i - 1].kind == "id":
            type_toks = toks[:i - 1]
            if not type_toks or any(
                x.text in (".", "->", "(", "=", "return") for x in type_toks
            ):
                return None
            if not any(x.kind == "id" for x in type_toks):
                return None
            type_text = " ".join(x.text for x in type_toks)
            return toks[i - 1].text, type_text, toks[i + 1:]
        if t.text in ("(", "[", "{", "<"):
            depth += 1
        elif t.text in (")", "]", "}", ">"):
            depth -= 1
    # Bare declaration: `Type name` with no initializer at all.
    if len(toks) >= 2 and toks[-1].kind == "id" and all(
        t.kind == "id" or t.text in ("::", "<", ">", ",", "*", "&", ">>")
        for t in toks[:-1]
    ) and any(t.kind == "id" for t in toks[:-1]):
        return toks[-1].text, " ".join(t.text for t in toks[:-1]), []
    return None


def _assign_of(stmt: Stmt) -> tuple[list[Token], str, list[Token]] | None:
    """(lhs_tokens, op, rhs_tokens) for an assignment statement, else
    None. Declarations are excluded (use _decl_of first)."""
    toks = stmt.tokens
    while toks and toks[0].text in ("else", "do"):
        toks = toks[1:]
    if not toks or toks[0].text in ("return", "if", "for", "while",
                                    "switch", "case"):
        return None
    depth = 0
    for i, t in enumerate(toks):
        if t.text in ("(", "[", "{", "<"):
            depth += 1
        elif t.text in (")", "]", "}", ">"):
            depth -= 1
        elif t.text in _ASSIGN_OPS and depth == 0 and i > 0:
            return toks[:i], t.text, toks[i + 1:]
    return None


def _root_id(tokens: list[Token]) -> str:
    """First identifier of an lvalue chain: `this->x` -> x, `a.b[i]` -> a."""
    for i, t in enumerate(tokens):
        if t.kind == "id" and t.text != "this":
            return t.text
    return ""


def _mentions(tokens: list[Token], names: set[str]) -> bool:
    return any(t.kind == "id" and t.text in names for t in tokens)


def _is_member_lhs(lhs: list[Token], fn: FunctionInfo,
                   cls: ClassInfo | None) -> bool:
    """Whether the assignment target is a field of the enclosing class."""
    if not lhs:
        return False
    if lhs[0].text == "this":
        return True
    root = _root_id(lhs)
    if not root:
        return False
    if cls is not None and cls.field(root) is not None:
        # Not shadowed by a local/param of the same name (repo style keeps
        # fields `name_`-suffixed, so collisions are rare anyway).
        return True
    return False


# =============================================================== arena-escape


def check_arena_escape(fn: FunctionInfo, registry: Registry, emit) -> None:
    cls = registry.class_of(fn)
    arena_scoped = _is_arena_scoped(cls)

    arena_handles: set[str] = set()   # locals of type Arena&/Arena*
    arena_vars: set[str] = set()      # arena-backed storage or views over it
    # Handles whose arena dies with this function (`Arena a;` by value):
    # values derived from them dangle when returned. Caller-owned handles
    # (Arena& params, member arenas) outlive the callee, so returning
    # fresh allocations from them is the repo's helper idiom.
    local_value_handles: set[str] = set()
    dangerous_vars: set[str] = set()
    for p in fn.params:
        if "ArenaVector" in p.type_text and p.name:
            arena_vars.add(p.name)
        if re.search(r"\bArena\s*[&*]", p.type_text) and p.name:
            arena_handles.add(p.name)
    if cls is not None:
        for f in cls.fields:
            if re.search(r"\bArena\s*[&*]", f.type_text):
                arena_handles.add(f.name)

    handle_alloc_re = None

    def refresh_handle_re():
        nonlocal handle_alloc_re
        if arena_handles:
            handle_alloc_re = re.compile(
                r"\b(" + "|".join(re.escape(h) for h in arena_handles)
                + r")\s*(?:\.|->)\s*(allocate\b|allocator\s*[(<])")
        else:
            handle_alloc_re = None

    refresh_handle_re()

    for _ in range(2):  # two passes: forward propagation through decls
        for stmt in fn.stmts:
            d = _decl_of(stmt)
            if d is None:
                continue
            name, type_text, init = d
            init_text = " ".join(t.text for t in init)
            if re.search(r"\bArena\s*&|\bArena\s*\*", type_text):
                arena_handles.add(name)
                refresh_handle_re()
                continue
            if re.search(r"\bArena\b", type_text) \
                    and "static" not in type_text.split():
                # `Arena a;` by value: its storage dies with the function.
                arena_handles.add(name)
                local_value_handles.add(name)
                refresh_handle_re()
                continue
            if "ArenaVector" in type_text:
                arena_vars.add(name)
                continue
            if handle_alloc_re is not None:
                m = handle_alloc_re.search(stmt.text)
                if m is not None:
                    arena_vars.add(name)
                    if m.group(1) in local_value_handles:
                        dangerous_vars.add(name)
                    continue
            # Views/pointers derived from an arena-backed value.
            if _mentions(init, arena_vars) and (
                _PTRISH_RE.search(type_text) or type_text.startswith("auto")
                or ".data" in init_text or "& " + name in init_text
            ):
                arena_vars.add(name)
                if _mentions(init, dangerous_vars):
                    dangerous_vars.add(name)

    if not arena_vars and handle_alloc_re is None:
        return

    returns_ref = bool(_PTRISH_RE.search(fn.return_type_text)) \
        or "ArenaVector" in fn.return_type_text
    for stmt in fn.stmts:
        toks = stmt.tokens
        if toks and toks[0].text == "return":
            if returns_ref and _mentions(toks, dangerous_vars):
                emit(stmt.line, "arena-escape",
                     "returning a pointer/view over a function-local "
                     "arena — the storage dies with the arena, before the "
                     "caller can look at it")
            continue
        a = _assign_of(stmt)
        if a is None:
            continue
        lhs, _op, rhs = a
        rhs_is_arena = _mentions(rhs, arena_vars) or (
            handle_alloc_re is not None
            and handle_alloc_re.search(" ".join(t.text for t in rhs))
        )
        if not rhs_is_arena:
            continue
        if _is_member_lhs(lhs, fn, cls) and not arena_scoped:
            emit(stmt.line, "arena-escape",
                 "storing arena-backed scratch into a member of a class "
                 "that is not arena-scoped (holds no Arena) — the field "
                 "outlives reset()")
        elif _root_id(lhs) in {g.name for g in registry.globals}:
            emit(stmt.line, "arena-escape",
                 "storing arena-backed scratch into a global — globals "
                 "outlive every arena reset()")

    # `static` locals initialized from arena scratch.
    for stmt in fn.stmts:
        d = _decl_of(stmt)
        if d is None:
            continue
        name, type_text, init = d
        if "static" in type_text.split() and _mentions(init, arena_vars):
            emit(stmt.line, "arena-escape",
                 "static local holding arena-backed scratch survives "
                 "reset()")


# ============================================================== view-lifetime


def check_view_members(cls: ClassInfo, emit) -> None:
    if _is_subordinate(cls):
        return
    for f in cls.fields:
        if "function" in f.type_text:
            continue  # a view inside a callable's signature is not a view
        if _is_view(f.type_text):
            emit(f.line, "view-lifetime",
                 f"field '{f.name}' is a non-owning view in a class with "
                 "no lifetime-binding reference member — the view can "
                 "outlive its backing storage; copy, or bind the class to "
                 "its epoch with a reference member")


def check_view_lifetime(fn: FunctionInfo, registry: Registry, emit) -> None:
    cls = registry.class_of(fn)
    subordinate = cls is not None and _is_subordinate(cls)

    # Local containers whose storage dies with the function.
    local_containers: set[str] = set()
    view_aliases: set[str] = set()  # local views over local containers
    for stmt in fn.stmts:
        d = _decl_of(stmt)
        if d is None:
            continue
        name, type_text, init = d
        if "static" in type_text.split():
            continue
        if _CONTAINER_RE.search(type_text) and "&" not in type_text:
            local_containers.add(name)
        elif (_is_view(type_text) or type_text.startswith("auto")) \
                and _mentions(init, local_containers):
            if _is_view(type_text) or ".data" in " ".join(
                    t.text for t in init):
                view_aliases.add(name)

    if _is_view(fn.return_type_text):
        dangerous = local_containers | view_aliases
        for stmt in fn.stmts:
            if stmt.tokens and stmt.tokens[0].text == "return" \
                    and _mentions(stmt.tokens, dangerous):
                emit(stmt.line, "view-lifetime",
                     "returning a span/string_view over a local — the "
                     "view dangles when the function returns")

    # Caching an epoch-scoped view in a member of a long-lived class.
    for stmt in fn.stmts:
        a = _assign_of(stmt)
        if a is None:
            continue
        lhs, _op, rhs = a
        rhs_text = " ".join(t.text for t in rhs)
        if _EPOCH_PRODUCER_RE.search(rhs_text) \
                and _is_member_lhs(lhs, fn, cls) and not subordinate:
            emit(stmt.line, "view-lifetime",
                 "caching an epoch-scoped view (neighbors/members/"
                 "observers/flipped row) in a member — it dangles at the "
                 "next with_failures/with_moves/adopt_* epoch")

    # Using an epoch view after an epoch advance in the same function.
    bindings: dict[str, int] = {}   # view var -> stmt index bound
    for i, stmt in enumerate(fn.stmts):
        d = _decl_of(stmt)
        if d is not None:
            name, type_text, init = d
            init_text = " ".join(t.text for t in init)
            if _EPOCH_PRODUCER_RE.search(init_text) and (
                _is_view(type_text) or type_text.startswith("auto")
            ):
                bindings[name] = i
            continue
    if bindings:
        advance_at: int | None = None
        advance_what = ""
        fired: set[str] = set()
        for i, stmt in enumerate(fn.stmts):
            m = _EPOCH_ADVANCER_RE.search(stmt.text)
            if m is not None:
                advance_at = i
                advance_what = m.group(1)
                continue
            if advance_at is None:
                continue
            for name, bound_at in bindings.items():
                if name in fired or bound_at > advance_at:
                    continue
                if bound_at < advance_at < i and _mentions(
                        stmt.tokens, {name}):
                    fired.add(name)
                    emit(stmt.line, "view-lifetime",
                         f"epoch view '{name}' used after "
                         f"{advance_what}() advanced the topology epoch — "
                         "re-query the view from the new epoch")


# ========================================================== determinism-taint


def _source_in(text: str) -> str | None:
    for label, pattern in _TAINT_SOURCES:
        if pattern.search(text):
            return label
    return None


def _sink_names(registry: Registry) -> set[str]:
    names = {"param", "note", "textf", "add_table", "add_timings",
             "add_sweep", "to_json"}
    for fn in registry.functions:
        if _SINK_FILE_RE.search(fn.file):
            names.add(fn.name)
    # Keep ubiquitous identifiers out of the sink set: `text`/`write`-style
    # names fire on every second line of unrelated code.
    names -= {"begin", "end", "size", "empty", "c_str", "data", "get",
              "value", "str", "at", "front", "back", "reserve", "clear",
              "of", "is", "set", "count", "find", "push", "pop", "parse"}
    return names


def _propagate_taint(fn: FunctionInfo, registry: Registry,
                     tainted_fns: set[str],
                     unordered_fields: set[str]) -> tuple[set[str],
                                                          dict[str, str]]:
    """Tainted local names and name -> source label."""
    tainted: set[str] = set()
    origin: dict[str, str] = {}
    unordered_vars: set[str] = set(unordered_fields)
    for p in fn.params:
        if "unordered_" in p.type_text and p.name:
            unordered_vars.add(p.name)

    call_taint_re = None
    if tainted_fns:
        call_taint_re = re.compile(
            r"\b(" + "|".join(re.escape(n) for n in sorted(tainted_fns))
            + r")\s*\(")

    def rhs_taint(tokens: list[Token], text: str) -> str | None:
        label = _source_in(text)
        if label is not None:
            return label
        if _mentions(tokens, tainted):
            for t in tokens:
                if t.kind == "id" and t.text in tainted:
                    return origin.get(t.text, "tainted value")
        if call_taint_re is not None and call_taint_re.search(text):
            return "call to a taint-returning function"
        return None

    for _ in range(2):
        for stmt in fn.stmts:
            text = stmt.text
            # Unordered-container declarations.
            d = _decl_of(stmt)
            if d is not None:
                name, type_text, init = d
                if "unordered_" in type_text:
                    unordered_vars.add(name)
                label = rhs_taint(init, " ".join(t.text for t in init))
                if label is not None:
                    tainted.add(name)
                    origin.setdefault(name, label)
                continue
            # Range-for over an unordered container taints the loop var.
            if stmt.tokens and stmt.tokens[0].text == "for":
                m = re.search(r"\(\s*(.*?)\s+(\w+)\s*:\s*(\w[\w.\->:]*)",
                              text.replace(" :: ", "::"))
                if m and any(u in m.group(3) for u in unordered_vars):
                    tainted.add(m.group(2))
                    origin.setdefault(m.group(2),
                                      "unordered-container iteration order")
                continue
            a = _assign_of(stmt)
            if a is not None:
                lhs, _op, rhs = a
                label = rhs_taint(rhs, " ".join(t.text for t in rhs))
                root = _root_id(lhs)
                if label is not None and root:
                    tainted.add(root)
                    origin.setdefault(root, label)
                continue
            # v.push_back(tainted) taints the container.
            m = re.search(r"\b(\w+)\s*(?:\.|->)\s*"
                          r"(?:push_back|emplace_back|insert|emplace)\s*\(",
                          text)
            if m is not None:
                label = rhs_taint(stmt.tokens, text)
                if label is not None:
                    tainted.add(m.group(1))
                    origin.setdefault(m.group(1), label)
    return tainted, origin


def _returns_taint(fn: FunctionInfo, registry: Registry,
                   tainted_fns: set[str]) -> bool:
    cls = registry.class_of(fn)
    unordered_fields = set()
    if cls is not None:
        unordered_fields = {f.name for f in cls.fields
                            if "unordered_" in f.type_text}
    tainted, _ = _propagate_taint(fn, registry, tainted_fns,
                                  unordered_fields)
    for stmt in fn.stmts:
        if stmt.tokens and stmt.tokens[0].text == "return":
            if _mentions(stmt.tokens, tainted) \
                    or _source_in(stmt.text) is not None:
                return True
    return False


def compute_taint_summaries(registry: Registry) -> set[str]:
    """Names of functions whose return value carries taint."""
    tainted_fns: set[str] = set()
    for _ in range(3):
        changed = False
        for fn in registry.functions:
            if fn.name in tainted_fns:
                continue
            if _returns_taint(fn, registry, tainted_fns):
                tainted_fns.add(fn.name)
                changed = True
        if not changed:
            break
    return tainted_fns


def check_determinism_taint(fn: FunctionInfo, registry: Registry,
                            tainted_fns: set[str], sink_names: set[str],
                            emit) -> None:
    cls = registry.class_of(fn)
    unordered_fields = set()
    if cls is not None:
        unordered_fields = {f.name for f in cls.fields
                            if "unordered_" in f.type_text}
    tainted, origin = _propagate_taint(fn, registry, tainted_fns,
                                       unordered_fields)

    sink_re = re.compile(
        r"\b(" + "|".join(re.escape(n) for n in sorted(sink_names))
        + r")\s*\(")
    for stmt in fn.stmts:
        text = stmt.text
        for m in sink_re.finditer(text):
            args = _call_args_text(stmt.tokens, m.group(1))
            if args is None:
                continue
            arg_tokens, arg_text = args
            direct = _source_in(arg_text)
            if direct is not None:
                emit(stmt.line, "determinism-taint",
                     f"{direct} flows directly into report/serialize sink "
                     f"'{m.group(1)}' — the artifact becomes run-dependent")
                continue
            for t in arg_tokens:
                if t.kind == "id" and t.text in tainted:
                    why = origin.get(t.text, "a nondeterministic source")
                    emit(stmt.line, "determinism-taint",
                         f"value tainted by {why} reaches "
                         f"report/serialize sink '{m.group(1)}' via "
                         f"'{t.text}'")
                    break


def _call_args_text(tokens: list[Token],
                    callee: str) -> tuple[list[Token], str] | None:
    """Tokens inside the parens of the first `callee(...)` call."""
    for i, t in enumerate(tokens):
        if t.kind == "id" and t.text == callee and i + 1 < len(tokens) \
                and tokens[i + 1].text == "(":
            depth = 0
            for j in range(i + 1, len(tokens)):
                if tokens[j].text == "(":
                    depth += 1
                elif tokens[j].text == ")":
                    depth -= 1
                    if depth == 0:
                        inner = tokens[i + 2:j]
                        return inner, " ".join(x.text for x in inner)
    return None


# ============================================================= merge-ordering


def _lambda_bodies(body: list[Token]) -> list[tuple[str, list[Param],
                                                    list[Token], int]]:
    """(dispatch_name, lambda_params, lambda_body_tokens, dispatch_index)
    for every parallel dispatch whose argument list contains a lambda."""
    match = _match_braces(body)
    out = []
    for i, t in enumerate(body):
        if t.kind != "id" or t.text not in _DISPATCH_NAMES:
            continue
        if t.text == "submit":
            # Only pool submits, not e.g. executor frameworks.
            if i < 2 or body[i - 1].text not in (".", "->"):
                continue
        if i + 1 >= len(body) or body[i + 1].text != "(":
            continue
        call_end = match.get(i + 1)
        if call_end is None:
            continue
        # The lambda: first `[` inside the call followed (eventually) by `{`.
        j = i + 2
        while j < call_end:
            if body[j].text == "[":
                intro_end = match.get(j)
                if intro_end is None:
                    break
                k = intro_end + 1
                params: list[Param] = []
                if k < call_end and body[k].text == "(":
                    params = _parse_params(body, k, match)
                    k = match.get(k, k) + 1
                while k < call_end and body[k].text in ("mutable",
                                                        "noexcept"):
                    k += 1
                if k < call_end and body[k].text == "->":
                    while k < call_end and body[k].text != "{":
                        k += 1
                if k < call_end and body[k].text == "{":
                    lam_end = match.get(k)
                    if lam_end is not None:
                        out.append((t.text, params, body[k + 1:lam_end], i))
                        break
            j += 1
    return out


def check_merge_ordering(fn: FunctionInfo, registry: Registry, emit) -> None:
    for dispatch, params, lam_body, dispatch_at in _lambda_bodies(
            fn.body_tokens):
        stmts = split_statements(lam_body)
        declared: set[str] = {p.name for p in params if p.name}
        index_derived: set[str] = set(declared)
        atomics: set[str] = set()
        cls = registry.class_of(fn)
        if cls is not None:
            atomics |= {f.name for f in cls.fields
                        if "atomic" in f.type_text}
        captured_aliases: set[str] = set()
        loads: set[str] = set()   # vars assigned from atomic .load()

        for stmt in fn.stmts:  # locals of the enclosing function
            d = _decl_of(stmt)
            if d is not None and "atomic" in d[1]:
                atomics.add(d[0])

        # Loop headers inside the lambda declare their induction vars.
        for stmt in stmts:
            text = stmt.text
            for m in re.finditer(
                r"for\s*\(\s*[\w:\s<>,*&]+?(\w+)\s*=\s*([^;]*);", text
            ):
                declared.add(m.group(1))
                if any(p and p in m.group(2)
                       for p in index_derived):
                    index_derived.add(m.group(1))
            for m in re.finditer(r"for\s*\([\w:\s<>,*&]*?(\w+)\s*:", text):
                declared.add(m.group(1))
            d = _decl_of(stmt)
            if d is not None:
                name, type_text, init = d
                init_text = " ".join(t.text for t in init)
                if "&" in type_text and not re.search(
                    r"\[[^\]]*\b(" + "|".join(
                        re.escape(v) for v in sorted(index_derived) or ["-"]
                    ) + r")\b[^\]]*\]", init_text
                ) and _root_id(init) not in declared:
                    # Reference alias of captured state: writes through it
                    # are writes to the captured object.
                    captured_aliases.add(name)
                else:
                    declared.add(name)
                if any(v in init_text for v in index_derived):
                    index_derived.add(name)
                if ". load (" in init_text or "-> load (" in init_text:
                    loads.add(name)

        for stmt in stmts:
            text = stmt.text
            if stmt.tokens and stmt.tokens[0].text == "for":
                continue
            if _decl_of(stmt) is not None:
                continue  # declarations were registered in the pass above
            a = _assign_of(stmt)
            target: str = ""
            how = ""
            if a is not None:
                lhs, op, rhs = a
                target = _root_id(lhs)
                how = f"'{op}' assignment"
                if target in declared and target not in captured_aliases:
                    continue
                lhs_text = " ".join(t.text for t in lhs)
                if index_derived and re.search(
                    r"\[[^\]]*\b(" + "|".join(
                        re.escape(v) for v in sorted(index_derived))
                    + r")\b[^\]]*\]", lhs_text
                ):
                    continue  # disjoint per-index slot write
            else:
                # Root of the access chain: `tile.inbox.clear()` writes
                # `tile`, and `tile` may be a per-index alias.
                m = re.search(r"\b(\w+)((?:\s*(?:\.|->)\s*\w+)+)\s*\(", text)
                if m is None:
                    continue
                target = m.group(1)
                method = re.findall(r"\w+", m.group(2))[-1]
                if method in _ATOMIC_RMW or target in atomics:
                    continue
                if method not in _MUTATOR_METHODS:
                    continue
                if target in declared and target not in captured_aliases:
                    continue
                how = f"'{method}()' call"
            if not target:
                continue
            if target in atomics:
                continue
            # Increments of captured counters: `++shared` / `shared++`.
            if _ordered_merge_after(fn, dispatch_at, target):
                continue
            emit(stmt.line, "merge-ordering",
                 f"parallel {dispatch} callback writes captured shared "
                 f"state '{target}' ({how}) without a per-index slot or a "
                 "subsequent id-ordered merge — results depend on thread "
                 "interleaving")

        # Atomic loads feeding captured state: the PR-9 `live_flight`
        # hazard — a mid-region atomic read is schedule-dependent.
        if loads:
            for stmt in stmts:
                if _decl_of(stmt) is not None:
                    continue
                a = _assign_of(stmt)
                if a is None:
                    continue
                lhs, _op, rhs = a
                target = _root_id(lhs)
                if target in declared and target not in captured_aliases:
                    continue
                if _mentions(rhs, loads):
                    emit(stmt.line, "determinism-taint",
                         "atomic .load() read inside a parallel callback "
                         f"flows into captured state '{target}' — the "
                         "value depends on the schedule, not the input")


def _ordered_merge_after(fn: FunctionInfo, dispatch_at: int,
                         target: str) -> bool:
    """Whether a blessed ordered-merge call touches `target` after the
    dispatch statement in the enclosing function."""
    seen_dispatch = False
    for stmt in fn.stmts:
        if not seen_dispatch:
            if any(t.kind == "id" and t.text in _DISPATCH_NAMES
                   for t in stmt.tokens):
                seen_dispatch = True
            continue
        if _BLESSED_MERGE_RE.search(stmt.text) and _mentions(
                stmt.tokens, {target}):
            return True
    return False


# ----------------------------------------------------------------- line rules
#
# Token bans with no dataflow. Each runs over one file's lines with comments
# and string/char literals blanked (`code`), so prose never fires them.

_WALLCLOCK_PATTERNS = [
    (re.compile(r"\bsystem_clock\b"), "std::chrono::system_clock"),
    (re.compile(r"\bstd::time\s*\("), "std::time()"),
    (re.compile(r"[^:\w]time\s*\(\s*(NULL|nullptr|0)\s*\)"), "time(NULL)"),
    (re.compile(r"\blocaltime\s*\("), "localtime()"),
    (re.compile(r"\bgmtime\s*\("), "gmtime()"),
    (re.compile(r"\bstrftime\s*\("), "strftime()"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"\bthis_thread::get_id\s*\("), "std::this_thread::get_id()"),
]
# A pointer format only ever sits inside a string literal, so it is matched
# on the lines with comments blanked but strings kept.
_POINTER_FORMAT_RE = re.compile(r"%p\b")

_RAW_RNG_PATTERNS = [
    (re.compile(r"[^\w:.]s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bmt19937(_64)?\b"), "direct std::mt19937"),
    (re.compile(r"\bdefault_random_engine\b"), "std::default_random_engine"),
]
# The seeded wrapper is the one place raw engines may live.
_RAW_RNG_ALLOWED = ("deploy/rng.h", "deploy/rng.cpp")

# `new` used as an allocation expression. Operator-overload declarations
# ("operator new") match too and must be pragma'd if ever added.
_RAW_NEW_RE = re.compile(r"(^|[^\w.])new\s+[\w:<]")
_RAW_DELETE_RE = re.compile(r"(^|[^\w.])delete(\s*\[\s*\])?\s+[\w:*(]")

# Report/serialize/merge layer: no unordered containers at all.
_ORDERED_ONLY_DIRS = ("src/report/", "src/stats/")
_UNORDERED_DECL_RE = re.compile(
    r"\bstd::unordered_(map|set|multimap|multiset)\s*<[^;{}]*?>\s+(\w+)"
)
_UNORDERED_ANY_RE = re.compile(
    r"\bstd::unordered_(map|set|multimap|multiset)\b")
_RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;()]*?:\s*\(?\s*([A-Za-z_]\w*)")

# `.hxx` is the fixture corpus's header extension (the tree walk skips it).
_HEADER_EXTS = (".h", ".hxx")
_QUOTED_INCLUDE_RE = re.compile(r'\s*#\s*include\s+"([^"]+)"')


def check_wallclock(code: list[str], with_strings: list[str], emit) -> None:
    for idx, line in enumerate(code, start=1):
        for pattern, what in _WALLCLOCK_PATTERNS:
            if pattern.search(line):
                emit(idx, "wallclock", f"{what} is nondeterministic across "
                     "runs/machines; reports must not depend on it")
    # Both line lists keep every column, so a `%p` whose column is blanked
    # in `code` sits inside a literal.
    for idx, line in enumerate(with_strings, start=1):
        if any(code[idx - 1][m.start()] == " "
               for m in _POINTER_FORMAT_RE.finditer(line)):
            emit(idx, "wallclock", "%p pointer formatting is "
                 "nondeterministic across runs/machines; reports must not "
                 "depend on it")


def check_raw_rng(rel: str, code: list[str], emit) -> None:
    if rel.endswith(_RAW_RNG_ALLOWED):
        return
    for idx, line in enumerate(code, start=1):
        for pattern, what in _RAW_RNG_PATTERNS:
            if pattern.search(line):
                emit(idx, "raw-rng", f"{what} outside deploy/rng — use the "
                     "seeded spr::Rng wrapper")


def check_raw_new(code: list[str], emit) -> None:
    for idx, line in enumerate(code, start=1):
        if _RAW_NEW_RE.search(line):
            emit(idx, "raw-new", "raw `new` — use make_unique/containers "
                 "or util/arena.h")
        if _RAW_DELETE_RE.search(line):
            emit(idx, "raw-new", "raw `delete` — ownership belongs in "
                 "smart pointers/containers")


def _unordered_loops_by_token(fm: FileModel,
                              code: list[str]) -> list[tuple[int, str]]:
    """(line, container) of range-fors over unordered containers: by-value
    declarations anywhere in the file, and reference/pointer parameters
    within their own function."""
    names = {m.group(2) for line in code
             for m in _UNORDERED_DECL_RE.finditer(line)}
    loops = set()
    for idx, line in enumerate(code, start=1):
        m = _RANGE_FOR_RE.search(line)
        if m and m.group(1) in names:
            loops.add((idx, m.group(1)))
    for fn in fm.functions:
        params = {p.name for p in fn.params if "unordered_" in p.type_text}
        if not params or not fn.body_tokens:
            continue
        for idx in range(fn.body_tokens[0].line, fn.body_tokens[-1].line + 1):
            m = _RANGE_FOR_RE.search(code[idx - 1])
            if m and m.group(1) in params:
                loops.add((idx, m.group(1)))
    return sorted(loops)


def check_unordered_iter(fm: FileModel, code: list[str], emit) -> None:
    rel = fm.path
    if any(d in rel for d in _ORDERED_ONLY_DIRS) or (
            "serialize" in rel.rsplit("/", 1)[-1]):
        for idx, line in enumerate(code, start=1):
            if _UNORDERED_ANY_RE.search(line):
                emit(idx, "unordered-iter", "unordered container in the "
                     "report/serialize layer — hash order would leak into "
                     "artifacts; use std::map/std::vector")
        return
    # The token pass names the container; the clang front-end's type-based
    # loops add the ones no name reveals (aliases, members of other files).
    loops = dict.fromkeys(fm.unordered_loop_lines, "")
    loops.update(_unordered_loops_by_token(fm, code))
    for line, name in sorted(loops.items()):
        what = f" '{name}'" if name else ""
        emit(line, "unordered-iter", f"range-for over unordered container"
             f"{what} — iteration order is hash-order; copy into a sorted "
             "container first")


def check_header_hygiene(rel: str, raw_lines: list[str], code: list[str],
                         emit) -> None:
    if not rel.endswith(_HEADER_EXTS):
        return
    first = next(((idx, line.strip()) for idx, line in enumerate(code, 1)
                  if line.strip()), None)
    if first is None or first[1] != "#pragma once":
        emit(first[0] if first else 1, "header-hygiene",
             "header must start with #pragma once")
    for idx, line in enumerate(raw_lines, start=1):
        m = _QUOTED_INCLUDE_RE.match(line)
        if m and m.group(1).startswith(".."):
            emit(idx, "header-hygiene", f'parent-relative include '
                 f'"{m.group(1)}" — include root-relative from src/')
