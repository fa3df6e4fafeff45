"""Micro-AST over C++ sources: the analyzer's front end.

The analyzer's rules (rules.py) run over a deliberately small intermediate
model — classes with typed fields, functions with ordered statements —
that this module builds by lexing and scope-scanning the comment/string
stripped source, with nothing beyond the Python standard library.

It is not a C++ parser but a brace/paren-matched token scanner tuned to
this repo's idiom (one class per header, root-relative includes,
clang-format layout). Where real C++ would defeat it (macros beyond
simple constants, template metaprogramming), the repo's style gate keeps
such code out of src/; fixtures pin the constructs the rules need.

Model:
  Token(kind, text, line)           kind: id | num | punct
  Field(name, type_text, line)
  ClassInfo(name, fields, line, file)
  Param(name, type_text)
  Stmt(tokens, line, text)          ordered, flow-insensitive statement list
  FunctionInfo(name, class_name, return_type_text, params, stmts, ...)
  Registry                          cross-file class/function/global lookup
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

_ID_RE = re.compile(r"[A-Za-z_]\w*")
_NUM_RE = re.compile(r"(?:0[xX][0-9a-fA-F']+|[0-9][0-9a-fA-F'.eEpPxXulUL]*)")
# Longest-match punctuation; multi-char operators first.
_PUNCT = [
    "<<=", ">>=", "->*", "...", "::", "->", "++", "--", "<<", ">>", "<=",
    ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=",
    "^=", "~", "!", "%", "^", "&", "*", "(", ")", "-", "+", "=", "{", "}",
    "[", "]", "|", ";", ":", "<", ">", ",", ".", "?", "/",
]

CONTROL_KEYWORDS = {"if", "for", "while", "switch", "catch"}


@dataclass
class Token:
    kind: str
    text: str
    line: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.text}@{self.line}"


def lex(stripped_lines: list[str]) -> list[Token]:
    """Tokens from comment/string-stripped source lines.

    Preprocessor directive lines (and their backslash continuations) are
    dropped whole: rules reason about code, and `#include`/macro bodies
    would otherwise masquerade as statements.
    """
    tokens: list[Token] = []
    in_directive = False
    for line_no, line in enumerate(stripped_lines, start=1):
        stripped = line.lstrip()
        if in_directive or stripped.startswith("#"):
            in_directive = line.rstrip().endswith("\\")
            continue
        i = 0
        n = len(line)
        while i < n:
            c = line[i]
            if c.isspace():
                i += 1
                continue
            m = _ID_RE.match(line, i)
            if m:
                tokens.append(Token("id", m.group(0), line_no))
                i = m.end()
                continue
            if c.isdigit():
                m = _NUM_RE.match(line, i)
                if m:
                    tokens.append(Token("num", m.group(0), line_no))
                    i = m.end()
                    continue
            for p in _PUNCT:
                if line.startswith(p, i):
                    tokens.append(Token("punct", p, line_no))
                    i += len(p)
                    break
            else:
                i += 1  # stray byte: skip
    return tokens


@dataclass
class Field:
    name: str
    type_text: str
    line: int


@dataclass
class ClassInfo:
    name: str
    fields: list[Field]
    line: int
    file: str

    def field(self, name: str) -> Field | None:
        for f in self.fields:
            if f.name == name:
                return f
        return None


@dataclass
class Param:
    name: str
    type_text: str


@dataclass
class Stmt:
    tokens: list[Token]
    line: int

    @property
    def text(self) -> str:
        return " ".join(t.text for t in self.tokens)


@dataclass
class FunctionInfo:
    name: str
    class_name: str
    return_type_text: str
    params: list[Param]
    stmts: list[Stmt]
    body_tokens: list[Token]
    line: int
    file: str

    @property
    def qualified(self) -> str:
        return f"{self.class_name}::{self.name}" if self.class_name \
            else self.name


@dataclass
class FileModel:
    path: str
    classes: list[ClassInfo] = field(default_factory=list)
    functions: list[FunctionInfo] = field(default_factory=list)
    globals: list[Field] = field(default_factory=list)


class Registry:
    """Cross-file lookup: class by name, functions, sink files."""

    def __init__(self) -> None:
        self.classes: dict[str, ClassInfo] = {}
        self.functions: list[FunctionInfo] = []
        self.globals: list[Field] = []

    def add(self, model: FileModel) -> None:
        for c in model.classes:
            self.classes.setdefault(c.name, c)
        self.functions.extend(model.functions)
        self.globals.extend(model.globals)

    def class_of(self, fn: FunctionInfo) -> ClassInfo | None:
        return self.classes.get(fn.class_name) if fn.class_name else None


def _match_braces(tokens: list[Token]) -> dict[int, int]:
    """Index of matching '}' for each '{' (and ')' for '(' / ']' for '[')."""
    match: dict[int, int] = {}
    stack: list[int] = []
    pairs = {"{": "}", "(": ")", "[": "]"}
    closers = {"}": "{", ")": "(", "]": "["}
    for i, t in enumerate(tokens):
        if t.text in pairs:
            stack.append(i)
        elif t.text in closers:
            # Tolerate imbalance (macro remnants): pop the nearest opener.
            while stack:
                j = stack.pop()
                if tokens[j].text == closers[t.text]:
                    match[j] = i
                    break
    return match


def _skip_template(tokens: list[Token], i: int) -> int:
    """Given i at 'template', returns index past its <...> parameter list."""
    j = i + 1
    if j < len(tokens) and tokens[j].text == "<":
        depth = 0
        while j < len(tokens):
            if tokens[j].text == "<":
                depth += 1
            elif tokens[j].text == ">":
                depth -= 1
                if depth == 0:
                    return j + 1
            elif tokens[j].text == ">>":
                depth -= 2
                if depth <= 0:
                    return j + 1
            elif tokens[j].text in (";", "{"):
                return j  # gave up: malformed
            j += 1
    return j


def _name_before_paren(tokens: list[Token], paren: int) -> tuple[int, str]:
    """The (possibly qualified) name ending just before tokens[paren] == '('.

    Returns (start_index, 'Class::name') — empty name when the tokens
    before the paren don't look like a declarator id.
    """
    j = paren - 1
    if j < 0:
        return paren, ""
    parts: list[str] = []
    if tokens[j].kind == "punct" and j >= 1 \
            and tokens[j - 1].text == "operator":
        parts = [tokens[j].text, "operator"]
        j -= 2
    elif tokens[j].kind == "id":
        parts = [tokens[j].text]
        j -= 1
        if j >= 0 and tokens[j].text == "~":
            parts.append("~")
            j -= 1
    else:
        return paren, ""
    # Accept a qualification chain: `id ::` pairs (destructors included).
    while j >= 1 and tokens[j].text == "::" and tokens[j - 1].kind == "id":
        parts.append("::")
        parts.append(tokens[j - 1].text)
        j -= 2
    parts.reverse()
    return j + 1, "".join(parts)


_QUALIFIER_TOKENS = {"const", "noexcept", "override", "final", "mutable",
                     "&", "&&", "->", "try"}


def _is_function_body(tokens: list[Token], start: int, brace: int,
                      match: dict[int, int]) -> int:
    """Whether the '{' at `brace` opens a function body for a declaration
    beginning at `start`. Returns the index of the parameter-list '(' or -1.

    Accepts `name(args) quals { `, trailing-return `) -> T {` and ctor
    init lists `) : a_(x), b_{y} {`.
    """
    j = brace - 1
    # Walk back over the init list: `: id(...)` / `: id{...}` groups.
    while j > start:
        t = tokens[j].text
        if t in (")", "}"):
            opener = {")": "(", "}": "{"}[t]
            k = j - 1
            depth = 1
            while k >= start:
                if tokens[k].text == t:
                    depth += 1
                elif tokens[k].text == opener:
                    depth -= 1
                    if depth == 0:
                        break
                k -= 1
            if k < start:
                return -1
            # `(` preceded by an identifier: call-ish group; keep walking.
            j = k - 1
            continue
        if t in _QUALIFIER_TOKENS or t == "," or t == ":":
            j -= 1
            continue
        if tokens[j].kind == "id":
            # trailing return type tokens / init-list member names
            j -= 1
            continue
        if t in ("<", ">", "::", "*"):
            j -= 1
            continue
        return -1
    # Now find the parameter list: the last top-level `(...)` group whose
    # name precedes it. Rescan forward from start.
    paren = -1
    depth = 0
    k = start
    while k < brace:
        t = tokens[k].text
        if t == "(":
            if depth == 0:
                before = tokens[k - 1] if k > 0 else None
                if before is not None and (
                    before.kind == "id" or before.text in (">", "~")
                    or before.kind == "punct" and k >= 2
                    and tokens[k - 2].text == "operator"
                ):
                    paren = k
            depth += 1
        elif t == ")":
            depth -= 1
        elif t == ":" and depth == 0 and paren != -1:
            break  # ctor init list begins; parameter list already seen
        k += 1
    if paren == -1:
        return -1
    _, name = _name_before_paren(tokens, paren)
    if not name or name.split("::")[-1] in CONTROL_KEYWORDS:
        return -1
    return paren


def _parse_params(tokens: list[Token], paren: int,
                  match: dict[int, int]) -> list[Param]:
    end = match.get(paren)
    if end is None:
        return []
    params: list[Param] = []
    depth = 0
    group: list[Token] = []
    for t in tokens[paren + 1:end]:
        if t.text in ("(", "[", "{", "<"):
            depth += 1
        elif t.text in (")", "]", "}", ">"):
            depth -= 1
        if t.text == "," and depth == 0:
            if group:
                params.append(_param_from(group))
            group = []
        else:
            group.append(t)
    if group:
        params.append(_param_from(group))
    return params


def _param_from(group: list[Token]) -> Param:
    # name = last identifier not part of the type's template args; drop
    # trailing default `= expr`.
    eq = next((i for i, t in enumerate(group) if t.text == "="), len(group))
    group = group[:eq]
    name = ""
    if group and group[-1].kind == "id" and len(group) > 1:
        name = group[-1].text
        group = group[:-1]
    return Param(name, " ".join(t.text for t in group))


def split_statements(tokens: list[Token]) -> list[Stmt]:
    """Ordered statement list for a function body.

    Control-flow braces flush statements (linearized body); lambda bodies
    and brace initializers stay inside their host statement. `;` inside
    parens (for-headers, lambda bodies passed as arguments) never splits.
    """
    stmts: list[Stmt] = []
    cur: list[Token] = []
    paren_kind_stack: list[str] = []
    contain_depth = 0
    pending_lambda = False
    i = 0
    n = len(tokens)

    def flush() -> None:
        nonlocal cur
        if cur:
            stmts.append(Stmt(cur, cur[0].line))
            cur = []

    while i < n:
        t = tokens[i]
        if t.text == "(":
            prev = cur[-1] if cur else None
            if prev is not None and prev.text == "]":
                kind = "lambda"
            elif prev is not None and prev.text in CONTROL_KEYWORDS:
                kind = "control"
            else:
                kind = "call"
            paren_kind_stack.append(kind)
            cur.append(t)
            i += 1
            continue
        if t.text == ")":
            kind = paren_kind_stack.pop() if paren_kind_stack else "call"
            if kind == "lambda":
                pending_lambda = True
            cur.append(t)
            i += 1
            continue
        if t.text == "]" and not paren_kind_stack and contain_depth == 0:
            # `[caps]` followed by `{`: lambda without a parameter list.
            nxt = tokens[i + 1] if i + 1 < n else None
            if nxt is not None and nxt.text in ("{", "(", "mutable",
                                                "noexcept", "->"):
                pending_lambda = True
            cur.append(t)
            i += 1
            continue
        if t.text == "{":
            inside_parens = bool(paren_kind_stack)
            prev = cur[-1] if cur else None
            if inside_parens or contain_depth > 0:
                contain = True
            elif pending_lambda:
                contain = True
            elif prev is not None and (
                prev.text in ("=", ",", ">") or prev.kind == "id"
            ):
                contain = True  # brace initializer
            else:
                contain = False
            if contain:
                contain_depth += 1
                cur.append(t)
            else:
                flush()
            pending_lambda = False
            i += 1
            continue
        if t.text == "}":
            if contain_depth > 0:
                contain_depth -= 1
                cur.append(t)
                # `};` of a lambda-assignment statement ends at the `;`.
            else:
                flush()
            i += 1
            continue
        if t.text == ";" and not paren_kind_stack and contain_depth == 0:
            flush()
            pending_lambda = False
            i += 1
            continue
        cur.append(t)
        i += 1
    flush()
    return stmts


def _parse_field(group: list[Token], file: str) -> Field | None:
    """A class-scope (or namespace-scope) declaration -> Field, or None
    when the group is a function declaration / using / friend / etc."""
    if not group:
        return None
    head = group[0].text
    if head in ("using", "typedef", "friend", "public", "private",
                "protected", "static_assert", "template", "class", "struct",
                "enum", "namespace", "return"):
        return None
    # Name: last identifier before `=`, `{`, or `[` at depth 0; function
    # declarations are recognized by a '(' directly after that name.
    depth = 0
    name_idx = -1
    stop = len(group)
    for i, t in enumerate(group):
        if t.text in ("(", "[", "{", "<"):
            if depth == 0 and t.text in ("{", "["):
                stop = min(stop, i)
            if depth == 0 and t.text == "(":
                # id '(' => function declaration (repo style: members use
                # `{}` or `=` initializers, never parens).
                if i > 0 and group[i - 1].kind == "id":
                    return None
            depth += 1
        elif t.text in (")", "]", "}", ">"):
            depth -= 1
        elif t.text == "=" and depth == 0:
            stop = min(stop, i)
    for i in range(stop - 1, -1, -1):
        if group[i].kind == "id":
            name_idx = i
            break
    if name_idx <= 0:
        return None
    name = group[name_idx].text
    if name == "operator":  # deleted/defaulted operator declarations
        return None
    type_text = " ".join(t.text for t in group[:name_idx])
    if not type_text or type_text in ("return",):
        return None
    return Field(name, type_text, group[0].line)


def parse_file(path: str, stripped_lines: list[str]) -> FileModel:
    tokens = lex(stripped_lines)
    match = _match_braces(tokens)
    model = FileModel(path)
    _scan_scope(tokens, 0, len(tokens), match, model, class_name="")
    return model


def _scan_scope(tokens: list[Token], start: int, end: int,
                match: dict[int, int], model: FileModel,
                class_name: str) -> None:
    i = start
    while i < end:
        t = tokens[i]
        if t.text == "template":
            i = _skip_template(tokens, i)
            continue
        if t.text == "namespace":
            j = i + 1
            while j < end and tokens[j].text not in ("{", ";", "="):
                j += 1
            if j < end and tokens[j].text == "{" and j in match:
                _scan_scope(tokens, j + 1, match[j], match, model, class_name)
                i = match[j] + 1
            else:
                i = j + 1
            continue
        if t.text == "extern":  # extern "C" { ... } — rare; treat inline
            i += 1
            continue
        if t.text in ("class", "struct"):
            prev = tokens[i - 1] if i > start else None
            if prev is not None and prev.text == "enum":
                i += 1
                continue
            # Find the definition brace or the declaration `;`.
            j = i + 1
            name = ""
            while j < end and tokens[j].text not in ("{", ";"):
                if tokens[j].kind == "id" and not name:
                    name = tokens[j].text
                if tokens[j].text == "(":  # `struct` in a declarator — bail
                    break
                j += 1
            if j < end and tokens[j].text == "{" and j in match and name:
                cls = ClassInfo(name, [], t.line, model.path)
                model.classes.append(cls)
                _scan_class_body(tokens, j + 1, match[j], match, model, cls)
                i = match[j] + 1
                # Skip trailing `;` / instance declarators.
                while i < end and tokens[i].text != ";":
                    i += 1
                i += 1
                continue
            i = j + 1
            continue
        if t.text == "enum":
            j = i + 1
            while j < end and tokens[j].text not in ("{", ";"):
                j += 1
            if j < end and tokens[j].text == "{" and j in match:
                i = match[j] + 1
            else:
                i = j + 1
            continue
        if t.text in ("using", "typedef", "friend"):
            while i < end and tokens[i].text != ";":
                i += 1
            i += 1
            continue
        # Declaration or function definition: scan to `;` or body `{`.
        j = i
        depth = 0
        while j < end:
            tj = tokens[j].text
            if tj == "(":
                depth += 1
            elif tj == ")":
                depth -= 1
            elif tj == ";" and depth == 0:
                break
            elif tj == "{" and depth == 0:
                paren = _is_function_body(tokens, i, j, match)
                if paren != -1 and j in match:
                    _add_function(tokens, i, paren, j, match, model,
                                  class_name)
                    j = match[j]
                    # Function bodies end without `;`.
                    break
                # Brace initializer or aggregate: skip the braced group.
                if j in match:
                    j = match[j]
                else:
                    break
            j += 1
        else:
            break
        if j < end and tokens[j].text == "}":
            i = j + 1
            continue
        group = tokens[i:j]
        if class_name == "" and group:
            f = _parse_field(group, model.path)
            if f is not None:
                model.globals.append(f)
        i = j + 1


def _scan_class_body(tokens: list[Token], start: int, end: int,
                     match: dict[int, int], model: FileModel,
                     cls: ClassInfo) -> None:
    i = start
    while i < end:
        t = tokens[i]
        if t.text in ("public", "private", "protected") and i + 1 < end \
                and tokens[i + 1].text == ":":
            i += 2
            continue
        if t.text == "template":
            i = _skip_template(tokens, i)
            continue
        if t.text in ("class", "struct", "enum"):
            prev_i = i
            _scan_scope(tokens, i, end, match, model, class_name=cls.name)
            # _scan_scope consumed from i to end; nested-class scan is a
            # one-shot: find where the nested definition ends and continue.
            j = i + 1
            while j < end and tokens[j].text not in ("{", ";"):
                j += 1
            if j < end and tokens[j].text == "{" and j in match:
                i = match[j] + 1
                while i < end and tokens[i].text != ";":
                    i += 1
                i += 1
            else:
                i = j + 1
            if i <= prev_i:
                i = prev_i + 1
            continue
        if t.text in ("using", "typedef", "friend"):
            while i < end and tokens[i].text != ";":
                i += 1
            i += 1
            continue
        j = i
        depth = 0
        while j < end:
            tj = tokens[j].text
            if tj == "(":
                depth += 1
            elif tj == ")":
                depth -= 1
            elif tj == ";" and depth == 0:
                break
            elif tj == "{" and depth == 0:
                paren = _is_function_body(tokens, i, j, match)
                if paren != -1 and j in match:
                    _add_function(tokens, i, paren, j, match, model, cls.name)
                    j = match[j]
                    break
                if j in match:
                    j = match[j]
                else:
                    break
            j += 1
        else:
            break
        if j < end and tokens[j].text == "}":
            # Function body consumed; skip an optional trailing `;`.
            i = j + 1
            if i < end and tokens[i].text == ";":
                i += 1
            continue
        group = tokens[i:j]
        f = _parse_field(group, model.path)
        if f is not None:
            cls.fields.append(f)
        i = j + 1


def _add_function(tokens: list[Token], start: int, paren: int, brace: int,
                  match: dict[int, int], model: FileModel,
                  scope_class: str) -> None:
    name_start, name = _name_before_paren(tokens, paren)
    class_name = scope_class
    fn_name = name
    if "::" in name:
        parts = name.split("::")
        fn_name = parts[-1]
        class_name = parts[-2] if len(parts) >= 2 else scope_class
    ret = " ".join(t.text for t in tokens[start:name_start]
                   if t.text not in ("inline", "static", "constexpr",
                                     "virtual", "explicit", "friend"))
    params = _parse_params(tokens, paren, match)
    body = tokens[brace + 1:match[brace]]
    model.functions.append(FunctionInfo(
        name=fn_name,
        class_name=class_name,
        return_type_text=ret,
        params=params,
        stmts=split_statements(body),
        body_tokens=body,
        line=tokens[start].line,
        file=model.path,
    ))
