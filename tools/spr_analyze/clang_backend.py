"""libclang front-end: lowers cursors into the analyzer's model.

When the python clang bindings are importable (pip `libclang` or a distro
python3-clang), classes/fields/function boundaries come from the real AST
— exact extents, canonical type spellings, no heuristics. Statement
bodies are then lexed through the shared token machinery (model.lex /
model.split_statements) so the rules see the identical Stmt shape either
way; fixtures assert front-end agreement when both are available.

Kept import-safe on machines without the bindings: `available()` gates
every use, and spr_analyze falls back to the micro-AST engine.
"""

from __future__ import annotations

import model

try:
    import clang.cindex as _cx

    _HAVE = True
except Exception:  # pragma: no cover - environment dependent
    _HAVE = False


def available() -> bool:
    if not _HAVE:
        return False
    try:  # the bindings import even when libclang.so is absent
        _cx.Index.create()
        return True
    except Exception:  # pragma: no cover - environment dependent
        return False


def _extent_tokens(stripped_lines: list[str], start_line: int,
                   start_col: int, end_line: int,
                   end_col: int) -> list[model.Token]:
    """Lexes the [start, end) source extent with real line numbers."""
    window: list[str] = []
    for i in range(1, len(stripped_lines) + 1):
        line = stripped_lines[i - 1]
        if i < start_line or i > end_line:
            window.append("")
            continue
        lo = start_col - 1 if i == start_line else 0
        hi = end_col - 1 if i == end_line else len(line)
        window.append(" " * lo + line[lo:hi])
    return model.lex(window)


def parse_file(path: str, rel: str,
               stripped_lines: list[str]) -> model.FileModel:
    index = _cx.Index.create()
    tu = index.parse(path, args=["-std=c++20", "-Isrc", "-x", "c++"])
    fm = model.FileModel(rel)
    _walk(tu.cursor, fm, rel, stripped_lines, class_name="")
    fm.unordered_loop_lines = _unordered_loop_lines(tu, rel)
    return fm


def _unordered_loop_lines(tu, path: str) -> list[int]:
    """Range-for statements in this file whose range expression has an
    unordered container type (canonical spelling, so aliases count)."""
    lines = set()
    for top in tu.cursor.get_children():
        if not _in_file(top, path):
            continue
        for cursor in top.walk_preorder():
            if cursor.kind != _cx.CursorKind.CXX_FOR_RANGE_STMT:
                continue
            children = list(cursor.get_children())
            # Children: [init-statement,] loop variable, range, body.
            if len(children) < 2:
                continue
            range_type = children[-2].type.get_canonical().spelling
            if "unordered_" in range_type:
                lines.add(cursor.location.line)
    return sorted(lines)


def _in_file(cursor, path: str) -> bool:
    loc = cursor.location
    return loc.file is not None and loc.file.name.endswith(path.split("/")[-1])


def _walk(cursor, fm: model.FileModel, path: str,
          stripped_lines: list[str], class_name: str) -> None:
    for child in cursor.get_children():
        kind = child.kind
        if kind in (_cx.CursorKind.NAMESPACE,
                    _cx.CursorKind.UNEXPOSED_DECL):
            _walk(child, fm, path, stripped_lines, class_name)
            continue
        if not _in_file(child, path):
            continue
        if kind in (_cx.CursorKind.CLASS_DECL, _cx.CursorKind.STRUCT_DECL,
                    _cx.CursorKind.CLASS_TEMPLATE):
            if not child.is_definition():
                continue
            cls = model.ClassInfo(child.spelling, [],
                                  child.location.line, path)
            for member in child.get_children():
                if member.kind == _cx.CursorKind.FIELD_DECL or (
                    member.kind == _cx.CursorKind.VAR_DECL
                ):
                    cls.fields.append(model.Field(
                        member.spelling, member.type.spelling,
                        member.location.line))
            fm.classes.append(cls)
            _walk(child, fm, path, stripped_lines, child.spelling)
            continue
        if kind in (_cx.CursorKind.FUNCTION_DECL, _cx.CursorKind.CXX_METHOD,
                    _cx.CursorKind.CONSTRUCTOR, _cx.CursorKind.DESTRUCTOR,
                    _cx.CursorKind.FUNCTION_TEMPLATE):
            if not child.is_definition():
                continue
            body = None
            for sub in child.get_children():
                if sub.kind == _cx.CursorKind.COMPOUND_STMT:
                    body = sub
            if body is None:
                continue
            ext = body.extent
            tokens = _extent_tokens(stripped_lines, ext.start.line,
                                    ext.start.column, ext.end.line,
                                    ext.end.column)
            # Drop the surrounding `{ }` of the compound statement.
            if tokens and tokens[0].text == "{":
                tokens = tokens[1:]
            if tokens and tokens[-1].text == "}":
                tokens = tokens[:-1]
            params = [
                model.Param(arg.spelling, arg.type.spelling)
                for arg in child.get_arguments()
            ]
            owner = class_name
            sem = child.semantic_parent
            if sem is not None and sem.kind in (
                _cx.CursorKind.CLASS_DECL, _cx.CursorKind.STRUCT_DECL,
                _cx.CursorKind.CLASS_TEMPLATE,
            ):
                owner = sem.spelling
            fm.functions.append(model.FunctionInfo(
                name=child.spelling,
                class_name=owner,
                return_type_text=child.result_type.spelling,
                params=params,
                stmts=model.split_statements(tokens),
                body_tokens=tokens,
                line=child.location.line,
                file=path,
            ))
            continue
        if kind == _cx.CursorKind.VAR_DECL and class_name == "":
            fm.globals.append(model.Field(
                child.spelling, child.type.spelling, child.location.line))
