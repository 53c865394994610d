#!/usr/bin/env python
"""Documentation consistency checks (the `make docs-check` target).

Fails (exit code 1) if documentation has drifted from the code:

1. required docs exist (README.md plus the docs/ suite: architecture
   overview, orchestrator, executors, sharding-and-ci,
   protocol-registry, experiments-guide);
2. every intra-repo markdown link in README/docs resolves (the docs
   suite cross-references itself page to page; a split or rename must
   not leave dangling links);
3. README documents every CLI subcommand the shipped parser actually
   has, and the docs/ pages collectively document every subcommand too;
4. every ``python -m repro.experiments <sub> <sweep>`` command quoted in
   a doc uses a real subcommand, a registered sweep name and only
   options ``<sub>`` accepts, and every ``make <target>`` mentioned
   exists in the Makefile -- the experiments-guide walkthrough must stay
   copy-pasteable;
5. every module under ``src/repro`` has a module docstring;
6. every package ``__init__`` resolves its declared ``__all__`` (imports
   that silently rot are the most common docstring drift), and every name
   it exports has a consumer outside ``tests/`` (:func:`unused_exports`);
7. every submodule a package docstring mentions (``:mod:`repro...```)
   actually exists;
8. docs mention no repo files that do not exist (DESIGN.md-style drift).
"""

from __future__ import annotations

import ast
import importlib
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

ERRORS: list = []

#: the docs suite every checkout must ship
REQUIRED_DOCS = (
    "README.md",
    "docs/architecture.md",
    "docs/orchestrator.md",
    "docs/executors.md",
    "docs/sharding-and-ci.md",
    "docs/protocol-registry.md",
    "docs/physical-layer.md",
    "docs/experiments-guide.md",
    "ROADMAP.md",
    "CHANGES.md",
)

#: subcommands that take a sweep name as their first positional argument
SWEEP_TAKING = ("run", "resume", "export", "merge")

#: where a use of an exported name counts; ``tests/`` is not a consumer
CONSUMER_DIRS = ("src", "benchmarks", "examples", "perfbench", "scripts")


def error(message: str) -> None:
    ERRORS.append(message)
    print(f"docs-check: FAIL: {message}")


def doc_pages() -> list:
    """README.md plus every markdown page under docs/, as absolute paths."""
    pages = [os.path.join(ROOT, "README.md")]
    docs_dir = os.path.join(ROOT, "docs")
    if os.path.isdir(docs_dir):
        pages.extend(
            os.path.join(docs_dir, name)
            for name in sorted(os.listdir(docs_dir))
            if name.endswith(".md")
        )
    return [p for p in pages if os.path.isfile(p)]


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _rel(path: str) -> str:
    return os.path.relpath(path, ROOT)


def check_required_docs() -> None:
    for rel in REQUIRED_DOCS:
        if not os.path.isfile(os.path.join(ROOT, rel)):
            error(f"required doc missing: {rel}")


_LINK = re.compile(r"\[[^\]\[]*\]\(([^)\s]+)\)")


def check_intra_repo_links() -> None:
    """Every relative markdown link in README/docs must resolve."""
    for path in doc_pages():
        for target in _LINK.findall(_read(path)):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            rel_target = target.split("#", 1)[0]
            if not rel_target:
                continue
            resolved = os.path.normpath(
                os.path.join(os.path.dirname(path), rel_target)
            )
            if not os.path.exists(resolved):
                error(f"{_rel(path)} links to {target!r} which does not exist")


def _cli_parsers() -> dict:
    """Each CLI subcommand's name mapped to its argparse parser."""
    from repro.experiments.__main__ import _build_parser

    parser = _build_parser()
    for action in parser._actions:  # argparse keeps subparsers here
        if hasattr(action, "choices") and action.choices:
            return dict(action.choices)
    return {}


def _cli_subcommands() -> list:
    return list(_cli_parsers())


def check_readme_matches_cli() -> None:
    readme_path = os.path.join(ROOT, "README.md")
    if not os.path.isfile(readme_path):
        return
    readme = _read(readme_path)
    for command in _cli_subcommands():
        if f"python -m repro.experiments {command}" not in readme:
            error(f"README does not document CLI subcommand {command!r}")
    for target in ("make test", "make bench-smoke", "make docs-check"):
        if target not in readme:
            error(f"README does not mention {target!r}")


def check_docs_cover_cli() -> None:
    """The docs/ pages, collectively, document every CLI subcommand."""
    pages = [p for p in doc_pages() if os.path.basename(os.path.dirname(p)) == "docs"]
    if not pages:
        return
    corpus = "\n".join(_read(p) for p in pages)
    for command in _cli_subcommands():
        if f"python -m repro.experiments {command}" not in corpus:
            error(f"no docs/ page documents CLI subcommand {command!r}")


#: a quoted CLI command; separators are same-line only, so prose after a
#: line break ("...experiments run` to execute\nsmoke tests") is never
#: mis-parsed as a sweep argument
_CLI_REF = re.compile(r"python -m repro\.experiments[ \t]+([\w-]+)(?:[ \t]+(?!-)([\w.-]+))?")
#: a quoted CLI command with the rest of its line: up to a closing
#: backtick, a pipe, a shell separator, a redirect or a comment
_CLI_COMMAND = re.compile(r"python -m repro\.experiments[ \t]+([\w-]+)([^`\n|;&>#]*)")
_CONTINUATION = re.compile(r"\\\n[ \t]*")
_OPTION = re.compile(r"(?<![\w-])--[\w-]+")
_MAKE_INLINE = re.compile(r"`make ([a-zA-Z][\w-]*)")
_MAKE_COMMAND = re.compile(r"^\s*\$?\s*make ([a-zA-Z][\w-]*)")


def _make_refs(text: str) -> list:
    """Make targets referenced in code contexts of a markdown page.

    Inline code (```make x```) and command lines inside fenced code
    blocks count; prose that merely starts a line with "make sure ..."
    does not.
    """
    refs = _MAKE_INLINE.findall(text)
    in_fence = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            match = _MAKE_COMMAND.match(line)
            if match:
                refs.append(match.group(1))
    return refs
_MAKE_TARGET = re.compile(r"^([a-zA-Z][\w-]*):", re.MULTILINE)


def check_quoted_commands() -> None:
    """Quoted CLI/make commands must reference things that exist.

    The experiments-guide sells its commands as copy-pasteable; a renamed
    sweep or dropped make target must fail this check, not a reader.
    """
    parsers = _cli_parsers()
    subcommands = set(parsers)
    options = {
        name: {opt for action in sub._actions for opt in action.option_strings}
        for name, sub in parsers.items()
    }
    from repro.experiments.specs import SPECS

    makefile = os.path.join(ROOT, "Makefile")
    targets = set(_MAKE_TARGET.findall(_read(makefile))) if os.path.isfile(makefile) else set()

    for path in doc_pages():
        text = _read(path)
        for sub, arg in _CLI_REF.findall(text):
            if sub not in subcommands:
                error(
                    f"{_rel(path)} quotes unknown subcommand "
                    f"'python -m repro.experiments {sub}'"
                )
            elif arg and sub in SWEEP_TAKING and arg not in SPECS:
                error(
                    f"{_rel(path)} quotes 'python -m repro.experiments {sub} "
                    f"{arg}' but {arg!r} is not a registered sweep"
                )
        # backslash continuations joined, so a multi-line command counts whole
        for sub, rest in _CLI_COMMAND.findall(_CONTINUATION.sub(" ", text)):
            for option in _OPTION.findall(rest):
                if sub in options and option not in options[sub]:
                    error(
                        f"{_rel(path)} quotes 'python -m repro.experiments {sub} "
                        f"... {option}' but {sub!r} has no {option} option"
                    )
        for target in _make_refs(text):
            if target not in targets:
                error(f"{_rel(path)} mentions 'make {target}' which is not a Makefile target")


def iter_modules() -> list:
    modules = []
    for dirpath, _dirnames, filenames in os.walk(os.path.join(SRC, "repro")):
        for filename in filenames:
            if filename.endswith(".py"):
                path = os.path.join(dirpath, filename)
                rel = os.path.relpath(path, SRC)
                name = rel[: -len(".py")].replace(os.sep, ".")
                if name.endswith(".__init__"):
                    name = name[: -len(".__init__")]
                modules.append((name, path))
    return sorted(modules)


def check_module_docstrings() -> None:
    for name, path in iter_modules():
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        if not ast.get_docstring(tree):
            error(f"module {name} has no docstring")


_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _consumer_files(root: str) -> list:
    files = []
    for top in CONSUMER_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames) if f.endswith(".py"))
    return files


def _is_all(node: ast.AST) -> bool:
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _uses(tree: ast.Module) -> set:
    """Identifiers ``tree`` refers to: names, attributes and the words of
    string constants (``perfbench/`` wraps methods named in strings).

    Imports, ``__all__`` lists and docstrings are not uses, and a
    ``register_*``-decorated definition counts as used by its decorator.
    """
    skip, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and _is_all(node)
        ):
            skip.update(id(n) for n in ast.walk(node))
        elif isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                skip.add(id(node.body[0].value))
            if not isinstance(node, ast.Module) and any(
                isinstance(d, ast.Call)
                and getattr(d.func, "id", getattr(d.func, "attr", "")).startswith("register")
                for d in node.decorator_list
            ):
                used.add(node.name)
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(_IDENTIFIER.findall(node.value))
    return used


def unused_exports(root: str) -> list:
    """``(package, name)`` for every ``__all__`` entry of a package under
    ``root/src`` that no consumer (:data:`CONSUMER_DIRS`) uses.

    A new exported name needs a consumer that exists today; a name only
    ``tests/`` call is library surface nobody runs.
    """
    used = set()
    for path in _consumer_files(root):
        with open(path, encoding="utf-8") as fh:
            used |= _uses(ast.parse(fh.read(), filename=path))
    unused = []
    for dirpath, dirnames, filenames in os.walk(os.path.join(root, "src")):
        dirnames.sort()
        if "__init__.py" not in filenames:
            continue
        path = os.path.join(dirpath, "__init__.py")
        package = os.path.relpath(dirpath, os.path.join(root, "src")).replace(os.sep, ".")
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_all(node):
                for name in ast.literal_eval(node.value):
                    if name not in used:
                        unused.append((package, name))
    return unused


def check_package_exports() -> None:
    for package, symbol in unused_exports(ROOT):
        error(f"{package}.__all__ exports {symbol!r} but nothing outside tests/ uses it")
    for name, path in iter_modules():
        if not path.endswith("__init__.py"):
            continue
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            if not hasattr(module, symbol):
                error(f"{name}.__all__ lists {symbol!r} but it does not resolve")
        # submodules the docstring advertises must exist
        for ref in re.findall(r":mod:`(repro[.\w]*)`", module.__doc__ or ""):
            try:
                importlib.import_module(ref)
            except ImportError:
                error(f"{name} docstring mentions :mod:`{ref}` which does not import")


def check_no_phantom_files() -> None:
    pattern = re.compile(r"\b([A-Z]{2,}[A-Z_]*\.md)\b")
    for path in doc_pages():
        for mentioned in set(pattern.findall(_read(path))):
            if not os.path.isfile(os.path.join(ROOT, mentioned)):
                error(f"{_rel(path)} mentions {mentioned} which does not exist in the repo")


def main() -> int:
    check_required_docs()
    check_intra_repo_links()
    check_readme_matches_cli()
    check_docs_cover_cli()
    check_quoted_commands()
    check_module_docstrings()
    check_package_exports()
    check_no_phantom_files()
    if ERRORS:
        print(f"docs-check: {len(ERRORS)} problem(s)")
        return 1
    modules = len(iter_modules())
    pages = len(doc_pages())
    print(
        f"docs-check: OK ({modules} modules, {pages} doc pages; links, "
        "CLI docs, quoted commands and exports consistent)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
