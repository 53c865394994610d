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
   a doc uses a real subcommand and a registered sweep name, and every
   ``make <target>`` mentioned exists in the Makefile -- the
   experiments-guide walkthrough must stay copy-pasteable;
5. every module under ``src/repro`` has a module docstring;
6. every package ``__init__`` resolves its declared ``__all__`` (imports
   that silently rot are the most common docstring drift);
7. every submodule a package docstring mentions (``:mod:`repro...```)
   actually exists;
8. docs mention no repo files that do not exist (DESIGN.md-style drift).

``--links`` runs only the intra-repo link check (the dedicated CI step).
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
    "docs/result-store.md",
    "docs/sharding-and-ci.md",
    "docs/protocol-registry.md",
    "docs/physical-layer.md",
    "docs/experiments-guide.md",
    "ROADMAP.md",
    "CHANGES.md",
)

#: subcommands that take a sweep name as their first positional argument
SWEEP_TAKING = ("run", "resume", "export", "merge")


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


def _cli_subcommands() -> list:
    from repro.experiments.__main__ import _build_parser

    parser = _build_parser()
    for action in parser._actions:  # argparse keeps subparsers here
        if hasattr(action, "choices") and action.choices:
            return list(action.choices)
    return []


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
    subcommands = set(_cli_subcommands())
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


def check_package_exports() -> None:
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


def main(argv: list) -> int:
    if "--links" in argv:
        check_intra_repo_links()
        if ERRORS:
            print(f"docs-check: {len(ERRORS)} broken link(s)")
            return 1
        print(f"docs-check: OK ({len(doc_pages())} pages, intra-repo links resolve)")
        return 0
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
    sys.exit(main(sys.argv[1:]))
