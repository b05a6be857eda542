"""Docs gate: links resolve, public classes are documented, examples run,
and the members the docs name exist.

Four checks, all required by CI (the ``docs`` job and ``make
docs-check``):

1. **Intra-repo links.**  Every relative markdown link in ``docs/*.md``
   and ``README.md`` must point at an existing file; ``#fragment``
   anchors must match a heading (GitHub slug rules) or an explicit
   ``<a name=...>`` in the target file.  External (``http``/``mailto``)
   links are not touched — CI must not flake on the network.

2. **Docstrings.**  Every public class exported by a ``repro.runtime``
   module (its ``__all__``) carries a non-empty docstring, as does every
   module itself.  This is the floor under ``docs/api.md`` — the
   generated reference (``tools/gen_api_docs.py``) renders these
   docstrings, so an empty one would ship an empty reference entry.

3. **Executable examples.**  Every ``>>>`` doctest block in ``docs/``
   runs and passes (e.g. the ``AdmissionTicket`` session in
   ``docs/gateway.md``) — documentation that executes cannot silently
   rot.

4. **Member references.**  Every backticked ``Class.member`` in
   ``docs/*.md`` and ``README.md`` (outside fenced code blocks), where
   ``Class`` is defined in a ``repro.runtime`` module (exported or
   private, e.g. ``FusedPhysics`` or ``_Shard``), names a class attribute
   or method, a dataclass field, or an attribute the class's own code
   assigns (``self.member = ...``) — a doc that names a deleted member
   fails here instead of sending its reader after it.

Exit status 0 = clean, 1 = any failure.  Run from the repo root::

    PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import ast
import dataclasses
import doctest
import functools
import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

DOC_FILES = sorted((REPO_ROOT / "docs").glob("*.md")) + \
    [REPO_ROOT / "README.md"]

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
ANCHOR_RE = re.compile(r'<a\s+name=["\']([^"\']+)["\']')
CODE_FENCE_RE = re.compile(r"```.*?```", re.DOTALL)
CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
MEMBER_RE = re.compile(r"\b([A-Za-z_]\w*)\.([A-Za-z_]\w*)")


def github_slug(heading: str) -> str:
    """GitHub's heading-to-anchor slug (the subset these docs need)."""
    text = re.sub(r"`([^`]*)`", r"\1", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_of(path: Path) -> set:
    text = path.read_text(encoding="utf-8")
    anchors = {github_slug(h) for h in HEADING_RE.findall(text)}
    anchors.update(ANCHOR_RE.findall(text))
    return anchors


def check_links(failures: list) -> int:
    checked = 0
    for doc in DOC_FILES:
        text = doc.read_text(encoding="utf-8")
        # links inside fenced code blocks are code, not navigation
        prose = CODE_FENCE_RE.sub("", text)
        for target in LINK_RE.findall(prose):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            checked += 1
            rel = doc.relative_to(REPO_ROOT)
            path_part, _, fragment = target.partition("#")
            resolved = doc if not path_part \
                else (doc.parent / path_part).resolve()
            if not resolved.exists():
                failures.append(f"{rel}: broken link '{target}' "
                                f"(no such file)")
                continue
            if fragment and resolved.suffix == ".md":
                if fragment not in anchors_of(resolved):
                    failures.append(
                        f"{rel}: broken anchor '{target}' (no heading "
                        f"slugs to '#{fragment}' in "
                        f"{resolved.relative_to(REPO_ROOT)})")
    return checked


def check_docstrings(failures: list) -> int:
    package = importlib.import_module("repro.runtime")
    checked = 0
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"repro.runtime.{info.name}")
        checked += 1
        if not (module.__doc__ or "").strip():
            failures.append(f"repro.runtime.{info.name}: module has no "
                            f"docstring")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name, None)
            if not inspect.isclass(obj) or \
                    obj.__module__ != module.__name__:
                continue
            checked += 1
            if not (obj.__doc__ or "").strip():
                failures.append(f"repro.runtime.{info.name}.{name}: public "
                                f"class has no docstring")
    return checked


@functools.lru_cache(maxsize=None)
def assigned_attributes(cls: type) -> frozenset:
    """The ``self.<name>`` attributes the code of ``cls`` and of its
    ``repro`` bases assigns."""
    names = set()
    for klass in cls.__mro__:
        if not klass.__module__.startswith("repro"):
            continue
        for node in ast.walk(ast.parse(inspect.getsource(klass))):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Store) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id == "self":
                names.add(node.attr)
    return frozenset(names)


def check_member_references(failures: list) -> int:
    package = importlib.import_module("repro.runtime")
    classes = {}
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"repro.runtime.{info.name}")
        classes.update((name, obj) for name, obj in vars(module).items()
                       if inspect.isclass(obj)
                       and obj.__module__ == module.__name__)
    checked = 0
    for doc in DOC_FILES:
        prose = CODE_FENCE_RE.sub("", doc.read_text(encoding="utf-8"))
        for span in CODE_SPAN_RE.findall(prose):
            for owner, member in MEMBER_RE.findall(span):
                cls = classes.get(owner)
                if cls is None:
                    continue
                checked += 1
                if hasattr(cls, member):
                    continue
                if dataclasses.is_dataclass(cls) and member in \
                        {field.name for field in dataclasses.fields(cls)}:
                    continue
                if member not in assigned_attributes(cls):
                    failures.append(
                        f"{doc.relative_to(REPO_ROOT)}: `{owner}.{member}` "
                        f"names no attribute, method or field of "
                        f"repro.runtime.{owner}")
    return checked


def check_doc_examples(failures: list) -> int:
    ran = 0
    for doc in sorted((REPO_ROOT / "docs").glob("*.md")):
        if ">>>" not in doc.read_text(encoding="utf-8"):
            continue
        ran += 1
        result = doctest.testfile(str(doc), module_relative=False,
                                  verbose=False, report=True)
        if result.failed:
            failures.append(f"{doc.relative_to(REPO_ROOT)}: "
                            f"{result.failed}/{result.attempted} doc "
                            f"example(s) failed (see output above)")
    return ran


def main() -> int:
    failures: list = []
    links = check_links(failures)
    docstrings = check_docstrings(failures)
    examples = check_doc_examples(failures)
    members = check_member_references(failures)

    if failures:
        print(f"check_docs: {len(failures)} failure(s):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"check_docs: ok ({links} intra-repo links, {docstrings} "
          f"modules/classes documented, {examples} executable doc "
          f"file(s) ran, {members} member references resolve).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
