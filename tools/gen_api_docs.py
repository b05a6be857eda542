"""Generate docs/api.md — the API reference for ``repro.runtime``.

The reference is rendered from the live modules' docstrings (module
summary, public classes with their public methods, public functions), so
it can never drift silently: CI runs ``gen_api_docs.py --check`` (via
``make docs-check``) and fails when the committed ``docs/api.md`` no
longer matches what the source would generate.  The companion gate,
``tools/check_docs.py``, separately fails when a public runtime class is
missing a docstring — between the two, every entry in the reference has
real content behind it.

Usage::

    PYTHONPATH=src python tools/gen_api_docs.py            # (re)write
    PYTHONPATH=src python tools/gen_api_docs.py --check    # CI gate
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

OUTPUT = REPO_ROOT / "docs" / "api.md"

#: the package documented, module by module, in data-flow order
MODULES = ("queue", "batcher", "policy", "engine", "shards", "metrics",
           "placement", "placement_lp", "checkpoint", "fleet", "gateway",
           "sim")

HEADER = """\
# API reference — `repro.runtime`

> Generated by `tools/gen_api_docs.py` — do not edit by hand; run
> `PYTHONPATH=src python tools/gen_api_docs.py` to refresh (CI fails when
> this file is stale). Part of the
> [architecture documentation](architecture.md).

Modules in data-flow order: job intake ([queue](#reproruntimequeue)) →
cohort formation ([batcher](#reproruntimebatcher)) → sizing
([policy](#reproruntimepolicy)) → execution
([engine](#reproruntimeengine)) → accounting
([metrics](#reproruntimemetrics)) → fleet placement
([placement](#reproruntimeplacement)) → durability
([checkpoint](#reproruntimecheckpoint)) → multi-device scheduling
([fleet](#reproruntimefleet)) → multi-tenant admission
([gateway](#reproruntimegateway)) → virtual-time simulation
([sim](#reproruntimesim)).
"""


def first_paragraph(doc: str | None) -> str:
    """The docstring's leading paragraph, unwrapped to one block."""
    if not doc:
        return "*(undocumented)*"
    paragraph = inspect.cleandoc(doc).split("\n\n", 1)[0]
    return " ".join(line.strip() for line in paragraph.splitlines())


def first_sentence(doc: str | None) -> str:
    """The docstring's first sentence (method one-liners)."""
    paragraph = first_paragraph(doc)
    for stop in (". ", ".\n"):
        if stop in paragraph:
            return paragraph.split(stop, 1)[0] + "."
    return paragraph


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def render_class(name: str, cls: type) -> list:
    lines = [f"### class `{name}`", "", first_paragraph(cls.__doc__), ""]
    methods = []
    for attr_name, attr in sorted(vars(cls).items()):
        if attr_name.startswith("_"):
            continue
        if isinstance(attr, property):
            methods.append((f"{attr_name}", "property",
                            first_sentence(attr.__doc__)))
        elif isinstance(attr, staticmethod):
            methods.append((f"{attr_name}{signature_of(attr.__func__)}",
                            "static", first_sentence(attr.__func__.__doc__)))
        elif inspect.isfunction(attr):
            methods.append((f"{attr_name}{signature_of(attr)}", "method",
                            first_sentence(attr.__doc__)))
    if methods:
        lines.append("| Member | Kind | Summary |")
        lines.append("| --- | --- | --- |")
        for member, kind, summary in methods:
            lines.append(f"| `{member}` | {kind} | {summary} |")
        lines.append("")
    return lines


def render_module(module_name: str) -> list:
    module = importlib.import_module(f"repro.runtime.{module_name}")
    anchor_title = f"`repro.runtime.{module_name}`"
    lines = [f"## {anchor_title}", "", first_paragraph(module.__doc__), ""]
    for name in getattr(module, "__all__", ()):
        obj = getattr(module, name)
        if getattr(obj, "__module__", None) != module.__name__:
            continue                  # re-exported from elsewhere
        if inspect.isclass(obj):
            lines.extend(render_class(name, obj))
        elif inspect.isfunction(obj):
            lines.append(f"### `{name}{signature_of(obj)}`")
            lines.append("")
            lines.append(first_paragraph(obj.__doc__))
            lines.append("")
        else:                         # module-level constant
            lines.append(f"### `{name}`")
            lines.append("")
            lines.append(f"Constant of type `{type(obj).__name__}`.")
            lines.append("")
    return lines


def generate() -> str:
    lines = [HEADER]
    for module_name in MODULES:
        lines.extend(render_module(module_name))
    return "\n".join(lines).rstrip() + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Generate (or verify) docs/api.md from the "
                    "repro.runtime docstrings.")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when docs/api.md is stale instead of "
                             "rewriting it")
    args = parser.parse_args(argv)

    rendered = generate()
    if args.check:
        committed = OUTPUT.read_text() if OUTPUT.exists() else ""
        if committed != rendered:
            print("docs/api.md is stale — regenerate with "
                  "`PYTHONPATH=src python tools/gen_api_docs.py`",
                  file=sys.stderr)
            return 1
        print(f"gen_api_docs: {OUTPUT.relative_to(REPO_ROOT)} is current "
              f"({len(rendered.splitlines())} lines).")
        return 0
    OUTPUT.write_text(rendered)
    print(f"wrote {OUTPUT.relative_to(REPO_ROOT)} "
          f"({len(rendered.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
