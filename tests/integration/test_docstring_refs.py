"""Every Sphinx cross-reference to ``repro.*`` in ``src/`` resolves.

A reference such as ``:class:`~repro.memory.catalog.SPECS``` names a
module, or a module plus an attribute path; it resolves when the
longest importable module prefix imports and ``getattr`` walks the
rest.  A deleted module or renamed name leaves a dangling reference
that no other test would notice.
"""

import importlib
import pathlib
import re

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent
REF = re.compile(r":(?:mod|class|func|meth|data):`~?(repro(?:\.\w+)+)`")


def _references() -> dict[str, list[str]]:
    """Target -> the ``file:line`` sites that name it."""
    refs: dict[str, list[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for m in REF.finditer(text):
            line = text.count("\n", 0, m.start()) + 1
            site = f"{path.relative_to(SRC.parent)}:{line}"
            refs.setdefault(m.group(1), []).append(site)
    return refs


def _resolves(target: str) -> bool:
    parts = target.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


def test_the_walk_finds_references():
    refs = _references()
    assert len(refs) > 50
    assert "repro.memory.catalog" in refs


def test_docstring_cross_references_resolve():
    dangling = {target: sites for target, sites in _references().items()
                if not _resolves(target)}
    assert not dangling, "dangling cross-references:\n" + "\n".join(
        f"  {target}  ({', '.join(sites)})"
        for target, sites in sorted(dangling.items()))
