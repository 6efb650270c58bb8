"""Public surface: every public function, class and method in the package has
a caller in the package itself, the demos or the benchmark.

An API that only its own tests call belongs with those tests.  References
are NAME tokens, so a name in a string or a comment does not count, and
neither does a re-export from the package's __init__.
"""

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "momentflow"


def modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def caller_files():
    return modules() + sorted((ROOT / "demos").rglob("*.py")) + sorted(
        (ROOT / "perfbench").rglob("*.py"))


def name_counts(sources):
    """NAME tokens over Python sources given as bytes."""
    return Counter(tok.string for src in sources
                   for tok in tokenize.tokenize(io.BytesIO(src).readline)
                   if tok.type == tokenize.NAME)


def public_definitions(path):
    """(qualified name, bare name) of each public module-level function and
    class, and of each public method of those classes."""
    tree = ast.parse(path.read_text())
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds) or node.name.startswith("_"):
            continue
        yield f"{path.stem}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds[:2]) and not item.name.startswith("_"):
                    yield f"{path.stem}.{node.name}.{item.name}", item.name


def test_name_counts_skip_strings_and_comments():
    counts = name_counts([b'x = "flat_profile"  # flat_profile\ny = x\n'])
    assert counts["flat_profile"] == 0 and counts["x"] == 2


def test_every_public_api_has_a_caller():
    counts = name_counts(p.read_bytes() for p in caller_files())
    defs = [d for path in modules() for d in public_definitions(path)]
    # Each definition contributes one NAME token, the one after def/class.
    defined = Counter(name for _, name in defs)
    uncalled = sorted(qual for qual, name in defs if counts[name] <= defined[name])
    assert not uncalled, f"public APIs with no caller outside tests: {uncalled}"
