"""Public surface: every public function, class and method in the package has
a caller in the package itself, the demos or the benchmark, and so does every
parameter default of those functions and methods.  Every ExperimentConfig
field is read by the package.

An API or a knob that only its own tests use belongs with those tests.
References are NAME tokens, so a name in a string or a comment does not
count, and neither does a re-export from the package's __init__.
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
    """(qualified name, node) of each public module-level function and class,
    and of each public method of those classes."""
    tree = ast.parse(path.read_text())
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds) or node.name.startswith("_"):
            continue
        yield f"{path.stem}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds[:2]) and not item.name.startswith("_"):
                    yield f"{path.stem}.{node.name}.{item.name}", item


def _callee(func):
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def call_sites(sources):
    """(callee's bare name, positional argument count, keyword names) of each
    call in Python sources; functools.partial(f, ...) counts as a call of f."""
    for src in sources:
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.Call):
                name, args = _callee(node.func), node.args
                if name == "partial" and args:
                    name, args = _callee(args[0]), args[1:]
                yield name, len(args), {kw.arg for kw in node.keywords}


def defaulted_parameters(fn, method):
    """(name, positional index or None) of each parameter of fn with a default;
    a method's index counts from after self or cls."""
    a = fn.args
    pos = [p.arg for p in a.posonlyargs + a.args]
    if method and pos and pos[0] in ("self", "cls"):
        pos = pos[1:]
    for k in range(len(pos) - len(a.defaults), len(pos)):
        yield pos[k], k
    for p, default in zip(a.kwonlyargs, a.kw_defaults):
        if default is not None:
            yield p.arg, None


def config_fields():
    """Field names of harness.ExperimentConfig."""
    tree = ast.parse((PACKAGE / "harness.py").read_text())
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "ExperimentConfig")
    return [s.target.id for s in cls.body if isinstance(s, ast.AnnAssign)]


def config_reads(src):
    """Attribute names loaded through `cfg` anywhere, or through `self` inside
    the ExperimentConfig class, in a Python source."""
    tree = ast.parse(src)
    scopes = [(tree, "cfg")] + [(n, "self") for n in ast.walk(tree)
                               if isinstance(n, ast.ClassDef) and n.name == "ExperimentConfig"]
    return {node.attr for scope, owner in scopes for node in ast.walk(scope)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name) and node.value.id == owner}


def test_name_counts_skip_strings_and_comments():
    counts = name_counts([b'x = "flat_profile"  # flat_profile\ny = x\n'])
    assert counts["flat_profile"] == 0 and counts["x"] == 2


def test_every_public_api_has_a_caller():
    counts = name_counts(p.read_bytes() for p in caller_files())
    defs = [d for path in modules() for d in public_definitions(path)]
    # Each definition contributes one NAME token, the one after def/class.
    defined = Counter(node.name for _, node in defs)
    uncalled = sorted(qual for qual, node in defs if counts[node.name] <= defined[node.name])
    assert not uncalled, f"public APIs with no caller outside tests: {uncalled}"


def test_call_sites_read_positions_keywords_and_partial():
    src = b"f(1, 2, c=3)\nfunctools.partial(m.g, 1, d=2)\n"
    assert sorted(call_sites([src])) == [("f", 2, {"c"}), ("g", 1, {"d"})]
    fn = ast.parse("def h(self, a, b=1, *, c=2, d): pass").body[0]
    assert list(defaulted_parameters(fn, method=True)) == [("b", 1), ("c", None)]


def test_every_public_keyword_is_set_by_a_caller():
    # A default that no call overrides guards a branch only tests reach.
    # Calls match by bare name, as the caller test does.
    calls = list(call_sites(p.read_bytes() for p in caller_files()))
    unset = []
    for path in modules():
        for qual, node in public_definitions(path):
            if isinstance(node, ast.ClassDef):
                continue
            for param, index in defaulted_parameters(node, method=qual.count(".") == 2):
                if not any(name == node.name and (param in keywords or
                                                  index is not None and npos > index)
                           for name, npos, keywords in calls):
                    unset.append(f"{qual}({param}=)")
    assert not unset, f"public parameter defaults no call outside tests sets: {unset}"


def test_config_reads_skip_stores_and_other_objects():
    src = ("cfg.a = 1\nx = cfg.b + y.c + self.d\n"
           "class ExperimentConfig:\n    def f(self):\n        return self.e\n")
    assert config_reads(src) == {"b", "e"}


def test_every_config_field_is_read():
    # A config knob that nothing reads changes nothing but the report's echo.
    fields = config_fields()
    reads = set().union(*(config_reads(p.read_bytes()) for p in modules()))
    assert "kind" in fields and "record_runtime" in fields
    unread = [f for f in fields if f not in reads]
    assert not unread, f"ExperimentConfig fields no code in src/ reads: {unread}"
