"""Everything public in src/levylab has a use outside tests: every public
top-level name has a caller, every defaulted parameter of a public function,
method or dataclass is passed by some caller and left out by another, every
dataclass field is read, and so is every key a library function puts in the
dict it returns.  Callers and readers are src/levylab and levybench."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "levylab"
FILES = sorted(SRC.glob("*.py")) + sorted((ROOT / "levybench").glob("*.py"))
TREES = {p: ast.parse(p.read_text()) for p in FILES}

# `levylab run` reads sys.argv; the argument is for callers with their own argv
UNPASSED = {"cli.main(argv)"}


def _used(node) -> set[str]:
    """Names, attributes and imported names referenced in code, not prose."""
    return {
        getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "name", None)
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
    }


def test_every_public_name_has_a_caller():
    trees = {p: tree for p, tree in TREES.items() if p.name != "__init__.py"}
    used = {(p, i): _used(n) for p, tree in trees.items() for i, n in enumerate(tree.body)}
    orphans = []
    for path, i in used:
        node = trees[path].body[i]
        public = isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_"
        if path.parent != SRC or not public:
            continue
        if not any(node.name in names for key, names in used.items() if key != (path, i)):
            orphans.append(f"{path.stem}.{node.name}")
    assert orphans == [], f"called only from tests: {orphans}"


def _is_dataclass(node) -> bool:
    decorators = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return any(getattr(d, "id", None) == "dataclass" for d in decorators)


def _fields(cls) -> list:
    return [
        s for s in cls.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
    ]


def _dataclasses():
    """(module, class node) of every dataclass in src/levylab."""
    for path in FILES:
        if path.parent == SRC:
            for node in TREES[path].body:
                if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                    yield path.stem, node


def _signature(fn, skip):
    """(positional parameter names after the first `skip`, defaulted names)."""
    a = fn.args
    params = a.posonlyargs + a.args
    defaulted = {p.arg for p in params[len(params) - len(a.defaults) :]}
    defaulted |= {p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None}
    return [p.arg for p in params][skip:], defaulted


def _callables():
    """(label, call name, positional parameters, defaulted parameters) of
    every public function, method and dataclass constructor in src/levylab;
    a method's positional parameters leave out self or cls (src/levylab has
    no static methods)."""
    for path in FILES:
        if path.parent != SRC:
            continue
        for node in TREES[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            label = f"{path.stem}.{node.name}"
            if isinstance(node, ast.FunctionDef):
                yield (label, node.name, *_signature(node, 0))
                continue
            if _is_dataclass(node):
                fields = [f.target.id for f in _fields(node)]
                defaulted = {f.target.id for f in _fields(node) if f.value is not None}
                yield label, node.name, fields, defaulted
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and fn.name[0] != "_":
                    yield (f"{label}.{fn.name}", fn.name, *_signature(fn, 1))


def _parameter_keys() -> int:
    """Names in suite.PARAMETERS, the experiment keys a config may set."""
    (table,) = (
        node.value
        for node in TREES[SRC / "suite.py"].body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "PARAMETERS"
    )
    return sum(len(keys.keys) for keys in table.values)


def counts() -> dict:
    """The three sizes that the guards below check, and the experiment keys
    a config may set, for the CI job summary; read from the source, since CI
    counts before it installs the package."""
    return {
        "defaulted parameters": sum(len(defaulted) for *_, defaulted in _callables()),
        "dataclass fields": sum(len(_fields(cls)) for _, cls in _dataclasses()),
        "report keys": len(_written_keys()),
        "experiment parameter keys": _parameter_keys(),
    }


def _aliases() -> dict:
    """Other names a callable is called by: `import x as y`, `y = x`."""
    out = {}
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.alias) and node.asname:
                out[node.asname] = node.name.rsplit(".", 1)[-1]
        for node in tree.body:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, (ast.Name, ast.Attribute))
            ):
                value = node.value
                out[node.targets[0].id] = getattr(value, "id", None) or value.attr
    return out


def _calls() -> dict:
    """Call name -> (keywords passed, positional count; None when starred)
    of each call."""
    aliases, out = _aliases(), {}
    for tree in TREES.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            out.setdefault(aliases.get(name, name), []).append(
                ({k.arg for k in call.keywords}, None if starred else len(call.args))
            )
    return out


def _passes(call, p, positional) -> bool:
    """Whether a call passes parameter p; `**kwargs` or `*args` may pass any."""
    keywords, count = call
    by_position = p in positional and (count is None or positional.index(p) < count)
    return None in keywords or p in keywords or by_position


def test_every_defaulted_parameter_is_passed():
    """A default that no caller overrides is a constant: the parameter goes."""
    calls, unpassed = _calls(), []
    for label, name, positional, defaulted in _callables():
        for p in sorted(defaulted):
            if not any(_passes(c, p, positional) for c in calls.get(name, [])):
                unpassed.append(f"{label}({p})")
    missing = sorted(set(unpassed) - UNPASSED)
    assert missing == [], f"defaulted parameters no caller passes: {missing}"
    assert set(unpassed) >= UNPASSED, f"exceptions no longer needed: {UNPASSED - set(unpassed)}"


def test_no_defaulted_parameter_is_passed_by_every_caller():
    """A default that every caller overrides is never taken: the parameter
    is required."""
    calls, always = _calls(), []
    for label, name, positional, defaulted in _callables():
        sites = calls.get(name, [])
        for p in sorted(defaulted):
            if sites and all(_passes(c, p, positional) for c in sites):
                always.append(f"{label}({p})")
    assert always == [], f"defaulted parameters every caller passes: {always}"


def _reads() -> set:
    """(class or None, attribute) of every attribute read.  The class is
    known for `self.a` in a method and for `p.a` with p annotated by a class;
    None stands for any class."""
    classes = {node.name for _, node in _dataclasses()}
    out = set()

    def visit(node, cls, annotated):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            a = node.args
            annotated = dict(annotated)
            for i, p in enumerate(a.posonlyargs + a.args + a.kwonlyargs):
                ann = getattr(p, "annotation", None)
                hint = getattr(ann, "id", None) or getattr(ann, "value", None)
                if i == 0 and p.arg == "self" and cls:
                    annotated["self"] = cls
                elif hint in classes:
                    annotated[p.arg] = hint
                else:
                    annotated.pop(p.arg, None)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            receiver = getattr(node.value, "id", None)
            out.add((annotated.get(receiver), node.attr))
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "getattr"
            and isinstance(node.args[1], ast.Constant)
        ):
            out.add((None, node.args[1].value))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, annotated)

    for tree in TREES.values():
        visit(tree, None, {})
    return out


def test_every_dataclass_field_is_read():
    """A field that nothing outside tests reads is dead state: it goes."""
    reads = _reads()
    unread = [
        f"{module}.{cls.name}.{f.target.id}"
        for module, cls in _dataclasses()
        for f in _fields(cls)
        if (None, f.target.id) not in reads and (cls.name, f.target.id) not in reads
    ]
    assert unread == [], f"dataclass fields nothing reads: {unread}"


# dicts that are output, not reports: the harness writes its dicts to the
# run's files, and suite's rows are the CSV's rows
_OUTPUT_MODULES = {"harness", "suite"}


def _key(node):
    """The string of a constant string key, else None."""
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None


def _functions(path):
    """(label, node) of every top-level function and method of a module;
    a nested function belongs to the one around it."""
    for node in TREES[path].body:
        if isinstance(node, ast.FunctionDef):
            yield f"{path.stem}.{node.name}", node
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    yield f"{path.stem}.{node.name}.{fn.name}", fn


def _written_keys() -> set:
    """(function, key) of every constant string key that a function of
    src/levylab puts into a dict: a dict display, a `dict(...)` keyword or
    a subscript store."""
    out = set()
    for path in FILES:
        if path.parent != SRC or path.stem in _OUTPUT_MODULES:
            continue
        for label, fn in _functions(path):
            for node in ast.walk(fn):
                if isinstance(node, ast.Dict):
                    keys = [_key(k) for k in node.keys if k is not None]
                elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict":
                    keys = [k.arg for k in node.keywords]
                elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                    keys = [_key(node.slice)]
                else:
                    continue
                out |= {(label, k) for k in keys if k is not None}
    return out


def _read_keys() -> set:
    """Every constant string read by a subscript load or a `.get`."""
    out = set()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
                out.add(_key(node.slice))
            elif (
                isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "get"
                and node.args
            ):
                out.add(_key(node.args[0]))
    return out - {None}


def test_every_report_key_is_read():
    """A key that nothing outside tests reads is dead output: it goes."""
    reads = _read_keys()
    unread = sorted(f"{label}[{key!r}]" for label, key in _written_keys() if key not in reads)
    assert unread == [], f"report keys nothing reads: {unread}"
