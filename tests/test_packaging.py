import ast
import dataclasses
import importlib
import pkgutil
import re
import tomllib
from pathlib import Path

import shapefit
from shapefit import fields


def test_console_scripts_import():
    # every declared console script must resolve to a callable
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    for target in scripts.values():
        module, attr = target.split(":")
        assert callable(getattr(importlib.import_module(module), attr))


ROOT = Path(__file__).parents[1]


def _references(tree, skip=None):
    """Names a module uses, outside the definition `skip` and `__all__`, as
    (loaded names, attribute names). Attribute names include the parts of
    dotted-identifier strings (how perfbench's tracer names the functions it
    wraps). A function or class counts as used through either set, a method
    only through the second, so a local variable or parameter that shares a
    public name does not hide it."""
    names, attrs = set(), set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip or (
            isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        ):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
                attrs.update(node.value.split("."))
        stack.extend(ast.iter_child_nodes(node))
    return names, attrs


def _definitions(tree):
    """(name, node) of each module-level function, class and constant (an
    assignment to a name), public or private but not a dunder, and of each
    public method of a public class as "Class.method"."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield target.id, node
            continue
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("__"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def test_public_names_have_a_caller():
    # every public function, class, method and constant of the package, and
    # every private module-level one, is used by the package itself or by
    # the benchmark, not only by tests
    modules = {
        p: ast.parse(p.read_text())
        for p in sorted((ROOT / "src" / "shapefit").rglob("*.py"))
        if p.name != "_mc_tables.py"
    }
    bench = [
        _references(ast.parse(p.read_text()))
        for p in sorted((ROOT / "perfbench").glob("*.py"))
        if not p.name.startswith("test_")
    ]
    refs = {path: _references(tree) for path, tree in modules.items()}
    unused = []
    for path, tree in modules.items():
        elsewhere = bench + [r for p, r in refs.items() if p != path]
        for qualname, node in _definitions(tree):
            is_method = "." in qualname
            name = qualname.rpartition(".")[2]
            uses = [*elsewhere, _references(tree, skip=node)]
            if any(name in attrs or (not is_method and name in names) for names, attrs in uses):
                continue
            unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {qualname}")
    assert not unused, "names with no caller outside tests: " + ", ".join(unused)


def _defaults(tree):
    """(callee, parameter, index) of each default of a module: a parameter
    with a default of a function or method, and a field with a default or
    default_factory of a dataclass. `callee` is the name a call uses (the
    function's, the method's or the dataclass's), and `index` the position
    of a positional argument that fills it, counting fields in declaration
    order and skipping `self`; None for a keyword-only parameter."""
    stack = [(tree, False)]
    while stack:
        node, in_class = stack.pop()
        stack.extend((child, isinstance(node, ast.ClassDef)) for child in ast.iter_child_nodes(node))
        if isinstance(node, ast.ClassDef) and any(
            "dataclass" in (getattr(d, "id", None), getattr(getattr(d, "func", None), "id", None))
            for d in node.decorator_list
        ):
            fields = [f for f in node.body if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
            yield from ((node.name, f.target.id, i) for i, f in enumerate(fields) if f.value is not None)
        elif isinstance(node, ast.FunctionDef):
            args = node.args
            positional = args.posonlyargs + args.args
            if in_class and "staticmethod" not in [getattr(d, "id", None) for d in node.decorator_list]:
                positional = positional[1:]
            first = len(positional) - len(args.defaults)
            yield from ((node.name, a.arg, first + i) for i, a in enumerate(positional[first:]))
            yield from ((node.name, a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d)


def test_every_default_is_set_by_a_caller():
    # a default that no call of the package or the benchmark overrides is a
    # setting only tests vary: its other path serves no caller
    modules = {p: ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "shapefit").rglob("*.py"))}
    callers = [*modules.values(), *(ast.parse(p.read_text()) for p in sorted((ROOT / "perfbench").glob("*.py"))
                                    if not p.name.startswith("test_"))]
    calls, unpacked = {}, set()  # callee -> [(positional count, keywords, unpacks a mapping)]
    for node in (n for tree in callers for n in ast.walk(tree) if isinstance(n, ast.Call)):
        callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        keywords = {k.arg for k in node.keywords}
        if callee == "dict":  # a mapping that a caller may unpack into a call with **
            unpacked |= keywords
        positional = sum(not isinstance(a, ast.Starred) for a in node.args)
        calls.setdefault(callee, []).append((positional, keywords, None in keywords))
    unset = [
        f"{path.relative_to(ROOT)} {callee}.{param}"
        for path, tree in modules.items()
        for callee, param, index in _defaults(tree)
        if not any(param in keywords or (index is not None and positional > index) or (unpacks and param in unpacked)
                   for positional, keywords, unpacks in calls.get(callee, []))
    ]
    assert not unset, "defaults that no caller outside tests sets: " + ", ".join(unset)


def test_only_errors_checks_array_shapes():
    # errors.check_shape and errors.check_cloud own every shape check and
    # its message; a hand-written copy elsewhere drifts from them
    pattern = re.compile(r"\.ndim\s*!=|\.shape\s*!=|shape\[1\]\s*!=")
    hits = [
        f"{p.relative_to(ROOT)}:{i} {line.strip()}"
        for p in sorted((ROOT / "src" / "shapefit").rglob("*.py"))
        if p.name != "errors.py"
        for i, line in enumerate(p.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert not hits, "hand-written shape checks outside errors.py: " + ", ".join(hits)


def test_only_errors_refuses_non_finite_arguments():
    # errors.check_finite_array owns the rule that an array argument is
    # finite and its message, which names the first bad index; a hand-written
    # refusal elsewhere names no index, or blames the wrong argument
    hits = [
        f"{p.relative_to(ROOT)}:{i} {line.strip()}"
        for p in sorted((ROOT / "src" / "shapefit").rglob("*.py"))
        if p.name != "errors.py"
        for i, line in enumerate(p.read_text().splitlines(), 1)
        if "non-finite entries" in line
    ]
    assert not hits, "non-finite refusals outside errors.py: " + ", ".join(hits)


def test_records_and_pose_are_valid_when_built():
    # settings and data records, networks, the prior, shapes and their
    # primitives check themselves when built, so no consumer re-checks them;
    # a mutable record or a validate() method would bring the re-checks back
    modules = [importlib.import_module(m.name) for m in pkgutil.walk_packages(shapefit.__path__, "shapefit.")]
    records = sorted(
        {cls for mod in modules for cls in vars(mod).values()
         if isinstance(cls, type) and dataclasses.is_dataclass(cls) and cls.__module__ == mod.__name__},
        key=lambda cls: cls.__name__,
    )
    assert {"MLPParams", "ShapePrior", "NoisyOracleEstimator", "Pose", "Ellipsoid"} <= {c.__name__ for c in records}
    assert [cls.__name__ for cls in records if not cls.__dataclass_params__.frozen] == []
    # ReconstructionResult and TriangleMesh keep validate(), which the
    # benchmark calls on each output
    checks = ("validate", "validate_unit_cube")
    assert [cls.__name__ for cls in records if any(hasattr(cls, c) for c in checks)] == [
        "ReconstructionResult", "TriangleMesh"]


def test_only_fields_names_prior_arrays():
    # fields.named_arrays owns the names of a prior's arrays, which are the
    # optimizer's keys and the checkpoint's sections; a name formatted
    # elsewhere drifts from them
    prefix = re.compile(r"(template|hyper|latent)\.")
    hits = set()
    for p in sorted((ROOT / "src" / "shapefit").rglob("*.py")):
        if p.name == "fields.py":
            continue
        for node in ast.walk(ast.parse(p.read_text())):
            lead = node.values[0] if isinstance(node, ast.JoinedStr) and node.values else node
            if isinstance(lead, ast.Constant) and isinstance(lead.value, str) and prefix.match(lead.value):
                hits.add(f"{p.relative_to(ROOT)}:{node.lineno}")
    assert not hits, "prior array names formatted outside fields.py: " + ", ".join(sorted(hits))


def test_only_fields_runs_the_hypernetworks():
    # fields.compose_forward runs the hypernetworks forward, and
    # fields.hyper_backward, which the two objectives call with latents and
    # the deformation adjoints compose_backward returns, runs them in
    # reverse; no caller elsewhere runs them forward itself or reads a
    # ComposedEval's private fields (the prior, the predicted net, the
    # caches), so no cache crosses a module boundary
    private = [f.name for f in dataclasses.fields(fields.ComposedEval) if f.name.startswith("_")]
    name = re.compile(r"\bhyper_forward\b|\.(" + "|".join(private) + r")\b")
    backward = re.compile(r"\bhyper_backward\b")
    hits = [
        f"{p.relative_to(ROOT)}:{i}"
        for p in sorted((ROOT / "src" / "shapefit").rglob("*.py"))
        if p.name != "fields.py"
        for i, line in enumerate(p.read_text().splitlines(), 1)
        if name.search(line) or (p.name not in ("training.py", "inference.py") and backward.search(line))
    ]
    assert not hits, "hypernetworks or ComposedEval internals referenced outside fields.py: " + ", ".join(hits)
    for module in ("training.py", "inference.py"):
        assert backward.search((ROOT / "src" / "shapefit" / module).read_text()), module


def test_only_the_fit_names_rot6d():
    # a Pose is a rotation matrix and a translation; the 6D parametrization
    # is the one joint_optimize steps, so only geometry (its Gram-Schmidt and
    # the Pose.rot6d view) and inference (the fit) name it
    hits = [
        f"{p.relative_to(ROOT)}:{i}"
        for p in sorted((ROOT / "src" / "shapefit").rglob("*.py"))
        if p.name not in ("geometry.py", "inference.py")
        for i, line in enumerate(p.read_text().splitlines(), 1)
        if "rot6d" in line
    ]
    assert not hits, "rot6d named outside geometry.py and inference.py: " + ", ".join(hits)


def test_only_autodiff_knows_the_sine_frequency():
    # every sine layer runs at autodiff.OMEGA0; a frequency threaded through
    # another module (a field, an argument, a checkpoint key) is a setting
    # that no caller varies, and a saved one can disagree with the code
    name_field = {ast.Name: "id", ast.Attribute: "attr", ast.arg: "arg", ast.keyword: "arg"}
    hits = set()
    for p in sorted((ROOT / "src" / "shapefit").rglob("*.py")):
        if p.name == "autodiff.py":
            continue
        for node in ast.walk(ast.parse(p.read_text())):
            name = getattr(node, name_field[type(node)]) if type(node) in name_field else None
            if name and "omega" in name.lower():
                hits.add(f"{p.relative_to(ROOT)}:{node.lineno} {name}")
    assert not hits, "sine frequency named outside autodiff.py: " + ", ".join(sorted(hits))


def test_objectives_read_their_weight_tables():
    # training.shape_terms reads its category's row of training.TERM_WEIGHTS
    # and inference.view_terms reads inference.TERM_WEIGHTS; a weight
    # parameter is a setting that only an experiment or a test would vary.
    # The autodiff term helpers return unweighted adjoints, and
    # fields.weigh_terms, which is handed an objective's own row, weighs them
    hits = [
        f"{p.name}:{node.lineno} {getattr(node, 'name', 'lambda')}({arg.arg})"
        for p in (ROOT / "src" / "shapefit" / f"{m}.py" for m in ("autodiff", "training", "inference"))
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs,
                    *filter(None, (node.args.vararg, node.args.kwarg)))
        if "weight" in arg.arg
    ]
    assert not hits, "weight parameters in the objectives' modules: " + ", ".join(hits)


def test_autodiff_forms_sine_layers_from_one_tan():
    # a sine layer's sin and cos come from one np.tan of the half angle:
    # float64 np.sin and np.cos run scalar libm, about ten times slower
    tree = ast.parse((ROOT / "src" / "shapefit" / "autodiff.py").read_text())
    hits = [
        f"line {node.lineno} np.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("sin", "cos") and getattr(node.value, "id", None) == "np"
    ]
    assert not hits, "np.sin or np.cos in autodiff.py: " + ", ".join(hits)


def test_only_formats_touches_files():
    # formats checks every path before it opens a file (an int would be
    # opened as a file descriptor); a file opened elsewhere skips that check
    pattern = re.compile(r"\bopen\(|os\.fdopen|\btempfile\b|os\.replace")
    hits = [
        f"{p.relative_to(ROOT)}:{i} {line.strip()}"
        for p in sorted((ROOT / "src" / "shapefit").rglob("*.py"))
        if p.name != "formats.py"
        for i, line in enumerate(p.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert not hits, "files touched outside formats.py: " + ", ".join(hits)
