"""Guards on the library surface: every public module-level function,
class or constant in `src/smmfit` has a library caller or reader, a
README entry as `module.name` or a perfbench probe wrapper, every
optional parameter is passed by a library call, every dataclass
field with a default is set by library code outside its class, every
callable the probe wraps exists, only training imports the tape engine
and only its `_loss_grad` reads it, the engine's public names are
`Tape`, `Tensor` and `custom`, netparam imports only mechanics, the
tape's old error name is gone, training imports netparam's blocks but
not its packing and Gram helpers, and netparam calls none of numpy's
module-level reductions."""

import ast
import builtins
import dataclasses
import importlib.util
import re
from pathlib import Path

from smmfit import (diffcore, expcli, integrators, mechanics, netparam,
                    smoother, training)

ROOT = Path(__file__).resolve().parents[1]
MODS = dict(diffcore=diffcore, expcli=expcli, integrators=integrators,
            mechanics=mechanics, netparam=netparam, smoother=smoother,
            training=training)


def load_probe():
    spec = importlib.util.spec_from_file_location(
        "perfbench_probe", ROOT / "perfbench" / "probe.py")
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    return probe


def definitions_and_references():
    """Public module-level functions, classes and constants, and the
    (module, name) pairs library code reads outside their definitions."""
    defs, refs = set(), set()
    for path in (ROOT / "src" / "smmfit").glob("*.py"):
        mod = path.stem
        tree = ast.parse(path.read_text())
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module:  # from .module import name
                        refs.add((node.module, a.name))
                    else:  # from . import module as alias
                        aliases[a.asname or a.name] = a.name
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            if own and not own.startswith("_"):
                defs.add((mod, own))
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                defs |= {(mod, node.id) for node in ast.walk(stmt)
                         if isinstance(node, ast.Name)
                         and isinstance(node.ctx, ast.Store)
                         and not node.id.startswith("_")}
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and node.id != own \
                        and isinstance(node.ctx, ast.Load):
                    refs.add((mod, node.id))
                elif isinstance(node, ast.Attribute) \
                        and getattr(node.value, "id", None) in aliases:
                    refs.add((aliases[node.value.id], node.attr))
    return defs, refs


def test_every_public_name_has_a_library_caller():
    defs, refs = definitions_and_references()
    readme = set(re.findall(rf"\b({'|'.join(MODS)})\.(\w+)",
                            (ROOT / "README.md").read_text()))

    class Recorder:
        """Notes what the probe would wrap, and wraps nothing."""

        def __init__(self):
            self.wrapped = set()

        def wrap(self, owner, attr, name, before=None, after=None):
            obj = getattr(owner, attr)
            self.wrapped.add((obj.__module__.split(".")[-1],
                              obj.__qualname__))

    recorder = Recorder()
    load_probe().install(recorder, MODS, traced=True)
    unused = defs - refs - readme - recorder.wrapped
    assert sorted(f"{m}.{n}" for m, n in unused) == []


def optional_parameters(fn: ast.FunctionDef, method: bool) -> list:
    """(name, index among a call's positional arguments, or None when
    keyword-only) of each parameter of ``fn`` that has a default; a
    method's index does not count ``self``."""
    a = fn.args
    pos = a.posonlyargs + a.args
    first = len(pos) - len(a.defaults)
    return ([(p.arg, i - method) for i, p in enumerate(pos) if i >= first]
            + [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults)
               if d is not None])


def passes(call: ast.Call, name: str, index) -> bool:
    """Whether ``call`` may set the parameter ``name`` at ``index``."""
    return (any(k.arg in (name, None) for k in call.keywords)
            or any(isinstance(x, ast.Starred) for x in call.args)
            or (index is not None and len(call.args) > index))


def test_every_optional_parameter_has_a_library_caller():
    # a default is a second path through its function: some library call
    # must set each optional parameter, by keyword or position, or it is
    # a constant.  A call by name reaches the module-level functions and
    # methods of that name; a closure leaves its scope as a value, so a
    # call through a variable (a name no module binds at top level, and
    # no builtin) may reach any closure.  The interpreter, not the
    # library, calls `expcli.main` with its argv
    found, by_name, through_variables = [], {}, []
    for path in sorted((ROOT / "src" / "smmfit").glob("*.py")):
        tree = ast.parse(path.read_text())
        top = {n.id for stmt in tree.body for n in ast.walk(stmt)
               if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        top |= {getattr(stmt, "name", None) for stmt in tree.body}
        top |= {(a.asname or a.name).split(".")[0] for stmt in tree.body
                if isinstance(stmt, (ast.Import, ast.ImportFrom))
                for a in stmt.names}
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body if isinstance(f, ast.FunctionDef)}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                nested = node not in tree.body and id(node) not in methods
                found += [(path.stem, node.name, nested, p, i) for p, i in
                          optional_parameters(node, id(node) in methods)]
            elif isinstance(node, ast.Call):
                f = node.func
                if isinstance(f, ast.Attribute):
                    by_name.setdefault(f.attr, []).append(node)
                elif isinstance(f, ast.Name):
                    by_name.setdefault(f.id, []).append(node)
                    if f.id not in top and not hasattr(builtins, f.id):
                        through_variables.append(node)
    unset = sorted(f"{mod}.{fn}({p})" for mod, fn, nested, p, i in found
                   if (mod, fn, p) != ("expcli", "main", "argv")
                   and not any(passes(c, p, i) for c in by_name.get(fn, [])
                               + (through_variables if nested else [])))
    assert unset == []


class FieldSetters(ast.NodeVisitor):
    """What library code sets of dataclass fields, each with the class
    whose body it sits in (None outside every class): ``calls`` holds
    (class, called name, call), ``replaced`` (class, keyword) of each
    `replace` call, ``assigned`` (class, attribute) of each assignment
    or in-place update through an attribute, as ``x.f = ...``,
    ``x.f += ...``, ``x.f[i] = ...`` and ``x.f.append(...)``."""

    def __init__(self):
        self.owner = None
        self.calls, self.replaced, self.assigned = [], set(), set()

    def visit_ClassDef(self, node):
        outer, self.owner = self.owner, node.name
        self.generic_visit(node)
        self.owner = outer

    def visit_Call(self, node):
        f = node.func
        name = getattr(f, "attr", getattr(f, "id", None))
        self.calls.append((self.owner, name, node))
        if name == "replace":
            self.replaced |= {(self.owner, k.arg) for k in node.keywords}
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Attribute):
            self.assigned.add((self.owner, f.value.attr))
        self.generic_visit(node)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Store):
            self.assigned.add((self.owner, node.attr))
        self.generic_visit(node)

    def visit_Subscript(self, node):
        if isinstance(node.ctx, ast.Store) \
                and isinstance(node.value, ast.Attribute):
            self.assigned.add((self.owner, node.value.attr))
        self.generic_visit(node)


def test_every_defaulted_field_is_set_by_the_library():
    # a field's default is a constant unless some library code outside
    # its class sets the field: by a constructor argument (keyword,
    # position or **), by `replace(..., field=)`, or through an instance
    setters = FieldSetters()
    for path in sorted((ROOT / "src" / "smmfit").glob("*.py")):
        setters.visit(ast.parse(path.read_text()))
    classes = [cls for mod in MODS.values() for cls in vars(mod).values()
               if dataclasses.is_dataclass(cls)
               and cls.__module__ == mod.__name__]
    unset = []
    for cls in classes:
        own = cls.__name__
        named = {n for o, n in setters.replaced | setters.assigned
                 if o != own}
        calls = [c for o, name, c in setters.calls if name == own and o != own]
        init = [f.name for f in dataclasses.fields(cls) if f.init]
        for f in dataclasses.fields(cls):
            if f.default is dataclasses.MISSING \
                    and f.default_factory is dataclasses.MISSING:
                continue
            index = init.index(f.name) if f.name in init else None
            if f.name not in named \
                    and not any(passes(c, f.name, index) for c in calls):
                unset.append(f"{own}.{f.name}")
    assert sorted(unset) == []


def test_every_name_perfbench_wraps_exists():
    # the traced benchmark wraps these names at the attribute each caller
    # looks up; install raises AttributeError for one that is gone
    before = [dict(vars(m)) for m in (*MODS.values(), diffcore.Tape)]
    probe = load_probe()
    tracer = probe.Tracer()
    try:
        probe.install(tracer, MODS, traced=True)
    finally:
        tracer.restore()
    assert [dict(vars(m)) for m in (*MODS.values(), diffcore.Tape)] == before


def smmfit_imports(mod: str) -> set:
    """The smmfit modules that ``mod`` imports, by any import form."""
    tree = ast.parse((ROOT / "src" / "smmfit" / f"{mod}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = (node.module or "").removeprefix("smmfit").lstrip(".")
            if node.level == 1 or (node.module or "").startswith("smmfit"):
                found |= {base} if base else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {a.name.removeprefix("smmfit.") for a in node.names
                      if a.name.startswith("smmfit.")}
    return found


def test_only_the_loss_graphs_use_the_tape():
    # the simulator, the smoother and the model are plain numpy: netparam
    # holds the model's numerics and their error, and only training's
    # `_loss_grad` builds tapes, each a loss on its parameters' row
    users = {mod for mod in MODS if "diffcore" in smmfit_imports(mod)}
    assert users == {"training"}
    assert smmfit_imports("netparam") == {"mechanics"}
    tree = ast.parse((ROOT / "src" / "smmfit" / "training.py").read_text())
    readers = {stmt.name for stmt in tree.body for node in ast.walk(stmt)
               if isinstance(node, ast.Attribute)
               and getattr(node.value, "id", None) == "dc"}
    assert readers == {"_loss_grad"}


def test_the_tape_engine_is_tape_tensor_and_custom():
    # the loss arithmetic lives in training's stages; the engine keeps the
    # tape, its node type and the one operation a loss node needs
    defs, _ = definitions_and_references()
    assert {n for m, n in defs if m == "diffcore"} == {"Tape", "Tensor",
                                                       "custom"}


def test_the_tape_error_name_is_gone_without_an_alias():
    # the model's numerics raise netparam.ModelNumericsError; the tape's
    # old name (spelled in two parts here) is in no module, test or tool
    old = "Diffcore" "Error"
    for mod in MODS.values():
        assert not hasattr(mod, old), mod.__name__
    files = [*(ROOT / "src" / "smmfit").glob("*.py"),
             *(ROOT / "tests").glob("*.py"), *(ROOT / "tools").glob("*.py"),
             ROOT / "README.md"]
    assert [f.name for f in files if old in f.read_text()] == []


def test_training_reads_the_mass_matrix_only_through_mass_t():
    # netparam alone forms M(q) and ∂M from the mass net's packed factor:
    # training imports none of the packing and Gram helpers, and every
    # name perfbench wraps at training stays imported there
    tree = ast.parse((ROOT / "src" / "smmfit" / "training.py").read_text())
    names = {a.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "netparam"
             for a in node.names}
    assert names == {"FlatParams", "ModelNumericsError", "chol_solve_t",
                     "force_t", "gram", "mass_entries_t", "mass_t",
                     "potential_grad_t", "transposed"}


def test_netparam_calls_no_module_level_numpy_reduction():
    # every netparam function runs once or more per training step, where
    # np.sum / np.all / np.any / np.mean cost two to three times the
    # array methods (x.sum(), ...) for the same reduction and bits
    tree = ast.parse((ROOT / "src" / "smmfit" / "netparam.py").read_text())
    calls = sorted({node.func.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and getattr(node.func.value, "id", None) == "np"
                    and node.func.attr in ("sum", "all", "any", "mean")})
    assert calls == []
