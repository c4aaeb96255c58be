"""Guards on the library surface: every public module-level function,
class or constant in `src/smmfit` has a library caller or reader, a
README entry as `module.name` or a perfbench probe wrapper, every
callable the probe wraps exists, the numpy-only modules import nothing
from the tape engine, netparam uses only its numpy helpers, and training
imports netparam's blocks but not its packing and Gram helpers."""

import ast
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


def test_mechanics_integrators_and_smoother_run_without_the_tape():
    # the simulator and the smoother are plain numpy; netparam's net
    # blocks use only diffcore's numpy helpers and its error type, and
    # only training (and expcli over it) builds tapes
    for mod in ("mechanics", "integrators", "smoother"):
        assert "diffcore" not in smmfit_imports(mod), mod
    assert "diffcore" in smmfit_imports("training")
    tree = ast.parse((ROOT / "src" / "smmfit" / "netparam.py").read_text())
    used = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and getattr(node.value, "id", None) == "dc"}
    helpers = {"_exp_np", "_reciprocal_np", "_softplus_np", "_sigmoid_np",
               "_unbroadcast", "DiffcoreError"}
    assert used and used <= helpers, used - helpers
    assert smmfit_imports("netparam") == {"diffcore", "mechanics"}


def test_training_reads_the_mass_matrix_only_through_mass_t():
    # netparam alone forms M(q) and ∂M from the mass net's packed factor:
    # training imports none of the packing and Gram helpers, and every
    # name perfbench wraps at training stays imported there
    tree = ast.parse((ROOT / "src" / "smmfit" / "training.py").read_text())
    names = {a.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "netparam"
             for a in node.names}
    assert names == {"FlatParams", "chol_solve_t", "force_t", "gram",
                     "mass_entries_t", "mass_t", "potential_grad_t",
                     "transposed"}
