"""Static checks on the package source."""

import ast
import pathlib

import entmono

SOURCE = pathlib.Path(entmono.__file__).parent


def _defined(stmt):
    """Names a module-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _used(node):
    """Names a node loads, directly or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) or isinstance(n, ast.Attribute)}


def test_every_private_module_name_is_used():
    private, used = {}, set()
    for path in sorted(SOURCE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            own = {name for name in _defined(stmt) if name.startswith("_") and not name.endswith("__")}
            private.update(dict.fromkeys(own, path.name))
            used |= _used(stmt) - own  # a recursive call does not count
    unused = sorted(f"{module}:{name}" for name, module in private.items() if name not in used)
    assert not unused, unused


def test_qstate_holds_the_one_qr():
    """Every Haar draw goes through ``qstate.haar_isometries``, the package's one QR."""
    sites = sorted(path.name for path in SOURCE.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.Attribute) and node.attr == "qr"
                   or isinstance(node, ast.alias) and node.name == "qr")
    assert sites == ["qstate.py"], sites


def test_qstate_holds_the_one_child_stream():
    """Every per-trial generator comes from ``qstate.child_generators``: no module spawns
    ``SeedSequence`` children of its own."""
    sites = sorted(path.name for path in SOURCE.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.Attribute) and node.attr == "spawn")
    assert sites == [], sites


def test_stack_spectra_holds_the_one_operator_validation():
    """The Hermiticity and trace tolerances are read only by ``qstate.stack_spectra``,
    which every operator check goes through."""
    sites = sorted(f"{path.name}:{getattr(stmt, 'name', '')}" for path in SOURCE.glob("*.py")
                   for stmt in ast.parse(path.read_text()).body
                   if _used(stmt) & {"HERM_TOL", "TRACE_TOL"})
    assert sites == ["qstate.py:stack_spectra"], sites


def test_zero_noise_holds_the_one_noise_floor():
    """The rank threshold is read only by ``qstate.zero_noise``, which ``Spectrum``, the
    eigen-ensemble of the roofs and bounds and the two spectrum-to-h kernels all call."""
    def sites(name):
        return sorted(f"{path.name}:{getattr(stmt, 'name', '')}" for path in SOURCE.glob("*.py")
                      for stmt in ast.parse(path.read_text()).body
                      if name in _used(stmt))

    assert sites("RANK_REL_TOL") == ["qstate.py:zero_noise"]
    assert sites("zero_noise") == ["qstate.py:Spectrum", "qstate.py:_eig_desc",
                                   "redfun.py:h_gradient_batch", "redfun.py:h_spectrum_batch"]


def test_the_roof_search_does_not_branch_on_the_reduced_function():
    """``convexroof.py`` names no ``HKind`` member and builds no ``ReducedFunctionSpec``: every
    roof that is not rank one or closed form runs one descent.  Its one kind-specific read is
    the closed-form gate ``CONVEX_IN_CONCURRENCE``."""
    tree = ast.parse((SOURCE / "convexroof.py").read_text())
    assert not {"HKind", "ReducedFunctionSpec", "kind"} & _used(tree)
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.module == "redfun" for alias in node.names}
    assert imported == {"CONVEX_IN_CONCURRENCE", "h_gradient_batch"}, imported


def test_per_kind_math_lives_in_the_kinds_table():
    """``h_spectrum_batch`` and ``h_gradient_batch`` name no ``HKind`` member but ``TANGLE``
    and ``CONCURRENCE``, for their two-level forms: every other kind is its ``_KINDS`` row."""
    named = {}
    for fn in ast.parse((SOURCE / "redfun.py").read_text()).body:
        if isinstance(fn, ast.FunctionDef) and fn.name in ("h_spectrum_batch", "h_gradient_batch"):
            named[fn.name] = {node.attr for node in ast.walk(fn) if isinstance(node, ast.Attribute)
                              and isinstance(node.value, ast.Name) and node.value.id == "HKind"}
    assert named == dict.fromkeys(("h_spectrum_batch", "h_gradient_batch"), {"TANGLE", "CONCURRENCE"}), named


def _call_sites(module: str, callees) -> dict:
    """Each callee's call sites in the module, as the dotted names of their enclosing scopes."""
    sites = {callee: [] for callee in callees}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, (*scope, child.name))
                continue
            if isinstance(child, ast.Call):
                for callee in sites.keys() & _used(child.func):
                    sites[callee].append(".".join(scope))
            visit(child, scope)

    visit(ast.parse((SOURCE / module).read_text()), ())
    return sites


def test_every_verify_roof_goes_through_the_valuation_memo():
    """``convex_roof`` and ``regroup`` are each called once in ``verify.py``, in the ``_Valuation``
    method that roofs a partition once per regrouped marginal: only a roof regroups.  Values and
    bounds of a pure state are read from its cover tables, so ``eigen_ensemble_value`` is not
    called."""
    sites = _call_sites("verify.py", ("convex_roof", "regroup", "eigen_ensemble_value"))
    assert sites == {"convex_roof": ["_Valuation._roof"], "regroup": ["_Valuation._roof"],
                     "eigen_ensemble_value": []}, sites


def test_every_private_class_field_is_read():
    """Each annotated field of a private class (``_CutPlan``, ``_Take``, ``_Valuation``) is loaded as an
    attribute somewhere in the package, so a field nothing reads cannot linger."""
    fields, read = {}, set()
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and node.name.startswith("_"):
                fields.update({f"{path.name}:{node.name}.{stmt.target.id}": stmt.target.id
                               for stmt in node.body
                               if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)})
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert {name.split(":")[1].split(".")[0] for name in fields} == {"_CutPlan", "_Take", "_Valuation"}
    unread = sorted(name for name, attr in fields.items() if attr not in read)
    assert not unread, unread


def test_the_pair_index_is_the_one_pair_enumeration():
    """``partitions._coarser_blocks`` is called once in ``verify.py``, by the cached ``_pair_index``
    the checkers read, so every check walks one enumeration of its coarsening pairs."""
    sites = [f"verify.py:{getattr(stmt, 'name', '')}"
             for stmt in ast.parse((SOURCE / "verify.py").read_text()).body for node in ast.walk(stmt)
             if isinstance(node, ast.Call) and "_coarser_blocks" in _used(node.func)]
    assert sites == ["verify.py:_pair_index"], sites


def test_comparison_objects_are_built_only_when_read():
    """``Comparison`` is constructed once in ``verify.py``, in ``CheckReport.comparisons``: the
    checkers (``_monotone``, ``_monogamy_check`` and the rest) hold their comparisons as columns."""
    sites = _call_sites("verify.py", ("Comparison",))
    assert sites == {"Comparison": ["CheckReport.comparisons"]}, sites


def test_the_screen_is_the_one_pair_screen():
    """``_pair_index`` and ``_Valuation.bounds`` are each called once in ``verify.py``, in
    ``_screen``: both array checkers value their pairs, bound first, through one screen."""
    sites = _call_sites("verify.py", ("_pair_index", "bounds"))
    assert sites == {"_pair_index": ["_screen"], "bounds": ["_screen"]}, sites
