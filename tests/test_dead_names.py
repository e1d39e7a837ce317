"""No public name or default of decint goes unused by the library without a reason.

A module-level public function or class, or a public method or property of
a public class, that nothing in src/ references outside its own definition
is a wrapper or twin that only tests and demos call. Each such name must be
listed below with the reason it stays; a new one fails the test until it
gains a caller, is deleted or is listed. References are matched by name (a
bare name or an attribute), so a method or attribute of the same name counts
as a reference, except that an attribute read off a public class by name,
`Class.method` or `module.Class.method`, counts for that class's method only.

Likewise a parameter with a default, on a public function, a public method
or the constructor of a public class, that no call in src/ passes, by
position or by keyword, is an option only tests and demos set; it must be
listed with its reason. Calls are matched by the called name, and a
constructor's parameters through calls of the class name.
"""

import ast
import pathlib

import decint

SRC = pathlib.Path(decint.__file__).parent

ALLOWED = {
    "blocktree.TreeParams.from_floats": "paper definition shown by demo 05",
    "blocktree.brute_force_inclusion": "test oracle: enumeration reference for exact_inclusion",
    "blocktree.chain_rule_probability": "test oracle: the chain-rule pattern law sampled frequencies are checked against",
    "blocktree.f_of_v": "paper definition shown by demo 05",
    "blocktree.partitions_leaf_set": "paper definition shown by demo 05",
    "circuit.Circuit.n_locations": "read by the benchmark tracer's circuit.location_trials counter (perfbench/)",
    "css.CssCode.x_stabilizer_basis": "test oracle: the stabilizers of the coset-search references, shown by demo 01",
    "css.CssCode.z_stabilizer_basis": "test oracle: the stabilizers of the coset-search references, shown by demo 01",
    "css.build_family_rate_adjusted": "planned caller under ROADMAP item 2 (the Hamming family)",
    "gf2.coset_min_weight": "test oracle: the coset search the coset tables of classify_gamma_output are checked against, shown by demo 01",
    "gf2.row_space_contains": "test oracle: membership checks on logical operators",
    "interface.expected_output_tableau": "test oracle: the exact reference output of a Gamma pass",
    "noise.tail_bound": "paper definition shown by demo 02",
    "noise.tail_bound_dominates": "paper definition shown by demo 02",
    "scheduler.InterfaceSchedule.output_blocks": "shown by demo 04; tests pin it to the outputs e2e writes",
    "tableau.random_stabilizer_state": "test oracle: random logical inputs for the exactness tests",
}


def _public(body) -> list:
    return [d for d in body if isinstance(d, (ast.FunctionDef, ast.ClassDef)) and not d.name.startswith("_")]


def _class_name(node: ast.AST):
    """The class a `Class` or `module.Class` expression names, else None."""
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def unreferenced_names() -> set[str]:
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    classes = {d.name for tree in trees.values() for d in _public(tree.body) if isinstance(d, ast.ClassDef)}
    refs: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                owner = _class_name(node.value)
                key = f"{owner}.{node.attr}" if owner in classes else node.attr
                refs.setdefault(key, []).append(node)

    dead = set()
    for mod, tree in trees.items():
        for d in _public(tree.body):
            members = [(f"{d.name}.{m.name}", m) for m in _public(d.body)] if isinstance(d, ast.ClassDef) else []
            for name, node in [(d.name, d), *members]:
                own = {id(n) for n in ast.walk(node)}
                uses = refs.get(node.name, []) + (refs.get(name, []) if node is not d else [])
                if all(id(n) in own for n in uses):
                    dead.add(f"{mod}.{name}")
    return dead


def test_every_uncalled_public_name_is_allowed():
    dead = unreferenced_names()
    new = sorted(dead - ALLOWED.keys())
    assert not new, f"public names with no caller in src/ (delete them, call them or list them): {new}"
    stale = sorted(ALLOWED.keys() - dead)
    assert not stale, f"listed names that now have a caller in src/: {stale}"


# -- parameters with defaults that no call in src/ passes ----------------------------

ALLOWED_DEFAULTS = {
    "circuit.FrameRunner.run(forced_faults)": "census API of ROADMAP item 1: single faults forced per location (TestCrossValidation)",
    "circuit.run_noisy(faults)": "census API of ROADMAP item 1: the same faults on the exact oracle (TestCrossValidation)",
    "cli.main(argv)": "the console script passes none; tests and the benchmark probe run commands in-process",
    "css.build_family_rate_adjusted(beta)": "planned caller under ROADMAP item 2 (the Hamming family)",
    "css.build_family_rate_adjusted(provenance)": "planned caller under ROADMAP item 2 (the Hamming family)",
    "e2e.run_e2e_frames(chunk_size)": "tests pin how chunks split and sum the trials",
    "interface.estimate_tau(chunk_size)": "tests pin how chunks split and sum the trials",
    "interface.gamma_frames(input_frames)": "test oracle: injected input errors on a lone Gamma pass",
    "interface.wilson_interval(z)": "tests compare streams at 99.9% (z = 3.29)",
    "tableau.random_stabilizer_state(moves)": "test oracle: short random walks for small logical inputs",
}


def _defaults(fn: ast.FunctionDef, method: bool) -> list[tuple[str, object]]:
    """(name, position) of each parameter of `fn` with a default; the position
    counts from the first argument a call passes, None for keyword-only."""
    positional = fn.args.posonlyargs + fn.args.args
    if method and not any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list):
        positional = positional[1:]  # self or cls
    first = len(positional) - len(fn.args.defaults)
    out = [(a.arg, first + i) for i, a in enumerate(positional[first:])]
    return out + [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]


def _signatures(mod: str, tree: ast.Module):
    """(label, called name, definition, defaults) of every public function,
    public method and constructor of a public class. A constructor, `__init__`,
    `__new__` or the defaulted fields of a NamedTuple, is called by the class name."""
    for d in _public(tree.body):
        if isinstance(d, ast.FunctionDef):
            yield f"{mod}.{d.name}", d.name, d, _defaults(d, False)
            continue
        fields = [s for s in d.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
        if any(s.value is not None for s in fields):
            params = [(s.target.id, i) for i, s in enumerate(fields) if s.value is not None]
            yield f"{mod}.{d.name}", d.name, d, params
        for m in d.body:
            if isinstance(m, ast.FunctionDef) and m.name in ("__init__", "__new__"):
                yield f"{mod}.{d.name}", d.name, m, _defaults(m, True)
            elif isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                yield f"{mod}.{d.name}.{m.name}", m.name, m, _defaults(m, True)


def unpassed_defaults() -> set[str]:
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _class_name(node.func):
                calls.setdefault(_class_name(node.func), []).append(node)

    unpassed = set()
    for mod, tree in trees.items():
        for label, name, node, params in _signatures(mod, tree):
            own = {id(n) for n in ast.walk(node)}
            sites = [c for c in calls.get(name, []) if id(c) not in own]
            for param, pos in params:
                passed = any(
                    any(k.arg in (param, None) for k in c.keywords)
                    or (pos is not None and (len(c.args) > pos or any(isinstance(a, ast.Starred) for a in c.args)))
                    for c in sites
                )
                if not passed:
                    unpassed.add(f"{label}({param})")
    return unpassed


def test_every_unpassed_default_is_allowed():
    unpassed = unpassed_defaults()
    new = sorted(unpassed - ALLOWED_DEFAULTS.keys())
    assert not new, f"defaults no call in src/ overrides (delete the parameter, pass it or list it): {new}"
    stale = sorted(ALLOWED_DEFAULTS.keys() - unpassed)
    assert not stale, f"listed defaults that a call in src/ now passes: {stale}"
