"""No public name of decint goes uncalled by the library without a reason.

A module-level public function or class, or a public method or property of
a public class, that nothing in src/ references outside its own definition
is a wrapper or twin that only tests and demos call. Each such name must be
listed below with the reason it stays; a new one fails the test until it
gains a caller, is deleted or is listed. References are matched by name (a
bare name or an attribute), so a method or attribute of the same name counts
as a reference, except that an attribute read off a public class by name,
`Class.method` or `module.Class.method`, counts for that class's method only.
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
    "circuit.Circuit.from_json": "documented circuit IR (README), round-trip tested",
    "css.build_family_rate_adjusted": "planned caller under ROADMAP item 2 (the Hamming family)",
    "gf2.row_space_contains": "test oracle: membership checks on logical operators",
    "interface.expected_output_tableau": "test oracle: the exact reference output of a Gamma pass",
    "noise.tail_bound": "paper definition shown by demo 02",
    "noise.tail_bound_dominates": "paper definition shown by demo 02",
    "scheduler.roundtrip_from_block_plans": "paper definition shown by demo 04",
    "tableau.Tableau.expectation_z": "test oracle: the sign of a stabilizer in an exact state",
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
