"""Every public function, class, method and property in the package has a
caller in the package itself, or a stated reason to exist without one, and
every public attribute a class sets on `self` has a reader there."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "chain2sim"

# Public names that nothing in src/ calls, each with the reason it stays.
ALLOWED = {
    "Device.estimate_cost": "documented: the README's device estimates cost from the "
    "tariff (keeps DeviceConfig.tariff and the feed-in price)",
    "CostEstimate.coverage": "part of the documented cost estimate",
    "describe_frame": "writes the text format of tests/data/golden_frames.txt",
    "frame_from_description": "reads the text format of tests/data/golden_frames.txt",
    "validate_dataset": "the catalogue invariants that acceptance criterion 11 checks",
    "profile_to_csv": "the only writer of the profile CSV format that profile_from_csv reads",
    "Device.high_water_seq": "dedup state that the property tests read",
    "Meter.cut_deadline": "countdown state that the property tests read",
    "Meter.emergency_limit_w": "emergency-limit state that the property tests read",
    "Portal.admits": "resolved by name by the benchmark's tracer (perfbench/tracer.py)",
    "Portal.activate_due": "the documented pending -> active step of the pairing lifecycle; "
    "writes the `activate` entry that replay_log reads",
}


def _chain2sim_modules(tree: ast.Module) -> set[str]:
    """The names a module binds to a chain2sim module, by
    `from chain2sim import name [as alias]`."""
    return {
        alias.asname or alias.name
        for sub in ast.walk(tree)
        if isinstance(sub, ast.ImportFrom) and sub.module == "chain2sim"
        for alias in sub.names
        if (SRC / f"{alias.name}.py").exists()
    }


def _uses(node: ast.AST, modules: set[str]) -> tuple[Counter, Counter]:
    """The names the code under `node` reads: as attributes (`x.name`), and
    bare, imported or through a chain2sim module (`name`, `from m import
    name`, `frames.name` where `modules` holds `frames`).  A name only
    assigned, such as a dataclass field declared as `name: int`, is not a
    use."""
    attributes: Counter = Counter()
    bare: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            attributes[sub.attr] += 1
            if isinstance(sub.value, ast.Name) and sub.value.id in modules:
                bare[sub.attr] += 1
        elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            bare[sub.id] += 1
        elif isinstance(sub, ast.alias):
            bare[sub.name] += 1
    return attributes, bare


def _public_definitions(tree: ast.Module):
    """(qualified name, is a method, node) of each module-level public
    function and class, and each public method and property of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, False, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", True, item


def _public_attributes(tree: ast.Module):
    """`Class.name` of each public `self.name` that a method of a public
    class assigns."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                    and not sub.attr.startswith("_")
                ):
                    yield f"{node.name}.{sub.attr}", sub.attr


def _uncalled() -> set[str]:
    """Public names with no use in src/ outside their own definition, and
    public attributes assigned on `self` that nothing in src/ reads.  A
    method or attribute counts as used only through an attribute, so a
    local variable of the same name does not hide it; a module-level name
    only bare, imported or through a chain2sim module, so an attribute of
    the same name on some other object does not hide it either."""
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))]
    trees = [(tree, _chain2sim_modules(tree)) for tree in trees]
    attributes, bare = Counter(), Counter()
    for tree, modules in trees:
        a, b = _uses(tree, modules)
        attributes, bare = attributes + a, bare + b
    uncalled = set()
    for tree, modules in trees:
        for qualified, is_method, node in _public_definitions(tree):
            own_attributes, own_bare = _uses(node, modules)
            name = node.name
            if is_method:
                uses = attributes[name] - own_attributes[name]
            else:
                uses = bare[name] - own_bare[name]
            if uses <= 0:
                uncalled.add(qualified)
        for qualified, name in _public_attributes(tree):
            if attributes[name] == 0:
                uncalled.add(qualified)
    return uncalled


def test_every_public_name_has_a_caller_or_a_reason():
    uncalled = _uncalled()
    assert sorted(uncalled - ALLOWED.keys()) == [], "delete these, or give them a caller"
    # An entry that gained a caller or no longer exists must leave the list.
    assert sorted(ALLOWED.keys() - uncalled) == [], "stale allowlist entries"
