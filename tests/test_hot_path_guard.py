"""Guard: no Enum class attribute read on the stepper's hot paths.

On Python 3.10 and 3.11 the Enum metaclass (``EnumMeta``/``EnumType``)
defines ``__getattr__``, so CPython sends every attribute read on an
Enum class — ``OpClass.LOAD``, ``Resource.IQ_FP``, ``BranchKind.CALL``
— through its slow getattr-hook path: about 0.2 µs a read on 3.11,
against about 0.02 µs for a module global (3.12 dropped the hook).  A
busy cycle runs these functions hundreds of thousands of times, so the
functions named below bind the members they need once, at module
level, or compare the precomputed ints ``StaticOp.iq``/``StaticOp.reg``::

    _LOAD = OpClass.LOAD          # module level: one slow read, at import

    def _issue_op(self, op, cycle):
        if op.op_class == _LOAD:  # a global load and an int comparison
            ...

Keyword arguments are also slow to construct with on 3.11 (a
``StaticOp`` built with keywords costs about twice the positional
call), so these functions build ``StaticOp`` and ``AccessResult``
positionally.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

ENUMS = {"OpClass", "Resource", "BranchKind"}
PER_OP_CLASSES = {"StaticOp", "AccessResult"}

#: Every per-cycle or per-op hook of :class:`repro.policies.base.Policy`.
POLICY_HOOKS = {
    "begin_cycle", "end_cycle", "fetch_order", "quiesce_horizon",
    "on_quiescent_skip", "may_rename", "on_rename", "on_commit",
    "on_load_issued", "on_l1d_miss", "on_l2_miss_detected", "on_l2_fill",
}

#: The hot functions outside the policy hooks, by module.
HOT_FUNCTIONS = {
    "pipeline/processor.py": [
        "SMTProcessor.step", "SMTProcessor._process_l2_detections",
        "SMTProcessor._writeback", "SMTProcessor._resolve_mispredict",
        "SMTProcessor.squash_after", "SMTProcessor._squash_op",
        "SMTProcessor._commit", "SMTProcessor._commit_op",
        "SMTProcessor._issue", "SMTProcessor._issue_op",
        "SMTProcessor._finish_issue", "SMTProcessor._make_waiter",
        "SMTProcessor._rename", "SMTProcessor._can_rename",
        "SMTProcessor._do_rename", "SMTProcessor._fetch",
        "SMTProcessor._fetch_thread",
    ],
    "pipeline/fastpath.py": ["run_fast", "quiescence_horizon"],
    "pipeline/resources.py": ["iq_for_class", "reg_for_dest"],
    "isa/instruction.py": ["StaticOp.__init__", "MicroOp.__init__"],
    "trace/generator.py": [
        "SyntheticTraceGenerator.next_op",
        "SyntheticTraceGenerator.wrong_path_op",
        "SyntheticTraceGenerator._next_phase",
        "SyntheticTraceGenerator._draw_class",
        "SyntheticTraceGenerator._make_op",
        "SyntheticTraceGenerator._sources",
        "SyntheticTraceGenerator._cold_address",
        "SyntheticTraceGenerator._mem_address",
        "SyntheticTraceGenerator._branch_site_bias",
        "SyntheticTraceGenerator._site_target",
        "TraceBuffer.get", "TraceBuffer.wrong_path_op",
    ],
    "branch/unit.py": [
        "BranchUnit.predict_and_train", "BranchUnit._predict_conditional",
        "BranchUnit._predict_call", "BranchUnit._predict_return",
    ],
    "mem/hierarchy.py": ["MemoryHierarchy.access_load"],
    "policies/base.py": ["icount_order"],
    "core/classification.py": [
        "ActivityTracker.note_use", "ActivityTracker.tick",
        "ActivityTracker.advance",
    ],
}


def _functions(path: Path):
    """Qualified name -> FunctionDef for module and class-level defs."""
    tree = ast.parse(path.read_text(), str(path))
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    found[f"{node.name}.{item.name}"] = item
    return found


def _covered():
    """(label, FunctionDef) of every guarded function."""
    covered = []
    for module, names in HOT_FUNCTIONS.items():
        functions = _functions(SRC / module)
        for name in names:
            assert name in functions, f"{module}: no function {name}"
            covered.append((f"{module}:{name}", functions[name]))
    hooks = 0
    for package in ("policies", "core"):
        for path in sorted((SRC / package).glob("*.py")):
            for name, node in _functions(path).items():
                if name.rpartition(".")[2] in POLICY_HOOKS and "." in name:
                    covered.append((f"{package}/{path.name}:{name}", node))
                    hooks += 1
    assert hooks >= 20, "policy hooks not found; is the layout unchanged?"
    return covered


def _violations(function: ast.FunctionDef):
    # The body only: argument defaults are evaluated once, at def time.
    for statement in function.body:
        for node in ast.walk(statement):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id in ENUMS:
                yield f"line {node.lineno}: reads {node.value.id}.{node.attr}"
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name) and \
                    node.func.id in PER_OP_CLASSES and node.keywords:
                yield (f"line {node.lineno}: builds {node.func.id} with "
                       f"keyword arguments")


COVERED = _covered()


@pytest.mark.parametrize("label,function", COVERED,
                         ids=[label for label, _ in COVERED])
def test_hot_function_reads_no_enum_attribute(label, function):
    assert list(_violations(function)) == []


def test_guard_detects_both_faults():
    source = ("def f(op):\n"
              "    if op.op_class == OpClass.LOAD:\n"
              "        return StaticOp(op.op_class, 0, latency=1)\n")
    function = ast.parse(source).body[0]
    assert len(list(_violations(function))) == 2
