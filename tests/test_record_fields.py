"""How records take their fields, and the refusals of their typed inputs.

Every record that declares only ``__slots__ = __match_args__`` takes its
fields through ``Record.__init__``, bound as a call binds parameters.
``ExplorationConfig`` checks the type of every field, and a thread id is
one ``step`` would take.
"""

import re

import pytest

from paircheck.engine import EngineError, ExplorationConfig, initial_interleaving, step
from paircheck.state import DONE, Snapshot
from paircheck.toylang import (
    Assign, BinOp, Emit, IntLit, ProgramPair, SemDown, SemUp, ThreadProgram, Var, parse,
)

DECLARED_ONLY = [IntLit, Var, BinOp, Assign, Emit, SemUp, SemDown, ThreadProgram]


class TestBinding:
    def test_only_program_pair_and_config_define_an_init(self):
        assert not any("__init__" in cls.__dict__ for cls in DECLARED_ONLY)

    def test_positional_and_keyword_build_equal_records(self):
        positional = BinOp("+", Var("x"), IntLit(1))
        assert BinOp(op="+", left=Var(name="x"), right=IntLit(value=1)) == positional
        assert BinOp("+", right=IntLit(1), left=Var("x")) == positional
        assert (positional.op, positional.left, positional.right) == ("+", Var("x"), IntLit(1))
        assert Assign(expr=IntLit(2), target="y").target == "y"

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: IntLit(), "IntLit() takes each of the fields ('value',) once"),
            (lambda: BinOp("+", IntLit(1)),
             "BinOp() takes each of the fields ('op', 'left', 'right') once"),
            (lambda: Assign(expr=IntLit(1)),
             "Assign() takes each of the fields ('target', 'expr') once"),
            (lambda: IntLit(1, 2), "IntLit() takes each of the fields ('value',) once"),
            (lambda: Var(nam="x"), "Var() takes each of the fields ('name',) once"),
            (lambda: Emit("a", index=0), "Emit() takes each of the fields ('text',) once"),
            (lambda: IntLit(1, value=2), "IntLit() takes each of the fields ('value',) once"),
            (lambda: BinOp("+", IntLit(1), IntLit(2), op="-"),
             "BinOp() takes each of the fields ('op', 'left', 'right') once"),
            (lambda: Assign("x", target="y"),
             "Assign() takes each of the fields ('target', 'expr') once"),
        ],
        ids=["missing", "missing-last", "missing-first", "too-many", "unknown", "unknown-extra",
             "twice", "twice-after-all", "twice-and-missing"],
    )
    def test_a_field_missing_unknown_or_given_twice(self, build, message):
        with pytest.raises(TypeError) as raised:
            build()
        assert str(raised.value) == message

    def test_program_pair_keeps_its_signature(self):
        pair = ProgramPair(thread0=ThreadProgram(()), thread1=ThreadProgram((Emit("a"),)),
                           num_semaphores=0, variables=())
        assert pair == ProgramPair(ThreadProgram(()), ThreadProgram((Emit("a"),)), 0, ())
        assert pair.names == () and len(pair.compiled.transitions[1]) == 1
        with pytest.raises(TypeError):
            ProgramPair(ThreadProgram(()), ThreadProgram(()), 0, (), thread0=ThreadProgram(()))


class TestConfigFlags:
    @pytest.mark.parametrize("field", ["pruning", "race_detection", "digest_mode"])
    @pytest.mark.parametrize(
        "value, shown", [("false", "'false'"), (None, "None"), (0, "0"), (1, "1"), (1.0, "1.0")]
    )
    def test_a_flag_that_is_not_a_bool(self, field, value, shown):
        # "false" is truthy: as a flag it would turn the mode on
        with pytest.raises(TypeError) as raised:
            ExplorationConfig(**{field: value})
        assert str(raised.value) == f"{field} is not a bool: {shown}"


class TestThreadIds:
    SNAPSHOT = Snapshot((), (), "", (), 3, DONE)
    PAIR = parse('thread0 { emit "a"; } thread1 { emit "b"; emit "c"; }')

    @pytest.mark.parametrize("tid, index", [(0, 0), (1, 1), (0.0, 0), (1.0, 1), (False, 0),
                                            (True, 1)])
    def test_ids_equal_to_0_or_1(self, tid, index):
        assert self.SNAPSHOT.status(tid) == (3, DONE)[index]
        assert self.PAIR.thread(tid) is (self.PAIR.thread0, self.PAIR.thread1)[index]

    @pytest.mark.parametrize("tid", [2, -1, 7, 0.5, "1", None])
    def test_other_ids_raise_value_error(self, tid):
        with pytest.raises(ValueError, match=f"^no thread {re.escape(repr(tid))}$"):
            self.SNAPSHOT.status(tid)
        with pytest.raises(ValueError, match="^no thread "):
            self.PAIR.thread(tid)

    def test_the_ids_step_takes(self):
        start = initial_interleaving(self.PAIR)
        for tid in (0, 1, 1.0, True):
            assert step(self.PAIR, start, tid).snapshot.status(tid) != start.snapshot.status(tid)
        for tid in (2, 0.5):
            with pytest.raises(EngineError):
                step(self.PAIR, start, tid)
