"""The package's records: repr, pattern positions, equality, hash and immutability.

The AST nodes, ``ThreadProgram``, ``ProgramPair``, ``ExplorationConfig``
and ``InstrumentOptions`` are plain slotted classes on one small base, and
``Snapshot`` is a NamedTuple.  These tests hold them to their repr, ``__match_args__``,
``==`` and hash, so the reports, digests and matches built on them do not
move.
"""

import copy
import pickle

import pytest

from paircheck.engine import ExplorationConfig
from paircheck.instrument import InstrumentOptions
from paircheck.state import DONE, FirstVisit, PrunedEqual, Snapshot
from paircheck.toylang import (
    Assign, BinOp, Emit, IntLit, ProgramPair, SemDown, SemUp, ThreadProgram, Var, parse,
)

ASSIGN = Assign("x", BinOp("+", Var("x"), IntLit(1)))
THREAD0 = ThreadProgram((ASSIGN, SemUp(0), Emit('a"\n')))
THREAD1 = ThreadProgram((SemDown(0),))
PAIR = ProgramPair(THREAD0, THREAD1, 1, (("x", 0), ("y", -2)))
SNAPSHOT = Snapshot(("x", "y"), (1, -2), "ab\n", (True, False), 1, DONE)

NODES = [IntLit(7), Var("x"), BinOp("*", IntLit(2), Var("y")), ASSIGN, Emit("a"), SemUp(0),
         SemDown(1)]
FROZEN = [*NODES, THREAD0, PAIR, ExplorationConfig(), InstrumentOptions()]


class TestRepr:
    def test_nodes(self):
        assert repr(ASSIGN) == (
            "Assign(target='x', expr=BinOp(op='+', left=Var(name='x'), right=IntLit(value=1)))"
        )
        assert repr(Emit('a"\n')) == "Emit(text='a\"\\n')"
        assert repr(SemUp(0)) == "SemUp(index=0)"
        assert repr(SemDown(2)) == "SemDown(index=2)"

    def test_program_pair_leaves_out_names_and_compiled(self):
        assert repr(PAIR) == (
            "ProgramPair(thread0=ThreadProgram(statements=("
            "Assign(target='x', expr=BinOp(op='+', left=Var(name='x'), right=IntLit(value=1))), "
            "SemUp(index=0), Emit(text='a\"\\n'))), "
            "thread1=ThreadProgram(statements=(SemDown(index=0),)), "
            "num_semaphores=1, variables=(('x', 0), ('y', -2)))"
        )
        source = 'var x; var y = -2; semaphores 1; thread0 { x = x + 1; up(0); emit "a\\"\\n"; }'
        assert repr(parse(source + " thread1 { down(0); }")) == repr(PAIR)

    def test_snapshot_shows_names(self):
        assert repr(SNAPSHOT) == (
            "Snapshot(names=('x', 'y'), values=(1, -2), output='ab\\n', "
            "semaphores=(True, False), status0=1, status1=-1)"
        )

    def test_config(self):
        assert repr(ExplorationConfig(digest_mode=True, max_total_steps=9)) == (
            "ExplorationConfig(pruning=True, race_detection=True, digest_mode=True, "
            "max_total_steps=9)"
        )


def test_match_args():
    assert IntLit.__match_args__ == ("value",)
    assert Var.__match_args__ == ("name",)
    assert BinOp.__match_args__ == ("op", "left", "right")
    assert Assign.__match_args__ == ("target", "expr")
    assert Emit.__match_args__ == ("text",)
    assert SemUp.__match_args__ == SemDown.__match_args__ == ("index",)
    assert ThreadProgram.__match_args__ == ("statements",)
    assert ProgramPair.__match_args__ == ("thread0", "thread1", "num_semaphores", "variables")
    assert ExplorationConfig.__match_args__ == (
        "pruning", "race_detection", "digest_mode", "max_total_steps",
    )
    assert Snapshot.__match_args__ == (
        "names", "values", "output", "semaphores", "status0", "status1",
    )
    match PAIR:
        case ProgramPair(ThreadProgram((Assign(target, BinOp(op, Var(name), IntLit(value))), *_)),
                         _, count, variables):
            assert (target, op, name, value, count) == ("x", "+", "x", 1, 1)
            assert variables == (("x", 0), ("y", -2))
        case _:
            pytest.fail("no match")


class TestEqualityAndHash:
    def test_equal_records_hash_equal_and_key_dicts(self):
        twins = [IntLit(7), Var("x"), BinOp("*", IntLit(2), Var("y")),
                  Assign("x", BinOp("+", Var("x"), IntLit(1))), Emit("a"), SemUp(0), SemDown(1)]
        table = dict(zip(NODES, range(len(NODES))))
        for k, (node, twin) in enumerate(zip(NODES, twins)):
            assert node == twin and node is not twin and hash(node) == hash(twin)
            assert table[twin] == k
        assert len(table) == len(NODES)

    def test_hash_is_the_hash_of_the_field_tuple(self):
        assert hash(IntLit(7)) == hash((7,))
        assert hash(BinOp("*", IntLit(2), Var("y"))) == hash(("*", IntLit(2), Var("y")))
        # a snapshot is a NamedTuple: every field, names too, and equal to its plain tuple
        fields = (("x", "y"), (1, -2), "ab\n", (True, False), 1, DONE)
        assert SNAPSHOT == fields and hash(SNAPSHOT) == hash(fields)
        assert hash(ExplorationConfig()) == hash((True, True, False, 1_000_000))

    def test_same_fields_of_another_class_differ(self):
        assert SemUp(0) != SemDown(0)
        assert IntLit(1) != 1 and IntLit(1) != (1,)
        assert IntLit(1).__eq__((1,)) is NotImplemented
        assert len({SemUp(0), SemDown(0)}) == 2

    def test_each_field_takes_part(self):
        assert BinOp("+", IntLit(1), IntLit(2)) != BinOp("-", IntLit(1), IntLit(2))
        assert BinOp("+", IntLit(1), IntLit(2)) != BinOp("+", IntLit(1), IntLit(3))
        assert Assign("x", IntLit(1)) != Assign("y", IntLit(1))
        assert ExplorationConfig() != ExplorationConfig(pruning=False)

    def test_program_pair_compares_its_declared_fields(self):
        same = ProgramPair(THREAD0, THREAD1, 1, (("x", 0), ("y", -2)))
        assert same == PAIR and hash(same) == hash(PAIR)
        assert ProgramPair(THREAD0, THREAD1, 2, PAIR.variables) != PAIR
        assert ProgramPair(THREAD1, THREAD0, 1, PAIR.variables) != PAIR

    def test_equal_instrument_options(self):
        options = InstrumentOptions("trace();", True)
        twin = InstrumentOptions(skip_redundant=True, hook_token="trace();")
        assert options == twin and options is not twin and hash(options) == hash(twin)
        assert options != InstrumentOptions("trace();") and options != InstrumentOptions()
        assert repr(options) == "InstrumentOptions(hook_token='trace();', skip_redundant=True)"

    def test_records_are_unordered(self):
        with pytest.raises(TypeError):
            IntLit(1) < IntLit(2)  # noqa: B015


class TestImmutability:
    @pytest.mark.parametrize("record", FROZEN, ids=lambda record: type(record).__name__)
    def test_frozen_fields_refuse_assignment_and_deletion(self, record):
        field = type(record).__match_args__[0]
        before = repr(record)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert repr(record) == before

    def test_program_pair_derived_fields_are_frozen_too(self):
        for field in ("names", "compiled"):
            with pytest.raises(AttributeError):
                setattr(PAIR, field, None)
        assert PAIR.names == ("x", "y")

    def test_snapshot_is_frozen(self):
        # snapshots are state-table and outcome keys, so none may change
        snap = Snapshot(("x",), (1,), "", (), 0, 0)
        for field in Snapshot._fields:
            with pytest.raises(AttributeError):
                setattr(snap, field, None)
            with pytest.raises(AttributeError):
                delattr(snap, field)
        assert snap == Snapshot(("x",), (1,), "", (), 0, 0)


class TestExplorationConfig:
    def test_defaults(self):
        cfg = ExplorationConfig()
        assert (cfg.pruning, cfg.race_detection, cfg.digest_mode, cfg.max_total_steps) == (
            True, True, False, 1_000_000,
        )

    def test_keyword_and_positional_construction(self):
        cfg = ExplorationConfig(max_total_steps=0, digest_mode=True, pruning=False)
        assert (cfg.pruning, cfg.race_detection, cfg.digest_mode, cfg.max_total_steps) == (
            False, True, True, 0,
        )
        assert ExplorationConfig(False, True, True, 0) == cfg
        with pytest.raises(TypeError):
            ExplorationConfig(prune=False)

    def test_digest_mode_needs_race_detection(self):
        with pytest.raises(ValueError, match="^digest mode needs race detection$"):
            ExplorationConfig(race_detection=False, digest_mode=True)

    def test_negative_budget(self):
        with pytest.raises(ValueError, match="^max_total_steps must be non-negative$"):
            ExplorationConfig(max_total_steps=-1)

    @pytest.mark.parametrize(
        "budget, shown", [(True, "True"), (1.5, "1.5"), (float("inf"), "inf"), ("10", "'10'")]
    )
    def test_budget_that_is_not_an_int(self, budget, shown):
        # a bool is not an int budget: True would run a budget of 1
        with pytest.raises(TypeError, match=f"^max_total_steps is not an int: {shown}$"):
            ExplorationConfig(max_total_steps=budget)



@pytest.mark.parametrize("record", [*FROZEN, SNAPSHOT], ids=lambda record: type(record).__name__)
def test_copies_and_pickles_are_equal(record):
    for copied in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(copied) is type(record) and copied == record
        assert repr(copied) == repr(record)
    if isinstance(record, ProgramPair):
        assert copied.names == record.names and copied.compiled is not record.compiled


@pytest.mark.parametrize(
    "record", [*FROZEN, SNAPSHOT, FirstVisit(), PrunedEqual()], ids=lambda r: type(r).__name__
)
def test_records_are_slotted(record):
    assert not hasattr(record, "__dict__")
