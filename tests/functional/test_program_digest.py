"""The program digest: the result-cache key's stand-in for a trace.

A cell is keyed on :func:`program_digest` instead of the fingerprint of
its trace, so the digest must split every program the functional
machine could run differently (any single edit changes it) and must
never merge two programs whose traces differ (equal digests, equal
trace fingerprints across every shipped workload).
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.exec.cache import fingerprint_trace
from repro.functional.machine import program_digest, run_program
from repro.isa.instructions import Opcode
from repro.isa.program import Program, ProgramBuilder
from repro.workloads.suite import WorkloadSet, micro_names, spec2000_names

REGISTERS = tuple(f"r{i}" for i in range(32)) + tuple(
    f"f{i}" for i in range(32)
)


def built_program() -> Program:
    b = ProgramBuilder("digest-base")
    data = b.alloc_words([3, 5, 7, 11])
    b.label("start")
    b.load_imm("r1", data)
    b.load_imm("r2", 4)
    b.label("loop")
    b.emit(Opcode.LDQ, dest="r3", base="r1", disp=0, comment="load")
    b.emit(Opcode.ADDQ, dest="r4", srcs=("r4", "r3"))
    b.emit(Opcode.ADDQ, dest="r1", srcs=("r1",), imm=8)
    b.emit(Opcode.SUBQ, dest="r2", srcs=("r2",), imm=1)
    b.branch(Opcode.BNE, "r2", "loop")
    b.label("done")
    b.emit(Opcode.STQ, srcs=("r4",), base="r1", disp=0)
    b.halt()
    return b.build()


_SHIPPED = WorkloadSet()
BASES = (built_program(), _SHIPPED.program("C-Ca"),
         _SHIPPED.program("M-D"))


def rebuilt(program: Program, **changes) -> Program:
    fields = dict(
        instructions=list(program.instructions),
        labels=dict(program.labels),
        data=dict(program.data),
        entry=program.entry,
        code_base=program.code_base,
        name=program.name,
    )
    fields.update(changes)
    return Program(**fields)


def with_instr(program: Program, index: int, **changes) -> Program:
    instructions = list(program.instructions)
    instructions[index] = dataclasses.replace(
        instructions[index], **changes
    )
    return rebuilt(program, instructions=instructions)


def _different(draw, strategy, current):
    return draw(strategy.filter(lambda value: value != current))


@st.composite
def single_edits(draw):
    """``(base, edited)``: one program and a copy with one edit the
    functional machine can observe."""
    base = draw(st.sampled_from(BASES))
    kind = draw(st.sampled_from([
        "opcode", "dest", "srcs", "imm", "base", "disp", "target",
        "data", "entry", "code_base",
    ]))
    index = draw(st.integers(0, len(base.instructions) - 1))
    instr = base.instructions[index]
    registers = st.sampled_from(REGISTERS)
    if kind == "opcode":
        return base, with_instr(base, index, opcode=_different(
            draw, st.sampled_from(list(Opcode)), instr.opcode))
    if kind == "dest":
        return base, with_instr(base, index, dest=_different(
            draw, st.none() | registers, instr.dest))
    if kind == "srcs":
        return base, with_instr(base, index, srcs=_different(
            draw, st.lists(registers, max_size=3).map(tuple), instr.srcs))
    if kind == "imm":
        return base, with_instr(base, index, imm=_different(
            draw, st.none() | st.integers(-2**63, 2**64 - 1), instr.imm))
    if kind == "base":
        return base, with_instr(base, index, base=_different(
            draw, st.none() | registers, instr.base))
    if kind == "disp":
        return base, with_instr(base, index, disp=_different(
            draw, st.integers(-2**15, 2**15), instr.disp))
    if kind == "target":
        # Re-point a control instruction at a fresh label on a
        # different instruction.
        index = draw(st.sampled_from([
            i for i, ins in enumerate(base.instructions)
            if ins.target is not None
        ]))
        instructions = list(base.instructions)
        instructions[index] = dataclasses.replace(
            instructions[index], target="retarget")
        labels = dict(base.labels, retarget=_different(
            draw, st.integers(0, len(base.instructions) - 1),
            base.target_index(index)))
        return base, rebuilt(base, instructions=instructions, labels=labels)
    if kind == "data":
        data = dict(base.data)
        address = draw(st.sampled_from(sorted(data) or [0]) | st.integers(
            0, 2**40).map(lambda a: a * 8))
        if address in data and draw(st.booleans()):
            del data[address]
        else:
            data[address] = _different(
                draw, st.integers(0, 2**64 - 1), data.get(address))
        return base, rebuilt(base, data=data)
    if kind == "entry":
        return base, rebuilt(base, entry=_different(
            draw, st.integers(0, len(base.instructions) - 1), base.entry))
    return base, rebuilt(base, code_base=_different(
        draw, st.integers(0, 2**20).map(lambda a: a * 16), base.code_base))


class TestDigestSplitsEveryEdit:
    @settings(max_examples=300, deadline=None)
    @given(single_edits())
    def test_any_single_edit_changes_the_digest(self, edit):
        base, edited = edit
        assert program_digest(edited) != program_digest(base)

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(BASES), st.data())
    def test_comments_do_not_change_the_digest(self, base, data):
        index = data.draw(st.integers(0, len(base.instructions) - 1))
        comment = data.draw(st.text(max_size=20))
        edited = with_instr(base, index, comment=comment)
        assert program_digest(edited) == program_digest(base)

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(BASES), st.data())
    def test_label_rename_keeping_targets_does_not_change_it(
        self, base, data
    ):
        old = data.draw(st.sampled_from(sorted(base.labels)))
        new = data.draw(st.text(min_size=1, max_size=12).filter(
            lambda name: name not in base.labels))
        labels = {
            (new if name == old else name): at
            for name, at in base.labels.items()
        }
        instructions = [
            dataclasses.replace(ins, target=new)
            if ins.target == old else ins
            for ins in base.instructions
        ]
        edited = rebuilt(
            base, labels=labels, instructions=instructions,
            name=base.name + "-renamed",
        )
        assert program_digest(edited) == program_digest(base)


class TestDigestAgreesWithTraces:
    def test_equal_digests_have_equal_trace_fingerprints(self):
        """Over every shipped workload (micro, SPEC2000, calibration)
        plus an independently rebuilt, renamed copy: the digest never
        merges two programs whose traces differ."""
        micro = WorkloadSet()
        calibration = WorkloadSet()
        programs = [micro.program(n) for n in micro_names()]
        programs += [micro.program(n) for n in spec2000_names()]
        programs += [
            calibration.program(n)
            for n in calibration.register_calibration()
        ]
        copy = WorkloadSet().program("C-Ca")
        programs.append(rebuilt(copy, name="C-Ca-copy"))

        fingerprint_of = {}
        for program in programs:
            digest = program_digest(program)
            fingerprint = fingerprint_trace(run_program(program))
            assert fingerprint_of.setdefault(digest, fingerprint) == \
                fingerprint, f"{program.name}: digest collision"
        # The rebuilt copy really is a second program with the digest.
        assert program_digest(copy) == program_digest(micro.program("C-Ca"))
        assert len(fingerprint_of) < len(programs)

    def test_workload_set_caches_the_digest(self, monkeypatch):
        from repro.workloads import suite

        workloads = WorkloadSet()
        calls = []
        monkeypatch.setattr(
            suite, "program_digest",
            lambda program: calls.append(program.name) or "d",
        )
        assert workloads.program_digest("C-R") == "d"
        assert workloads.program_digest("C-R") == "d"
        assert calls == ["C-R"]

    def test_register_drops_a_replaced_programs_digest(self):
        workloads = WorkloadSet()
        before = workloads.program_digest("C-R")
        program = workloads.program("C-R")
        workloads.register(rebuilt(program, entry=1))
        assert workloads.program_digest("C-R") != before
