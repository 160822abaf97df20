"""Experiment drivers: one per table/figure in the paper's evaluation.

Each driver returns a small result object carrying structured rows and
a ``render()`` method; the ``benchmarks/`` harnesses call these and
print our numbers beside the paper's published values.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.bugs import ALL_BUGS
from repro.core.config import MachineConfig, RegFileConfig
from repro.core.features import ALL_FEATURES, FeatureSet
from repro.core.simalpha import SimAlpha
from repro.core.siminitial import make_sim_initial, make_sim_with_bugs
from repro.core.simstripped import make_sim_minus_feature, make_sim_stripped
from repro.exec.spec import RunOptions
from repro.functional.machine import run_program
from repro.isa.instructions import InstrClass, LATENCY, Opcode
from repro.isa.program import ProgramBuilder
from repro.memory.cache import CacheConfig
from repro.reporting.tables import render_table
from repro.result import SimResult
from repro.simulators.dcpi import DcpiProfiler
from repro.simulators.eightway import EightWayConfig, EightWaySim
from repro.simulators.refmachine import NativeMachine
from repro.simulators.simoutorder import OutOrderConfig, SimOutOrder
from repro.validation.harness import CellFailure, Harness
from repro.validation.metrics import (
    arithmetic_mean,
    harmonic_mean,
    mean_absolute_error,
    percent_change,
    percent_error_cpi,
    std_deviation,
)
from repro.workloads.suite import micro_names, spec2000_names, spec95_names

__all__ = [
    "Table1Result",
    "table1_latencies",
    "Table2Result",
    "table2_micro",
    "Table3Result",
    "table3_macro",
    "Table4Result",
    "table4_features",
    "Table5Result",
    "table5_stability",
    "Figure2Result",
    "figure2_regfile",
    "BugWalkResult",
    "bug_walk",
    "SamplingResult",
    "sampling_interval_study",
]


# ----------------------------------------------------------------------
# Table 1: instruction latencies
# ----------------------------------------------------------------------

_LATENCY_PROBES: Dict[str, Opcode] = {
    "integer ALU": Opcode.ADDQ,
    "integer multiply": Opcode.MULQ,
    "FP add": Opcode.ADDT,
    "FP multiply": Opcode.MULT,
    "FP divide (single)": Opcode.DIVS,
    "FP divide (double)": Opcode.DIVT,
    "FP sqrt (single)": Opcode.SQRTS,
    "FP sqrt (double)": Opcode.SQRTT,
}


def _chain_program(opcode: Opcode, length: int):
    """A straight-line dependent chain of ``length`` ops."""
    b = ProgramBuilder(f"probe-{opcode.mnemonic}-{length}")
    if opcode.klass.is_fp:
        reg = "f1"
        for _ in range(length):
            b.emit(opcode, dest=reg, srcs=(reg, "f2"))
    else:
        reg = "r1"
        b.load_imm(reg, 3)
        for _ in range(length):
            b.emit(opcode, dest=reg, srcs=(reg,), imm=1)
    b.halt()
    return b.build()


def _load_chain_program(fp: bool, length: int):
    """A dependent pointer-style chain of loads (cache resident)."""
    b = ProgramBuilder(f"probe-load-{length}")
    head = b.alloc_words([0] * 8)
    b.poke(head, head)
    b.load_imm("r9", head)
    if fp:
        # FP loads cannot carry the chain (their dest is an f-reg), so
        # measure an int-load chain plus the documented fp extra.
        raise NotImplementedError
    for _ in range(length):
        b.emit(Opcode.LDQ, dest="r9", base="r9", disp=0)
    b.halt()
    return b.build()


@dataclass
class Table1Result:
    rows: List[Tuple[str, int, float]]  # (class, configured, measured)

    def render(self) -> str:
        return render_table(
            ["instruction class", "Table 1", "measured"],
            self.rows,
            title="Table 1: instruction latencies (cycles)",
        )

    def max_deviation(self) -> float:
        return max(abs(measured - configured)
                   for _, configured, measured in self.rows)


def table1_latencies(*, short: int = 16, long: int = 80) -> Table1Result:
    """Measure effective dependent-issue spacing per instruction class.

    Two chain lengths difference out pipeline fill and warm-up: the
    measured latency is (cycles(long) - cycles(short)) / (long - short).
    """
    rows: List[Tuple[str, int, float]] = []
    sim = SimAlpha()
    for label, opcode in _LATENCY_PROBES.items():
        cycles = {}
        for length in (short, long):
            result = sim.run_trace(
                run_program(_chain_program(opcode, length)), label
            )
            cycles[length] = result.cycles
        measured = (cycles[long] - cycles[short]) / (long - short)
        rows.append((label, LATENCY[opcode.klass], measured))
    # Integer load chain (the 3-cycle load-to-use of Table 1).
    cycles = {}
    for length in (short, long):
        result = sim.run_trace(
            run_program(_load_chain_program(False, length)), "load"
        )
        cycles[length] = result.cycles
    measured = (cycles[long] - cycles[short]) / (long - short)
    rows.append(("integer load (cache hit)", LATENCY[InstrClass.INT_LOAD],
                 measured))
    return Table1Result(rows)


# ----------------------------------------------------------------------
# Table 2: microbenchmark validation
# ----------------------------------------------------------------------

@dataclass
class Table2Row:
    benchmark: str
    native_ipc: float
    initial_ipc: float
    initial_error: float
    alpha_ipc: float
    alpha_error: float
    outorder_ipc: float
    outorder_diff: float


@dataclass
class Table2Result:
    rows: List[Table2Row]
    mean_initial_error: float
    mean_alpha_error: float
    mean_outorder_diff: float

    def row(self, benchmark: str) -> Table2Row:
        for row in self.rows:
            if row.benchmark == benchmark:
                return row
        raise KeyError(benchmark)

    def render(self) -> str:
        table_rows = [
            (r.benchmark, r.native_ipc, r.initial_ipc, r.initial_error,
             r.alpha_ipc, r.alpha_error, r.outorder_ipc, r.outorder_diff)
            for r in self.rows
        ]
        table_rows.append(
            ("mean |err|", None, None, self.mean_initial_error,
             None, self.mean_alpha_error, None, self.mean_outorder_diff)
        )
        return render_table(
            ["benchmark", "native IPC", "initial IPC", "err%",
             "alpha IPC", "err%", "outorder IPC", "diff%"],
            table_rows,
            title="Table 2: microbenchmark validation",
        )


def table2_micro(
    harness: Optional[Harness] = None,
    benchmarks: Optional[Sequence[str]] = None,
    *,
    options: Optional[RunOptions] = None,
) -> Table2Result:
    """Native vs sim-initial vs sim-alpha vs sim-outorder on the 21
    microbenchmarks.

    ``options`` picks the execution engine (``jobs``, ``cache``,
    ``shards`` — see :class:`~repro.exec.spec.RunOptions`); by default
    the grid inherits the harness's own options.
    """
    harness = harness or Harness()
    names = list(benchmarks or micro_names())
    factories = [
        NativeMachine,
        make_sim_initial,
        SimAlpha,
        SimOutOrder,
    ]
    grid = harness.run_grid(factories, names, options)
    rows: List[Table2Row] = []
    for name in names:
        native = grid.get("DS-10L", name)
        initial = grid.get("sim-initial", name)
        alpha = grid.get("sim-alpha", name)
        outorder = grid.get("sim-outorder", name)
        rows.append(
            Table2Row(
                benchmark=name,
                native_ipc=native.ipc,
                initial_ipc=initial.ipc,
                initial_error=percent_error_cpi(initial.cpi, native.cpi),
                alpha_ipc=alpha.ipc,
                alpha_error=percent_error_cpi(alpha.cpi, native.cpi),
                outorder_ipc=outorder.ipc,
                outorder_diff=percent_error_cpi(outorder.cpi, native.cpi),
            )
        )
    return Table2Result(
        rows=rows,
        mean_initial_error=mean_absolute_error(
            r.initial_error for r in rows
        ),
        mean_alpha_error=mean_absolute_error(r.alpha_error for r in rows),
        mean_outorder_diff=mean_absolute_error(
            r.outorder_diff for r in rows
        ),
    )


# ----------------------------------------------------------------------
# Table 3: macrobenchmark validation
# ----------------------------------------------------------------------

@dataclass
class Table3Row:
    benchmark: str
    native_ipc: float
    alpha_ipc: float
    alpha_error: float
    stripped_ipc: float
    stripped_diff: float
    outorder_ipc: float
    outorder_diff: float


@dataclass
class Table3Result:
    rows: List[Table3Row]
    native_hm_ipc: float
    alpha_hm_ipc: float
    alpha_mean_error: float
    stripped_hm_ipc: float
    stripped_mean_diff: float
    outorder_hm_ipc: float
    outorder_mean_diff: float
    #: Cells that failed or were quarantined; their benchmarks have no
    #: row and stay out of the means.
    failures: List[CellFailure] = field(default_factory=list)

    def row(self, benchmark: str) -> Table3Row:
        for row in self.rows:
            if row.benchmark == benchmark:
                return row
        raise KeyError(benchmark)

    def render(self) -> str:
        table_rows = [
            (r.benchmark, r.native_ipc, r.alpha_ipc, r.alpha_error,
             r.stripped_ipc, r.stripped_diff, r.outorder_ipc,
             r.outorder_diff)
            for r in self.rows
        ]
        table_rows.append(
            ("HM / mean|err|", self.native_hm_ipc, self.alpha_hm_ipc,
             self.alpha_mean_error, self.stripped_hm_ipc,
             self.stripped_mean_diff, self.outorder_hm_ipc,
             self.outorder_mean_diff)
        )
        table = render_table(
            ["benchmark", "native IPC", "alpha IPC", "err%",
             "stripped IPC", "diff%", "outorder IPC", "diff%"],
            table_rows,
            title="Table 3: macrobenchmark validation",
        )
        if not self.failures:
            return table
        return "\n".join(
            [table, f"{len(self.failures)} cell(s) missing, their "
                    f"benchmarks left out of the means:"]
            + [f"  {failure.describe()}" for failure in self.failures]
        )


def table3_macro(
    harness: Optional[Harness] = None,
    benchmarks: Optional[Sequence[str]] = None,
    *,
    options: Optional[RunOptions] = None,
) -> Table3Result:
    """Native vs sim-alpha vs sim-stripped vs sim-outorder on the
    SPEC2000 proxies.

    A benchmark with a failed or quarantined cell (see
    ``grid.failures``) gets no row and stays out of the means; the
    failures ride along on the result."""
    harness = harness or Harness()
    names = list(benchmarks or spec2000_names())
    factories = [NativeMachine, SimAlpha, make_sim_stripped, SimOutOrder]
    grid = harness.run_grid(factories, names, options)
    missing = {failure.workload for failure in grid.failures}
    rows: List[Table3Row] = []
    for name in names:
        if name in missing:
            continue
        native = grid.get("DS-10L", name)
        alpha = grid.get("sim-alpha", name)
        stripped = grid.get("sim-stripped", name)
        outorder = grid.get("sim-outorder", name)
        rows.append(
            Table3Row(
                benchmark=name,
                native_ipc=native.ipc,
                alpha_ipc=alpha.ipc,
                alpha_error=percent_error_cpi(alpha.cpi, native.cpi),
                stripped_ipc=stripped.ipc,
                stripped_diff=percent_error_cpi(stripped.cpi, native.cpi),
                outorder_ipc=outorder.ipc,
                outorder_diff=percent_error_cpi(outorder.cpi, native.cpi),
            )
        )
    return Table3Result(
        rows=rows,
        native_hm_ipc=harmonic_mean([r.native_ipc for r in rows]),
        alpha_hm_ipc=harmonic_mean([r.alpha_ipc for r in rows]),
        alpha_mean_error=mean_absolute_error(r.alpha_error for r in rows),
        stripped_hm_ipc=harmonic_mean([r.stripped_ipc for r in rows]),
        stripped_mean_diff=mean_absolute_error(
            r.stripped_diff for r in rows
        ),
        outorder_hm_ipc=harmonic_mean([r.outorder_ipc for r in rows]),
        outorder_mean_diff=mean_absolute_error(
            r.outorder_diff for r in rows
        ),
        failures=list(grid.failures),
    )


# ----------------------------------------------------------------------
# Table 4: effect of individual features
# ----------------------------------------------------------------------

@dataclass
class Table4Column:
    feature: str
    hm_ipc: float
    mean_change: float
    stddev: float


@dataclass
class Table4Result:
    reference_hm_ipc: float
    columns: List[Table4Column]

    def column(self, feature: str) -> Table4Column:
        for col in self.columns:
            if col.feature == feature:
                return col
        raise KeyError(feature)

    def render(self) -> str:
        rows = [("ref", self.reference_hm_ipc, 0.0, 0.0)]
        rows.extend(
            (c.feature, c.hm_ipc, c.mean_change, c.stddev)
            for c in self.columns
        )
        return render_table(
            ["config", "HM IPC", "mean %change", "std dev"],
            rows,
            title="Table 4: effects of low-level features on performance",
        )


def table4_features(
    harness: Optional[Harness] = None,
    benchmarks: Optional[Sequence[str]] = None,
    features: Optional[Sequence[str]] = None,
    *,
    options: Optional[RunOptions] = None,
) -> Table4Result:
    """Remove each of the ten features from sim-alpha, one at a time."""
    harness = harness or Harness()
    names = list(benchmarks or spec2000_names())
    feature_list = list(features or ALL_FEATURES)

    factories: List[Callable[[], object]] = [SimAlpha]
    factories.extend(
        (lambda f=f: make_sim_minus_feature(f)) for f in feature_list
    )
    grid = harness.run_grid(factories, names, options)

    ref_ipcs = {n: grid.get("sim-alpha", n).ipc for n in names}
    columns: List[Table4Column] = []
    for feature in feature_list:
        sim_name = f"sim-alpha-no-{feature}"
        ipcs = {n: grid.get(sim_name, n).ipc for n in names}
        changes = [
            percent_change(ipcs[n], ref_ipcs[n]) for n in names
        ]
        columns.append(
            Table4Column(
                feature=feature,
                hm_ipc=harmonic_mean(list(ipcs.values())),
                mean_change=arithmetic_mean(changes),
                stddev=std_deviation(changes),
            )
        )
    return Table4Result(
        reference_hm_ipc=harmonic_mean(list(ref_ipcs.values())),
        columns=columns,
    )


# ----------------------------------------------------------------------
# Table 5: stability of optimizations across configurations
# ----------------------------------------------------------------------

#: The three optimizations studied (paper Table 5 rows).
_OPTIMIZATIONS = ("l1_latency_3_to_1", "l1_size_64_to_128", "regs_40_to_80")


def _alpha_with(
    features: FeatureSet,
    name: str,
    *,
    l1_latency: Optional[int] = None,
    l1_size: Optional[int] = None,
    rename_regs: Optional[int] = None,
) -> SimAlpha:
    """A sim-alpha variant with one optimization applied."""
    config = MachineConfig(name=name, features=features)
    memory = config.memory
    if l1_latency is not None:
        memory = replace(memory, l1d_load_to_use=l1_latency)
    if l1_size is not None:
        memory = replace(
            memory,
            l1d=CacheConfig(l1_size, 2, 64, name="l1d"),
        )
    config = replace(config, memory=memory)
    if rename_regs is not None:
        config = replace(
            config, int_rename_regs=rename_regs, fp_rename_regs=rename_regs
        )
    return SimAlpha(config)


def _outorder_with(
    name: str,
    *,
    l1_latency: Optional[int] = None,
    l1_size: Optional[int] = None,
    rename_regs: Optional[int] = None,
) -> SimOutOrder:
    """The Table 5 modified sim-outorder (separate physical registers)."""
    config = OutOrderConfig(name=name, separate_phys_regs=rename_regs or 40)
    if l1_latency is not None:
        config = replace(config, l1_latency=l1_latency)
    if l1_size is not None:
        config = replace(
            config, l1d=CacheConfig(l1_size, 2, 64, name="dl1")
        )
    return SimOutOrder(config)


@dataclass
class Table5Result:
    #: improvements[optimization][configuration] = % improvement in HM
    #: IPC (NaN where not applicable, e.g. the 1-cycle L1 under the
    #: no-luse configuration, as in the paper).
    improvements: Dict[str, Dict[str, float]]
    configurations: List[str]

    def render(self) -> str:
        headers = ["optimization"] + self.configurations
        rows = []
        for optimization, per_config in self.improvements.items():
            rows.append(
                [optimization]
                + [per_config.get(c, float("nan"))
                   for c in self.configurations]
            )
        return render_table(
            headers, rows,
            title="Table 5: simulator stability (% improvement)",
        )

    def spread(self, optimization: str) -> float:
        """Max - min improvement across configurations (stability)."""
        values = [
            v for v in self.improvements[optimization].values()
            if v == v  # drop NaN
        ]
        return max(values) - min(values)


def table5_stability(
    harness: Optional[Harness] = None,
    benchmarks: Optional[Sequence[str]] = None,
    features: Optional[Sequence[str]] = None,
    *,
    options: Optional[RunOptions] = None,
) -> Table5Result:
    """Measure the three optimizations across 13 configurations.

    Configurations: sim-alpha, sim-alpha minus each single feature,
    sim-stripped, and the modified sim-outorder.
    """
    harness = harness or Harness()
    names = list(benchmarks or spec2000_names())
    feature_list = list(features or ALL_FEATURES)

    feature_sets: Dict[str, FeatureSet] = {"sim-alpha": FeatureSet()}
    for feature in feature_list:
        feature_sets[feature] = FeatureSet().without(feature)
    feature_sets["sim-stripped"] = FeatureSet.stripped()

    optimization_kwargs = {
        "l1_latency_3_to_1": {"l1_latency": 1},
        "l1_size_64_to_128": {"l1_size": 128 * 1024},
        "regs_40_to_80": {"rename_regs": 80},
    }

    improvements: Dict[str, Dict[str, float]] = {
        o: {} for o in _OPTIMIZATIONS
    }

    def hm_ipc(factory: Callable[[], object]) -> float:
        grid = harness.run_grid([factory], names, options)
        ipcs = grid.ipcs(grid.simulators()[0])
        return harmonic_mean([ipcs[n] for n in names])

    for config_name, feature_set in feature_sets.items():
        base = hm_ipc(lambda: _alpha_with(feature_set, config_name))
        for optimization in _OPTIMIZATIONS:
            if optimization == "l1_latency_3_to_1" and (
                config_name == "luse"
            ):
                # As in the paper: with a 1-cycle D-cache there is no
                # load-use window to speculate over (marked n/a).
                improvements[optimization][config_name] = float("nan")
                continue
            kwargs = optimization_kwargs[optimization]
            improved = hm_ipc(
                lambda: _alpha_with(
                    feature_set, f"{config_name}+{optimization}", **kwargs
                )
            )
            improvements[optimization][config_name] = percent_change(
                improved, base
            )

    # Modified sim-outorder column.
    base = hm_ipc(lambda: _outorder_with("sim-outorder-sep"))
    for optimization in _OPTIMIZATIONS:
        kwargs = optimization_kwargs[optimization]
        improved = hm_ipc(
            lambda: _outorder_with(
                f"sim-outorder-sep+{optimization}", **kwargs
            )
        )
        improvements[optimization]["sim-outorder"] = percent_change(
            improved, base
        )

    configurations = list(feature_sets) + ["sim-outorder"]
    return Table5Result(improvements=improvements,
                        configurations=configurations)


# ----------------------------------------------------------------------
# Figure 2: register file sensitivity
# ----------------------------------------------------------------------

_REGFILE_CONFIGS: Tuple[Tuple[str, int, bool], ...] = (
    ("1-cycle full bypass", 1, True),
    ("2-cycle full bypass", 2, True),
    ("2-cycle partial bypass", 2, False),
)


@dataclass
class Figure2Result:
    #: ipcs[simulator][benchmark] = (cfg1, cfg2, cfg3) IPCs.
    ipcs: Dict[str, Dict[str, Tuple[float, float, float]]]
    benchmarks: List[str]

    def harmonic_means(self, simulator: str) -> Tuple[float, float, float]:
        per_bench = self.ipcs[simulator]
        return tuple(
            harmonic_mean([per_bench[b][i] for b in self.benchmarks])
            for i in range(3)
        )

    def bypass_loss(self, simulator: str) -> float:
        """% IPC lost moving from 2-cycle full to 2-cycle partial."""
        _, full2, partial2 = self.harmonic_means(simulator)
        return percent_change(partial2, full2)

    def render(self) -> str:
        headers = ["benchmark"]
        for simulator in self.ipcs:
            for label, _, _ in _REGFILE_CONFIGS:
                headers.append(f"{simulator}:{label.split()[0]}"
                               f"{'f' if 'full' in label else 'p'}")
        rows = []
        for bench in self.benchmarks:
            row = [bench]
            for simulator in self.ipcs:
                row.extend(self.ipcs[simulator][bench])
            rows.append(row)
        hm_row = ["HM"]
        for simulator in self.ipcs:
            hm_row.extend(self.harmonic_means(simulator))
        rows.append(hm_row)
        return render_table(
            headers, rows, title="Figure 2: register file sensitivity"
        )

    def render_bars(self, benchmarks: Optional[Sequence[str]] = None) -> str:
        """The figure itself: grouped bars, as in the paper."""
        from repro.reporting.barchart import render_grouped_bars

        chosen = list(benchmarks or self.benchmarks)
        series: Dict[str, List[float]] = {}
        for simulator, per_bench in self.ipcs.items():
            for config_index, (label, _, _) in enumerate(_REGFILE_CONFIGS):
                key = f"{simulator} {label}"
                series[key] = [per_bench[b][config_index] for b in chosen]
        return render_grouped_bars(
            chosen, series,
            title="Figure 2: register file sensitivity (IPC)",
        )


def figure2_regfile(
    harness: Optional[Harness] = None,
    benchmarks: Optional[Sequence[str]] = None,
    *,
    options: Optional[RunOptions] = None,
) -> Figure2Result:
    """Three register-file configurations on the 8-way simulator and on
    sim-alpha, over the SPEC95 proxies."""
    harness = harness or Harness()
    names = list(benchmarks or spec95_names())
    ipcs: Dict[str, Dict[str, List[float]]] = {
        "8-way": {n: [] for n in names},
        "sim-alpha": {n: [] for n in names},
    }
    for label, access, full in _REGFILE_CONFIGS:
        eight_config = EightWayConfig().with_regfile(access, full)
        alpha_config = replace(
            MachineConfig(name=f"sim-alpha-rf-{access}{full}"),
            regfile=RegFileConfig(access, full),
        )
        grid = harness.run_grid(
            [lambda: EightWaySim(eight_config),
             lambda: SimAlpha(alpha_config)],
            names, options,
        )
        eight_name, alpha_name = grid.simulators()
        for name in names:
            ipcs["8-way"][name].append(grid.get(eight_name, name).ipc)
            ipcs["sim-alpha"][name].append(grid.get(alpha_name, name).ipc)
    return Figure2Result(
        ipcs={
            sim: {n: tuple(v) for n, v in per.items()}
            for sim, per in ipcs.items()
        },
        benchmarks=names,
    )


# ----------------------------------------------------------------------
# Extension: per-bug error attribution (Section 3.4 narrated; we
# quantify it)
# ----------------------------------------------------------------------

@dataclass
class BugWalkResult:
    #: mean_error[bug] = mean |CPI error| on the microbenchmarks with
    #: only that bug injected.
    mean_error: Dict[str, float]
    baseline_error: float

    def render(self) -> str:
        rows = [("(none: validated)", self.baseline_error)]
        rows.extend(sorted(
            self.mean_error.items(), key=lambda kv: -kv[1]
        ))
        return render_table(
            ["bug", "mean |err| %"], rows,
            title="Per-bug error attribution (microbenchmarks)",
        )


def bug_walk(
    harness: Optional[Harness] = None,
    benchmarks: Optional[Sequence[str]] = None,
    bugs: Optional[Sequence[str]] = None,
    *,
    options: Optional[RunOptions] = None,
) -> BugWalkResult:
    """Inject each sim-initial bug alone and measure micro error."""
    harness = harness or Harness()
    names = list(benchmarks or micro_names())
    bug_list = list(bugs or ALL_BUGS)

    def grid_results(factory: Callable[[], object]) -> Dict[str, SimResult]:
        grid = harness.run_grid([factory], names, options)
        simulator = grid.simulators()[0]
        return {n: grid.get(simulator, n) for n in names}

    native = grid_results(NativeMachine)

    def mean_error_of(factory: Callable[[], object]) -> float:
        results = grid_results(factory)
        errors = [
            percent_error_cpi(results[n].cpi, native[n].cpi)
            for n in names
        ]
        return mean_absolute_error(errors)

    baseline = mean_error_of(SimAlpha)
    mean_error: Dict[str, float] = {}
    for bug in bug_list:
        mean_error[bug] = mean_error_of(
            lambda b=bug: make_sim_with_bugs(b)
        )
    return BugWalkResult(mean_error=mean_error, baseline_error=baseline)


# ----------------------------------------------------------------------
# Extension: DCPI sampling-interval trade-off (Section 2.3 narrated)
# ----------------------------------------------------------------------

@dataclass
class SamplingResult:
    #: rows: (interval, dilation %, mean |quantisation| %, combined %)
    rows: List[Tuple[int, float, float, float]]

    def best_interval(self) -> int:
        return min(self.rows, key=lambda r: r[3])[0]

    def render(self) -> str:
        return render_table(
            ["interval", "dilation %", "quantisation %", "combined %"],
            self.rows,
            title="DCPI sampling-interval trade-off",
            precision=3,
        )


def sampling_interval_study(
    workloads: Optional[Sequence[str]] = None,
    intervals: Sequence[int] = (1_000, 4_000, 16_000, 40_000, 64_000),
) -> SamplingResult:
    """Reproduce the dilation-vs-quantisation trade-off DCPI forced on
    the authors (they chose 40K cycles)."""
    names = list(workloads or micro_names())
    rows = []
    for interval in intervals:
        profiler = DcpiProfiler(interval_cycles=interval)
        dilation = profiler.dilation_fraction() * 100
        quantisation = arithmetic_mean(
            [abs(profiler.quantisation_fraction(n)) * 100 for n in names]
        )
        rows.append(
            (interval, dilation, quantisation, dilation + quantisation)
        )
    return SamplingResult(rows)
