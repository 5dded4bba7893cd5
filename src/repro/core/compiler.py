"""End-to-end GEM compile flow and user-facing simulator API.

``GemCompiler`` chains the paper's whole pipeline (Fig. 1's right side):

    RTL circuit → synthesis → depth optimization → multi-stage RepCut
    → Algorithm 1 merging (placements fall out of the mappability probes)
    → bitstream assembly

and returns a :class:`CompiledDesign` whose :meth:`CompiledDesign.simulator`
is ready to run stimuli.  :class:`CompileReport` carries the exact columns
of the paper's Table I (gates, levels, stages, layers, partitions,
bitstream size) plus the reproduction's extra accounting.

Typical use::

    from repro.core import GemCompiler
    design = GemCompiler().compile(circuit)
    sim = design.simulator()
    outs = sim.step({"in": 3})
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

from repro.core.bitstream import GemProgram
from repro.core.config import GemConfig
from repro.core.interpreter import GemInterpreter
from repro.errors import UnmappableError
from repro.obs.trace import TRACER

if TYPE_CHECKING:
    from repro.core.merging import MergeResult
    from repro.core.partition import PartitionPlan
    from repro.core.synthesis import SynthesisResult
    from repro.fourstate.dualrail import DualRailCircuit
    from repro.rtl.ir import Circuit


@dataclass
class CompileReport:
    """Table I columns for one design, straight from the real flow."""

    name: str
    gates: int
    levels: int
    stages: int
    #: maximum boomerang layer count over all partitions (per-cycle critical
    #: path inside a block)
    layers: int
    partitions: int
    bitstream_bytes: int
    replication_cost: float
    mean_utilization: float
    ram_blocks: int
    ffs: int
    #: digest of the GemConfig that produced this bitstream ("" = unknown)
    config_digest: str = ""

    def row(self) -> dict:
        return {
            "Design": self.name,
            "#E-AIG Gates": self.gates,
            "#Levels": self.levels,
            "#Stages": self.stages,
            "#Layers": self.layers,
            "#Parts": self.partitions,
            "Bitstream": f"{self.bitstream_bytes / (1024 * 1024):.1f} MB",
        }


@dataclass
class CompileFlow:
    """What the compile flow built on the way to the program."""

    synth: SynthesisResult
    plan: PartitionPlan
    merge: MergeResult


class CompiledDesign:
    """Everything produced by one compile run.

    ``program``, ``report`` and ``fourstate`` are what a run reads.  The
    flow's intermediate products — ``synth``, ``plan`` and ``merge``, read
    by the probe catalog, the supervisor's gate-level fallback and the
    experiments — are one :class:`CompileFlow`.  A design read back from
    the compile cache (:func:`repro.harness.runner.compile_design`) holds
    a loader in its place and calls it on first touch, so a run never
    loads them, nor the flow modules that define them.
    """

    def __init__(
        self,
        program: GemProgram,
        report: CompileReport,
        flow: CompileFlow | Callable[[], CompileFlow],
        fourstate: DualRailCircuit | None = None,
    ) -> None:
        self.program = program
        self.report = report
        #: set when this design was compiled through the dual-rail transform
        #: (:func:`repro.fourstate.fastpath.compile_fourstate`): the rail map
        #: needed to encode 4-state stimuli and decode 4-state outputs
        self.fourstate = fourstate
        self._flow = flow

    @property
    def flow(self) -> CompileFlow:
        if not isinstance(self._flow, CompileFlow):
            self._flow = self._flow()
        return self._flow

    @property
    def synth(self) -> SynthesisResult:
        return self.flow.synth

    @property
    def plan(self) -> PartitionPlan:
        return self.flow.plan

    @property
    def merge(self) -> MergeResult:
        return self.flow.merge

    def __getstate__(self) -> dict:
        # a loader reads this process's cache directory: pickle what it loads
        return {**self.__dict__, "_flow": self.flow}

    @property
    def values(self) -> int:
        """Value system this design executes: 2 (plain) or 4 (dual-rail)."""
        return 4 if self.fourstate is not None else 2

    def simulator(
        self,
        batch: int = 1,
        profile: bool = False,
        backend: str | None = None,
    ) -> GemInterpreter:
        """An execution engine for this design; ``batch`` packs that many
        independent stimulus lanes into every state word (docs/ENGINE.md).
        Batches beyond 64 must be a whole number of 64-lane words.

        ``profile`` enables per-phase timers; ``backend`` picks how
        the executor runs a stage (default: the native C kernel where
        it can be built, else numpy; ``"numpy"`` forces the array loop).

        Designs compiled for ``values=4`` return a
        :class:`~repro.fourstate.fastpath.FourStateSimulator` — the same
        engine over the dual-rail program, plus 4-state encode/decode.
        """
        if self.fourstate is not None:
            from repro.fourstate.fastpath import FourStateSimulator

            return FourStateSimulator(
                self.program,
                dual=self.fourstate,
                batch=batch,
                profile=profile,
                backend=backend,
            )
        return GemSimulator(self.program, batch=batch, profile=profile, backend=backend)


#: The user-facing execution engine (paper's 'execution stage', §II) is the
#: interpreter itself: word-valued inputs in, word-valued outputs out, with
#: the per-cycle work counters exposed for the performance model.  Construct
#: with ``batch=B`` to simulate B independent stimulus streams per bitwise op
#: (``step``/``run`` then address lane 0; ``step_lanes`` / ``outputs_lanes``
#: address every lane).  A :class:`FourStateSimulator` is one too.
GemSimulator = GemInterpreter


class GemCompiler:
    """Drives the compile stage (paper §III-B..E)."""

    def __init__(self, config: GemConfig | None = None) -> None:
        self.config = config or GemConfig()

    def compile(self, circuit: Circuit | SynthesisResult) -> CompiledDesign:
        # the flow is imported here, not at the top: a run that reads a
        # compiled design back (repro.harness.runner) never loads it
        from repro.core import depth_opt, placement_kernel
        from repro.core.assembler import assemble
        from repro.core.merging import merge_partitions
        from repro.core.partition import partition_design
        from repro.core.synthesis import SynthesisResult, synthesize

        config = self.config
        config.validate()
        if isinstance(circuit, SynthesisResult):
            synth = circuit
        else:
            with TRACER.span("synthesis", cat="compile", args={"design": circuit.name}):
                synth = synthesize(circuit, config.synthesis)
            if config.optimize:
                # what the rebuild did to the size and depth
                opt_args = {"gates_in": synth.eaig.num_gates(), "levels_in": synth.eaig.depth()}
                with TRACER.span("depth_opt", cat="compile", args=opt_args):
                    synth = depth_opt.optimize(synth)
                    opt_args.update(
                        gates_out=synth.eaig.num_gates(), levels_out=synth.eaig.depth()
                    )
        eaig = synth.eaig

        pconfig = config.partition
        merge: MergeResult | None = None
        plan: PartitionPlan | None = None
        for attempt in range(config.max_partition_retries + 1):
            partition_args = {
                "attempt": attempt,
                "gates_per_partition": pconfig.gates_per_partition,
            }
            with TRACER.span("partition", cat="compile", args=partition_args):
                plan = partition_design(eaig, pconfig)
                # which loops the flow runs (C or Python, one library for
                # all seven), and how much work the partitioner did
                partition_args.update(
                    loops=placement_kernel.loops(),
                    bisections=sum(r.bisections for r in plan.stage_results),
                    fm_passes=sum(r.fm_passes for r in plan.stage_results),
                )
            span_args = {
                "partitions": plan.num_partitions,
                "sa_iterations": config.refine.iterations,
            }
            try:
                with TRACER.span("placement", cat="compile", args=span_args):
                    merge = merge_partitions(
                        eaig,
                        plan,
                        config.boomerang,
                        refine=config.refine,
                        merge_limit=config.merge_limit,
                    )
                    # how often Algorithm 1 ran Algorithm 2, and how the
                    # shipped placements fill the fold tree
                    use = [p.fold_use() for p in merge.placements]
                    span_args.update(
                        probes=merge.probes,
                        rejected=merge.rejected,
                        and_by_fold_level=[u["and_by_fold_level"] for u in use],
                        placements_per_and=[u["placements_per_and"] for u in use],
                        leaf_use=[u["leaf_use"] for u in use],
                    )
                break
            except UnmappableError:
                pconfig = replace(
                    pconfig, gates_per_partition=max(64, pconfig.gates_per_partition // 2)
                )
        if merge is None or plan is None:
            raise UnmappableError(
                f"{eaig.name}: could not find a mappable partitioning even at "
                f"{pconfig.gates_per_partition} gates per partition"
            )

        config_digest = config.digest()
        with TRACER.span(
            "bitstream", cat="compile", args={"partitions": merge.plan.num_partitions}
        ):
            program = assemble(eaig, synth, merge, config_digest=config_digest)
        eaig.drop_arrays()
        report = CompileReport(
            name=eaig.name,
            gates=eaig.num_gates(),
            levels=eaig.depth(),
            stages=merge.plan.num_stages,
            layers=max((p.num_layers for p in merge.placements), default=0),
            partitions=merge.plan.num_partitions,
            bitstream_bytes=program.num_bytes,
            replication_cost=merge.plan.replication_cost(),
            mean_utilization=merge.mean_utilization(),
            ram_blocks=len(eaig.rams),
            ffs=len(eaig.ffs),
            config_digest=config_digest,
        )
        return CompiledDesign(program, report, CompileFlow(synth=synth, plan=plan, merge=merge))


def compile_circuit(
    circuit: Circuit,
    config: GemConfig | None = None,
    *,
    values: int = 2,
    x_reset: bool = True,
    x_memory: bool = True,
) -> CompiledDesign:
    """Convenience one-shot compile.

    ``values=4`` compiles through the dual-rail transform so the fast
    engines execute X/Z semantics natively; ``x_reset`` / ``x_memory``
    control whether registers / memories power up unknown (only
    meaningful with ``values=4``).
    """
    from repro.fourstate.fastpath import compile_fourstate, validate_values

    if validate_values(values) == 4:
        return compile_fourstate(circuit, config, x_reset=x_reset, x_memory=x_memory)
    return GemCompiler(config).compile(circuit)
