"""Seeded random design generator for the differential fuzzer.

Everything the generator emits is a :class:`DesignSpec`: a flat,
JSON-serializable instruction list over a single *value pool*.  The pool
is indexed in declaration order — primary inputs, then registers, then
combinational ops, then memory read-data words — and every operand of an
op, register next-state, memory port, or output is a pool index.  Two
properties fall out of this representation, and both are load-bearing:

* **Replayability** — ``spec.build()`` is a pure function of the spec, so
  a ``.gemrepro`` file (spec + stimuli) reproduces a failure bit-exactly
  on any machine, with no RNG in the loop;
* **Shrinkability** — the delta-debugger (:mod:`repro.fuzz.shrink`)
  operates on the spec by deleting ops and remapping indices; ``build``
  coerces operand widths itself, so any well-indexed spec elaborates.

:func:`random_spec` draws a spec from :class:`ShapeKnobs`; the named
:data:`PROFILES` aim the knobs at the compile flow's corner cases: wide
buses, deep combinational chains that force boomerang layer splits,
behavioral RAMs of odd widths/depths that force §III-B adapter synthesis
(bank decode, width chunking, polyfill), clock-enabled registers, and
gate-heavy shapes that stress Algorithm 1 partition merging.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field

from repro.rtl.builder import CircuitBuilder, Value
from repro.rtl.ir import Circuit

#: op kinds a spec may contain (build() handles each one totally)
OP_KINDS = (
    "and", "or", "xor", "not", "add", "sub", "mul", "eq", "lt", "mux",
    "redand", "redor", "redxor", "shli", "shri", "shl", "shr", "slice",
    "concat", "resize", "const",
)


def _pow2_depth(depth: int) -> int:
    """Memories are power-of-two deep; specs may ask for any depth ≥ 1
    (e.g. the §III-B stress depth 8193) and get the next power of two."""
    return 1 << max(0, depth - 1).bit_length()


@dataclass
class RegSpec:
    """One register: ``next`` (and optional clock-enable) are pool indices
    resolved after the whole pool exists, so feedback is expressible."""

    name: str
    width: int
    init: int = 0
    next: int = 0
    #: pool index of a clock-enable (``next = en ? d : q``), or None
    en: int | None = None


@dataclass
class OpSpec:
    """One combinational op; ``a`` lists operand pool indices (which must
    precede this op in the pool).  Width/amount parameters ride along."""

    k: str
    a: list[int] = field(default_factory=list)
    amount: int = 0
    lo: int = 0
    w: int = 1
    v: int = 0


@dataclass
class MemSpec:
    """One behavioral memory plus its port wiring (pool indices).

    ``depth`` may be any value ≥ 1 and is rounded up to a power of two at
    build time; ``sync=False`` or ``extra_write=True`` force the §III-B
    polyfill path, ``second_read`` forces block content duplication.
    """

    name: str
    depth: int
    width: int
    addr: int
    wdata: int
    wen: int
    sync: bool = True
    #: pool index of a read-enable (sync ports only), or None
    ren: int | None = None
    #: second (sync) read port with its own address
    second_read: bool = False
    addr2: int = 0
    #: second write port (forces polyfill)
    extra_write: bool = False
    wen2: int = 0
    wdata2: int = 0
    init: list[int] = field(default_factory=list)

    @property
    def rounded_depth(self) -> int:
        return _pow2_depth(self.depth)

    def num_reads(self) -> int:
        return 2 if self.second_read else 1


@dataclass
class DesignSpec:
    """A complete, buildable, JSON-round-trippable design description."""

    name: str
    inputs: list[tuple[str, int]] = field(default_factory=list)
    regs: list[RegSpec] = field(default_factory=list)
    ops: list[OpSpec] = field(default_factory=list)
    mems: list[MemSpec] = field(default_factory=list)
    #: (output name, pool index) pairs
    outputs: list[tuple[str, int]] = field(default_factory=list)

    # -- pool layout ---------------------------------------------------------

    @property
    def n_fixed(self) -> int:
        """Pool entries before the ops: inputs + registers."""
        return len(self.inputs) + len(self.regs)

    @property
    def pool_size(self) -> int:
        reads = sum(m.num_reads() for m in self.mems)
        return self.n_fixed + len(self.ops) + reads

    def mem_read_base(self) -> int:
        return self.n_fixed + len(self.ops)

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        """Check every pool reference; raises ValueError on the first bad one."""
        size = self.pool_size
        port_limit = self.mem_read_base()  # mem ports cannot read mem data

        def check(idx: int | None, limit: int, what: str) -> None:
            if idx is None:
                return
            if not 0 <= idx < limit:
                raise ValueError(f"{self.name}: {what} index {idx} out of range [0, {limit})")

        for name, width in self.inputs:
            if width < 1:
                raise ValueError(f"{self.name}: input {name!r} width {width} < 1")
        for i, op in enumerate(self.ops):
            if op.k not in OP_KINDS:
                raise ValueError(f"{self.name}: unknown op kind {op.k!r}")
            limit = self.n_fixed + i
            for arg in op.a:
                check(arg, limit, f"op {i} ({op.k}) operand")
        for r in self.regs:
            check(r.next, size, f"reg {r.name!r} next")
            check(r.en, size, f"reg {r.name!r} enable")
        for m in self.mems:
            for what, idx in (
                ("addr", m.addr), ("wdata", m.wdata), ("wen", m.wen), ("ren", m.ren),
                ("addr2", m.addr2 if m.second_read else None),
                ("wen2", m.wen2 if m.extra_write else None),
                ("wdata2", m.wdata2 if m.extra_write else None),
            ):
                check(idx, port_limit, f"mem {m.name!r} {what}")
        for name, src in self.outputs:
            check(src, size, f"output {name!r}")
        if not self.outputs:
            raise ValueError(f"{self.name}: a spec needs at least one output")

    # -- elaboration ---------------------------------------------------------

    def build(self) -> Circuit:
        """Elaborate the spec into an RTL circuit (pure, deterministic)."""
        self.validate()
        b = CircuitBuilder(self.name)
        pool: list[Value] = []
        for name, width in self.inputs:
            pool.append(b.input(name, width))
        reg_handles = []
        for r in self.regs:
            reg = b.reg(r.name, r.width, init=r.init & ((1 << r.width) - 1))
            reg_handles.append(reg)
            pool.append(reg)
        for op in self.ops:
            pool.append(_build_op(b, pool, op))
        for m in self.mems:
            depth = m.rounded_depth
            mem = b.memory(m.name, depth, m.width, init=[w & ((1 << m.width) - 1) for w in m.init[:depth]])
            abits = max(1, (depth - 1).bit_length())
            b.write(mem, pool[m.wen].resize(1), pool[m.addr].resize(abits), pool[m.wdata].resize(m.width))
            if m.extra_write:
                b.write(mem, pool[m.wen2].resize(1), pool[m.addr].resize(abits), pool[m.wdata2].resize(m.width))
            ren = None if m.ren is None or not m.sync else pool[m.ren].resize(1)
            pool.append(b.read(mem, pool[m.addr].resize(abits), sync=m.sync, en=ren))
            if m.second_read:
                pool.append(b.read(mem, pool[m.addr2].resize(abits), sync=True))
        for r, reg in zip(self.regs, reg_handles):
            nxt = pool[r.next].resize(r.width)
            if r.en is not None:
                b.reg_en(reg, pool[r.en].resize(1), nxt)
            else:
                reg.next = nxt
        for name, src in self.outputs:
            b.output(name, pool[src])
        return b.build()

    # -- JSON ----------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "inputs": [list(p) for p in self.inputs],
            "regs": [asdict(r) for r in self.regs],
            "ops": [asdict(o) for o in self.ops],
            "mems": [asdict(m) for m in self.mems],
            "outputs": [list(p) for p in self.outputs],
        }

    @classmethod
    def from_json(cls, raw: dict) -> "DesignSpec":
        spec = cls(
            name=str(raw["name"]),
            inputs=[(str(n), int(w)) for n, w in raw.get("inputs", [])],
            regs=[RegSpec(**r) for r in raw.get("regs", [])],
            ops=[OpSpec(**o) for o in raw.get("ops", [])],
            mems=[MemSpec(**m) for m in raw.get("mems", [])],
            outputs=[(str(n), int(s)) for n, s in raw.get("outputs", [])],
        )
        spec.validate()
        return spec


def _build_op(b: CircuitBuilder, pool: list[Value], op: OpSpec) -> Value:
    """Elaborate one op descriptor; total over any validated spec (widths
    are coerced, slice bounds clamped) so shrunk specs always build."""
    k = op.k
    if k == "const":
        width = max(1, op.w)
        return b.const(op.v & ((1 << width) - 1), width)
    a = pool[op.a[0]]
    if k == "not":
        return ~a
    if k in ("redand", "redor", "redxor"):
        return {"redand": a.reduce_and, "redor": a.reduce_or, "redxor": a.reduce_xor}[k]()
    if k in ("shli", "shri"):
        amount = max(0, op.amount)
        return (a << amount) if k == "shli" else (a >> amount)
    if k == "slice":
        lo = min(max(0, op.lo), a.width - 1)
        hi = min(max(lo, lo + max(1, op.w) - 1), a.width - 1)
        return a[hi:lo]
    if k == "resize":
        return a.resize(max(1, op.w))
    if k == "concat":
        return b.concat(a, pool[op.a[1]])
    if k == "mux":
        sel = pool[op.a[0]].resize(1)
        x = pool[op.a[1]]
        return b.mux(sel, x, pool[op.a[2]].resize(x.width))
    c = pool[op.a[1]].resize(a.width)
    if k == "and":
        return a & c
    if k == "or":
        return a | c
    if k == "xor":
        return a ^ c
    if k == "add":
        return a + c
    if k == "sub":
        return a - c
    if k == "mul":
        return a * c
    if k == "eq":
        return a == c
    if k == "lt":
        return a.__lt__(c)
    if k == "shl":
        return a << c
    if k == "shr":
        return a >> c
    raise ValueError(f"unknown op kind {k!r}")  # validate() already rejects


# ---------------------------------------------------------------------------
# Random generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShapeKnobs:
    """Generation knobs; the named :data:`PROFILES` are presets of these."""

    n_inputs: int = 4
    n_regs: int = 3
    n_ops: int = 40
    #: widths drawn for inputs/regs/resizes
    widths: tuple[int, ...] = (1, 4, 8, 16)
    #: cap on arithmetic operand width (adders/multipliers grow fast)
    max_arith_width: int = 16
    #: length of one serially dependent op chain (boomerang depth stress)
    chain_len: int = 0
    #: probability a register gets a clock-enable
    clock_enable_frac: float = 0.25
    #: per-memory recipes: (depth choices, width choices, sync probability,
    #: second-read probability, extra-write probability)
    mem_recipes: tuple[tuple[tuple[int, ...], tuple[int, ...], float, float, float], ...] = ()
    n_outputs: int = 6
    #: compile profile the oracle should pair with this shape
    compile_profile: str = "small"
    #: probability an input drives an X mask on a given cycle (4-value
    #: campaigns: floating/partially-driven inputs); 0 = fully known
    x_input_rate: float = 0.0
    #: value system the oracle should run this shape under (2 or 4)
    values: int = 2


#: Named shape presets, each aimed at one compile-flow corner.
PROFILES: dict[str, ShapeKnobs] = {
    # balanced op soup with an occasional small memory
    "mixed": ShapeKnobs(
        mem_recipes=((((8, 16), (4, 8), 0.7, 0.2, 0.1)),),
    ),
    # wide buses: 32..96-bit bitwise traffic, narrow arithmetic
    "wide": ShapeKnobs(
        n_ops=30,
        widths=(32, 48, 64, 96),
        max_arith_width=16,
        n_regs=4,
    ),
    # one long serially dependent chain: forces multi-layer boomerang splits
    "deep": ShapeKnobs(
        n_ops=12,
        chain_len=48,
        widths=(1, 4, 8),
        max_arith_width=8,
    ),
    # RAM adapter stress: odd widths/depths, polyfill + block variants;
    # compiled with tiny native blocks so banks/chunks split even here
    "ram": ShapeKnobs(
        n_ops=18,
        mem_recipes=(
            ((1, 2, 24, 33), (1, 17, 33), 0.8, 0.3, 0.0),
            ((4, 8, 16), (3, 8), 0.4, 0.0, 0.4),
        ),
        compile_profile="ram_small_blocks",
    ),
    # clock-enabled register files: held state + enable gating
    "clock_en": ShapeKnobs(
        n_regs=8,
        clock_enable_frac=0.9,
        n_ops=30,
    ),
    # gate-heavy shape on a narrow core: stresses Algorithm 1 merging
    "merge_stress": ShapeKnobs(
        n_ops=110,
        n_regs=10,
        widths=(4, 8, 16, 24),
        compile_profile="merge",
    ),
    # 4-value x-propagation: unknown resets (the oracle powers registers
    # and memories up X) plus floating inputs that drive X masks ~1/3 of
    # the time — run against the FourStateSim golden via values=4
    "xprop": ShapeKnobs(
        n_ops=30,
        n_regs=5,
        clock_enable_frac=0.5,
        mem_recipes=((((8, 16), (4, 8), 0.7, 0.2, 0.2)),),
        x_input_rate=0.35,
        values=4,
    ),
}


@dataclass
class GeneratedDesign:
    """One generator draw: the spec plus its provenance."""

    spec: DesignSpec
    seed: int
    profile: str


def random_spec(seed: int, knobs: ShapeKnobs | None = None, name: str | None = None) -> DesignSpec:
    """Draw a random :class:`DesignSpec` (deterministic per seed+knobs)."""
    knobs = knobs or ShapeKnobs()
    rng = random.Random(seed)
    spec = DesignSpec(name=name or f"fuzz{seed}")
    for i in range(max(1, knobs.n_inputs)):
        spec.inputs.append((f"in{i}", rng.choice(knobs.widths)))
    # Reserve one 1-bit input so enables always have a natural driver.
    spec.inputs.append((f"in{len(spec.inputs)}", 1))
    for i in range(knobs.n_regs):
        spec.regs.append(RegSpec(name=f"r{i}", width=rng.choice(knobs.widths), init=rng.getrandbits(4)))

    def pool_len() -> int:
        return spec.n_fixed + len(spec.ops)

    def pick(limit: int | None = None) -> int:
        return rng.randrange(limit if limit is not None else pool_len())

    def width_of(idx: int) -> int:
        if idx < len(spec.inputs):
            return spec.inputs[idx][1]
        if idx < spec.n_fixed:
            return spec.regs[idx - len(spec.inputs)].width
        return _op_width(spec, idx)

    def narrow(idx: int, cap: int) -> int:
        """Pool index of ``idx`` capped to ``cap`` bits (resize op if needed)."""
        if width_of(idx) <= cap:
            return idx
        spec.ops.append(OpSpec(k="resize", a=[idx], w=cap))
        return pool_len() - 1

    def emit_random_op() -> None:
        roll = rng.randrange(14)
        a = pick()
        if roll <= 2:
            spec.ops.append(OpSpec(k=rng.choice(("and", "or", "xor")), a=[a, pick()]))
        elif roll == 3:
            a = narrow(a, knobs.max_arith_width)
            spec.ops.append(OpSpec(k=rng.choice(("add", "sub")), a=[a, pick()]))
        elif roll == 4:
            a = narrow(a, min(12, knobs.max_arith_width))
            spec.ops.append(OpSpec(k="mul", a=[a, pick()]))
        elif roll == 5:
            spec.ops.append(OpSpec(k=rng.choice(("eq", "lt")), a=[a, pick()]))
        elif roll == 6:
            spec.ops.append(OpSpec(k="mux", a=[pick(), a, pick()]))
        elif roll == 7:
            spec.ops.append(OpSpec(k="not", a=[a]))
        elif roll == 8:
            spec.ops.append(OpSpec(k=rng.choice(("redand", "redor", "redxor")), a=[a]))
        elif roll == 9:
            w = width_of(a)
            spec.ops.append(
                OpSpec(k=rng.choice(("shli", "shri")), a=[a], amount=rng.randrange(0, w + 2))
            )
        elif roll == 10:
            amt = narrow(pick(), 6)
            spec.ops.append(OpSpec(k=rng.choice(("shl", "shr")), a=[a, amt]))
        elif roll == 11:
            w = width_of(a)
            lo = rng.randrange(w)
            spec.ops.append(OpSpec(k="slice", a=[a], lo=lo, w=rng.randrange(1, w - lo + 1)))
        elif roll == 12:
            b2 = pick()
            if width_of(a) + width_of(b2) <= 128:
                spec.ops.append(OpSpec(k="concat", a=[a, b2]))
            else:
                spec.ops.append(OpSpec(k="resize", a=[a], w=rng.choice(knobs.widths)))
        else:
            spec.ops.append(OpSpec(k="const", w=rng.choice(knobs.widths), v=rng.getrandbits(16)))

    for _ in range(knobs.n_ops):
        emit_random_op()

    # Deep chain: each op consumes the previous one, defeating tree balancing.
    if knobs.chain_len:
        cur = pick()
        for j in range(knobs.chain_len):
            kind = ("add", "xor", "sub", "and")[j % 4]
            if kind in ("add", "sub"):
                cur = narrow(cur, knobs.max_arith_width)
            spec.ops.append(OpSpec(k=kind, a=[cur, pick()]))
            cur = pool_len() - 1

    # Memories (ports may reference any input/reg/op value).
    for mi, (depths, mwidths, p_sync, p_read2, p_write2) in enumerate(knobs.mem_recipes):
        depth = rng.choice(depths)
        width = rng.choice(mwidths)
        sync = rng.random() < p_sync
        extra_write = rng.random() < p_write2
        if not sync or extra_write:
            # polyfill path: keep the FF bill bounded
            depth = min(depth, 16)
            width = min(width, 8)
        mem = MemSpec(
            name=f"m{mi}",
            depth=depth,
            width=width,
            addr=pick(),
            wdata=pick(),
            wen=pick(),
            sync=sync,
            ren=pick() if sync and rng.random() < 0.5 else None,
            second_read=sync and rng.random() < p_read2,
            addr2=pick(),
            extra_write=extra_write,
            wen2=pick(),
            wdata2=pick(),
            init=[rng.getrandbits(min(width, 30)) for _ in range(min(_pow2_depth(depth), 8))],
        )
        spec.mems.append(mem)

    # Register feedback (may consume memory read data: RAM → logic loops).
    size = spec.pool_size
    for r in spec.regs:
        r.next = rng.randrange(size)
        if rng.random() < knobs.clock_enable_frac:
            r.en = rng.randrange(size)

    # Outputs: every register, every memory read word, a few random picks.
    for i in range(len(spec.regs)):
        spec.outputs.append((f"reg{i}", len(spec.inputs) + i))
    for j in range(size - spec.mem_read_base()):
        spec.outputs.append((f"mem_rd{j}", spec.mem_read_base() + j))
    for i in range(knobs.n_outputs):
        spec.outputs.append((f"o{i}", rng.randrange(size)))
    spec.validate()
    return spec


def _op_width(spec: DesignSpec, idx: int) -> int:
    """Static width of pool entry ``idx`` (ops resolved recursively)."""
    if idx < len(spec.inputs):
        return spec.inputs[idx][1]
    if idx < spec.n_fixed:
        return spec.regs[idx - len(spec.inputs)].width
    oi = idx - spec.n_fixed
    if oi >= len(spec.ops):  # memory read data
        base = spec.mem_read_base()
        for m in spec.mems:
            if idx - base < m.num_reads():
                return m.width
            base += m.num_reads()
        raise IndexError(idx)
    op = spec.ops[oi]
    if op.k in ("eq", "lt", "redand", "redor", "redxor"):
        return 1
    if op.k in ("resize",):
        return max(1, op.w)
    if op.k == "const":
        return max(1, op.w)
    if op.k == "slice":
        aw = _op_width(spec, op.a[0])
        lo = min(max(0, op.lo), aw - 1)
        return min(max(lo, lo + max(1, op.w) - 1), aw - 1) - lo + 1
    if op.k == "concat":
        return _op_width(spec, op.a[0]) + _op_width(spec, op.a[1])
    if op.k == "mux":
        return _op_width(spec, op.a[1])
    return _op_width(spec, op.a[0])


def generate_design(seed: int, profile: str = "mixed") -> GeneratedDesign:
    """One fuzzer draw from a named profile."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; have {sorted(PROFILES)}")
    spec = random_spec(seed, PROFILES[profile], name=f"fuzz_{profile}_{seed}")
    return GeneratedDesign(spec=spec, seed=seed, profile=profile)


def random_stimuli(
    spec: DesignSpec, seed: int, cycles: int, x_rate: float = 0.0
) -> list[dict[str, int]]:
    """Random input vectors for a spec (held one extra cycle 25% of the
    time, so enables and write strobes see realistic multi-cycle pulses).

    ``x_rate > 0`` makes inputs *float*: with that probability per input
    per vector, a ``name__x`` unknown-mask key rides next to the data
    word — the dual-rail engines and the 4-state golden both consume
    this representation, and it survives ``.gemrepro``'s integer-only
    stimulus encoding.  Held cycles hold their X masks too.
    """
    rng = random.Random(seed ^ 0x5F375A86)
    out: list[dict[str, int]] = []
    prev: dict[str, int] | None = None
    for _ in range(cycles):
        if prev is not None and rng.random() < 0.25:
            out.append(dict(prev))
            continue
        vec = {name: rng.getrandbits(width) for name, width in spec.inputs}
        if x_rate > 0:
            for name, width in spec.inputs:
                if rng.random() < x_rate:
                    mask = rng.getrandbits(width)
                    if mask:
                        vec[f"{name}__x"] = mask
        out.append(vec)
        prev = vec
    return out
