// Package pipeline models a switch processing pipeline: a programmable
// parser, a fixed sequence of shared-nothing match-action stages, and a
// deparser (paper §2, Figure 1 bottom insert).
//
// A pipeline is clocked: at line rate it retires one packet per cycle, so a
// pipeline's modeled throughput is exactly its clock frequency in packets
// per second. Stage programs are sequences of per-stage functions produced
// by the program compiler (or written directly by tests); each function
// sees the stage's table memory and register files plus the per-packet
// context (PHV, decoded headers, verdict).
//
// A traversal parses only what its program reads: every pass walks the parse
// graph once, storing the fields its program's layout holds, and decodes the
// packet (same errors, cycles and counters whoever is looking); the PHV is
// filled from that walk the first time Context.PHV is called.
//
// The same Pipeline type serves as RMT ingress/egress pipeline and as ADCP
// ingress/central/egress pipeline — the architectures differ in how many
// pipelines they instantiate, how ports map onto them, what memory mode the
// stages use, and what sits between them (one TM vs two), all of which is
// composed by the rmt and core packages.
package pipeline

import (
	"errors"
	"fmt"

	"repro/internal/mat"
	"repro/internal/packet"
	"repro/internal/phv"
)

// Config describes a pipeline's geometry and clock.
type Config struct {
	// Stages is the number of match-action stages (RMT switches ship
	// 12–20; we default to 12 ingress + 12 egress like the original RMT
	// paper's 32-stage total budget).
	Stages int
	// MAUsPerStage is the number of match-action units per stage (16 in
	// the paper's discussion).
	MAUsPerStage int
	// TableEntriesPerStage is the SRAM entry budget of each stage.
	TableEntriesPerStage int
	// RegisterCellsPerStage is the stateful register cells per stage.
	RegisterCellsPerStage int
	// MemoryMode selects scalar (RMT), array-interconnect (ADCP §3.2), or
	// multi-clock (§4) stage memory.
	MemoryMode mat.MemoryMode
	// MemoryClockMult is the memory:pipeline clock ratio for multi-clock.
	MemoryClockMult int
	// ClockHz is the pipeline clock. At line rate the pipeline retires one
	// packet per cycle, so this is also its packet rate ceiling.
	ClockHz float64
	// PHVBudget is the packet-header-vector container budget.
	PHVBudget phv.Budget
}

// DefaultRMTConfig mirrors a Tofino-class pipeline: 12 stages, 16 MAUs per
// stage, 64K entries and 4K register cells per stage, scalar memory,
// 1.25 GHz.
func DefaultRMTConfig() Config {
	return Config{
		Stages:                12,
		MAUsPerStage:          mat.StageMAUs,
		TableEntriesPerStage:  64 * 1024,
		RegisterCellsPerStage: 4 * 1024,
		MemoryMode:            mat.ModeScalar,
		ClockHz:               1.25e9,
		PHVBudget:             phv.DefaultBudget,
	}
}

// DefaultADCPConfig is the ADCP counterpart: same stage count and SRAM, but
// array-interconnected stage memory and the ADCP PHV with array containers.
// The clock is lower (§3.3/§4: demultiplexing lets pipelines run slower).
func DefaultADCPConfig() Config {
	c := DefaultRMTConfig()
	c.MemoryMode = mat.ModeArray
	c.ClockHz = 1.0e9
	c.PHVBudget = phv.ADCPBudget
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Stages <= 0:
		return fmt.Errorf("pipeline: %d stages", c.Stages)
	case c.MAUsPerStage <= 0:
		return fmt.Errorf("pipeline: %d MAUs per stage", c.MAUsPerStage)
	case c.TableEntriesPerStage <= 0:
		return fmt.Errorf("pipeline: %d table entries per stage", c.TableEntriesPerStage)
	case c.RegisterCellsPerStage < 0:
		return fmt.Errorf("pipeline: negative register cells")
	case c.ClockHz <= 0:
		return fmt.Errorf("pipeline: clock %v Hz", c.ClockHz)
	}
	return nil
}

// Stage is one match-action stage: exact-match table memory and a
// register file.
type Stage struct {
	Index int
	Mem   *mat.StageMemory
	Regs  *mat.RegisterFile

	// rmwDone guards the one-RMW-per-packet-per-stage constraint; the
	// pipeline resets it between packets.
	rmwDone bool
}

// RegisterRMW performs a read-modify-write on the stage's register file,
// enforcing the hardware constraint of at most one RMW per packet per
// stage. A second call in the same traversal returns an error — the
// program needed another stage (or another pass) for that.
func (s *Stage) RegisterRMW(op mat.RegisterOp, idx int, arg uint64) (uint64, error) {
	if s.rmwDone {
		return 0, fmt.Errorf("pipeline: stage %d: second register RMW in one traversal", s.Index)
	}
	if idx < 0 || idx >= s.Regs.Size() {
		return 0, fmt.Errorf("pipeline: stage %d: register index %d out of [0,%d)", s.Index, idx, s.Regs.Size())
	}
	s.rmwDone = true
	return s.Regs.Execute(op, idx, arg), nil
}

// Verdict is the fate of a packet after a traversal.
type Verdict int

// Verdicts.
const (
	VerdictForward Verdict = iota
	VerdictDrop
	VerdictRecirculate // RMT escape hatch: another pass needed
	VerdictConsume     // absorbed into switch state (e.g. partial aggregate)
)

// String returns the verdict mnemonic.
func (v Verdict) String() string {
	switch v {
	case VerdictForward:
		return "forward"
	case VerdictDrop:
		return "drop"
	case VerdictRecirculate:
		return "recirculate"
	case VerdictConsume:
		return "consume"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Context carries one packet through a traversal.
type Context struct {
	Pkt     *packet.Packet
	Decoded packet.Decoded

	Verdict   Verdict
	Egress    int   // output port (or central pipeline index at TM1)
	Multicast []int // when non-nil, overrides Egress with multiple ports

	// ElementOffset is the index of the array element this traversal
	// operates on. RMT scalar programs advance it by their per-pass
	// parallelism and recirculate until all elements are covered.
	ElementOffset int

	// Modified marks that headers changed and the deparser must reencode.
	Modified bool

	// Cycles accumulates modeled pipeline cycles spent on this traversal
	// beyond the baseline (extra memory beats etc.).
	Cycles int

	// Scratch is scratch space for programs, modeling PHV temporary
	// fields carried between stages. Like ElementOffset it survives
	// recirculated passes (switch metadata rides along with the packet).
	Scratch [4]uint64

	// Emissions are switch-generated packets produced by this traversal
	// (e.g. an aggregation result fanned out to workers). The surrounding
	// switch routes them onward.
	Emissions []Emission

	// released guards the context free list against double-Release; a
	// released context is owned by the pipeline until Process hands it
	// out again.
	released bool

	// The PHV is built on first use (see PHV): parsed is the bytes the
	// latest pass began with (nil once released), path the parse states
	// that pass visited (FlatResult.Path), vec the vector once someone has asked for it.
	pipe   *Pipeline
	parsed []byte
	path   uint64
	vec    *phv.Vector
}

// PHV returns the traversal's packet header vector: what the parser
// extracted from the bytes the pass began with, plus whatever programs have
// written since. It is filled on the first call — a traversal nobody asks
// never builds one — from the result the pass's own walk left, and from then
// on refreshed by every Resume, so reads are what a vector filled at parse
// time would hold. Only a vector first asked for once a pipeline of the same
// NewN call has walked other bytes is walked again, from the pass's own
// bytes, into a result of its own; those must not have been rewritten since.
func (c *Context) PHV() *phv.Vector {
	if c.vec == nil && c.parsed != nil {
		p, res := c.pipe, &c.pipe.sh.flat
		c.vec = p.pool.Get()
		if p.sh.flatOf != c { // flat holds a later walk, which this must not clobber
			res = &p.sh.rebuilt
			_ = p.bound.Run(c.parsed, 0, res) // bytes this parser has walked without error
		}
		fill(c.vec, res)
	}
	return c.vec
}

// Emission is a packet generated inside the switch, destined to one or more
// output ports.
type Emission struct {
	Pkt   *packet.Packet
	Ports []int
}

// ClearEmissions marks the context's emissions consumed: elements are
// zeroed (so recycled contexts don't pin packets) but the backing array
// is kept for reuse. Switches call this after routing emissions onward.
func (c *Context) ClearEmissions() {
	for i := range c.Emissions {
		c.Emissions[i] = Emission{}
	}
	c.Emissions = c.Emissions[:0]
}

// Emit queues a switch-generated packet for the given output ports. The
// emission inherits the triggering packet's recirculation count: a result
// produced on a packet's Nth pass leaves the switch that much later.
func (c *Context) Emit(pkt *packet.Packet, ports ...int) {
	pkt.Data[5] |= packet.FlagFromSwch
	pkt.Recirculations = c.Pkt.Recirculations
	c.Emissions = append(c.Emissions, Emission{Pkt: pkt, Ports: ports})
}

// Build cuts a packet a stage program makes (a result it emits) from the
// arena the pipeline's deparser re-encodes into.
func (c *Context) Build(h packet.Header, body packet.Encoder) *packet.Packet {
	return c.pipe.sh.arena.Build(h, body)
}

// StageFunc is the compiled program of one stage.
type StageFunc func(s *Stage, ctx *Context) error

// Program is a full pipeline program: one function per stage (nil entries
// are no-ops) and the field layout its PHV uses.
type Program struct {
	Name   string
	Funcs  []StageFunc
	Layout *phv.Layout
}

// Pipeline is a parser + stages + deparser with cycle accounting.
type Pipeline struct {
	cfg    Config
	stages []Stage
	pool   phv.Pool

	// bound is the parse graph pre-resolved against the layout, sh what
	// the pipelines of one NewN call share, and ctxFree the context free
	// list: together they make the steady-state traversal allocation-free.
	bound   *packet.BoundParser
	sh      *shared
	ctxFree []*Context

	packets     uint64
	drops       uint64
	recircs     uint64
	parseErrors uint64
	stageCycles uint64

	observer      Observer
	observeStages bool // observer wants every event, not only EvDone
}

// shared is what the pipelines of one NewN call, traversed one at a time,
// hold in common: the arena for what the deparser and stage programs build
// (Context.Build), the latest walk (flat, of flatOf's pass; nil while it
// holds none) and rebuilt, which Context.PHV walks earlier bytes into.
type shared struct {
	arena         packet.Arena
	flat, rebuilt packet.FlatResult
	flatOf        *Context
}

// New builds a pipeline. The layout must be allocated from cfg.PHVBudget
// (the program compiler guarantees this; direct users must too).
func New(cfg Config, parser *packet.ParseGraph, layout *phv.Layout) (*Pipeline, error) {
	ps, err := NewN(1, cfg, parser, layout)
	if err != nil {
		return nil, err
	}
	return ps[0], nil
}

// NewN builds n identical pipelines, as a switch does: the parse graph is
// bound against the layout once and the (immutable) bound parser shared,
// and the pipelines, their stages and the stages' table and register
// headers are each one slice for all n, filled in place — a handful of
// allocations however many stages the switch has. The n share one packet
// arena and one parse result. A graph that does not validate is an error.
func NewN(n int, cfg Config, parser *packet.ParseGraph, layout *phv.Layout) ([]*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if parser == nil || layout == nil {
		return nil, errors.New("pipeline: a parse graph and a PHV layout are required")
	}
	bound, err := parser.Bind(func(name string, array bool) int {
		id := layout.Lookup(name)
		if id == phv.Invalid || layout.IsArray(id) != array {
			return -1
		}
		return int(id)
	})
	if err != nil {
		return nil, fmt.Errorf("pipeline: bind parse graph: %w", err)
	}
	total := n * cfg.Stages
	pipes := make([]Pipeline, n)
	stages := make([]Stage, total)
	mems := mat.NewStageMemories(total, cfg.MemoryMode, cfg.MAUsPerStage, cfg.TableEntriesPerStage, cfg.MemoryClockMult)
	regs := mat.NewRegisterFiles(total, cfg.RegisterCellsPerStage)
	for k := range stages {
		st := &stages[k]
		st.Index, st.Mem, st.Regs = k%cfg.Stages, &mems[k], &regs[k]
	}
	ps, sh := make([]*Pipeline, n), new(shared)
	for i := range ps {
		p := &pipes[i]
		p.cfg, p.pool, p.bound, p.sh = cfg, *phv.NewPool(layout), bound, sh
		p.stages = stages[i*cfg.Stages : (i+1)*cfg.Stages : (i+1)*cfg.Stages]
		ps[i] = p
	}
	return ps, nil
}

// Config returns the pipeline's configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// Stage returns stage i for table/register installation.
func (p *Pipeline) Stage(i int) *Stage { return &p.stages[i] }

// NumStages returns the stage count.
func (p *Pipeline) NumStages() int { return len(p.stages) }

// Process runs one packet through parse → stages → deparse and returns the
// finished context. The caller must return the context with Release;
// released contexts are recycled, so neither the context nor its Decoded
// view may be read after Release.
func (p *Pipeline) Process(pkt *packet.Packet, prog *Program) (*Context, error) {
	var ctx *Context
	if n := len(p.ctxFree); n > 0 {
		ctx = p.ctxFree[n-1]
		p.ctxFree[n-1] = nil
		p.ctxFree = p.ctxFree[:n-1]
		ctx.Pkt = pkt
		ctx.Verdict = VerdictForward
		ctx.Egress = -1
		ctx.Multicast = nil
		ctx.ElementOffset = 0
		ctx.Modified = false
		ctx.Cycles = 0
		ctx.Scratch = [4]uint64{}
		ctx.released = false
	} else {
		ctx = &Context{Pkt: pkt, Egress: -1, pipe: p}
	}
	if err := p.runInto(ctx, prog); err != nil {
		p.Release(ctx)
		return nil, err
	}
	return ctx, nil
}

// Resume re-runs a recirculated context through the pipeline: the context
// keeps its ElementOffset and PHV across passes, as switch recirculation
// preserves attached metadata.
func (p *Pipeline) Resume(ctx *Context, prog *Program) error {
	ctx.Verdict = VerdictForward
	ctx.Cycles = 0
	return p.runInto(ctx, prog)
}

// fill copies what a walk extracted into v: scalars, and arrays where the
// layout has array containers (ADCP §3.2: arrays as first-class parse
// outputs; RMT layouts have none, so the binder drops them to
// bounds-check-only).
func fill(v *phv.Vector, res *packet.FlatResult) {
	for i := range res.Fields {
		v.Set(phv.FieldID(res.Fields[i].Slot), res.Fields[i].Val)
	}
	for i := range res.Arrays {
		v.SetArray(phv.FieldID(res.Arrays[i].Slot), res.Arrays[i].Vals)
	}
}

func (p *Pipeline) runInto(ctx *Context, prog *Program) error {
	// Parse: one walk of the bound graph for its checks, its cost and the
	// fields the layout holds.
	res := &p.sh.flat
	data := ctx.Pkt.Data
	err := p.bound.Run(data, 0, res)
	p.sh.flatOf = nil // res holds no earlier pass now
	if err != nil {
		p.parseErrors++
		return fmt.Errorf("pipeline: parse: %w", err)
	}
	ctx.Cycles += res.StatesVisited
	// A recirculated pass parses into the PHV the earlier passes left. A
	// vector already built is refreshed; one nobody has asked for yet owes
	// those passes nothing as long as this one took the same path through
	// the graph (same states, same fields, all overwritten), and is built
	// from their bytes first when it did not.
	if res.Path == 0 || res.Path != ctx.path {
		ctx.PHV()
	}
	ctx.path, ctx.parsed, p.sh.flatOf = res.Path, data, ctx
	if ctx.vec != nil {
		fill(ctx.vec, res)
	}
	if err := ctx.Decoded.DecodePacket(ctx.Pkt); err != nil {
		p.parseErrors++
		return fmt.Errorf("pipeline: decode: %w", err)
	}
	stageEvents := p.observer != nil && p.observeStages
	if stageEvents {
		p.observer(Event{Kind: EvParsed, Stage: -1, Cycles: ctx.Cycles, Verdict: ctx.Verdict})
	}

	// Stages. Unless an observer wants stage events the traversal is a
	// single flat loop over the program's populated stages: empty stages
	// contribute their cycle via arithmetic instead of loop iterations,
	// and no per-stage closures or events are involved. Cycle accounting
	// telescopes to exactly the per-stage loop's: a traversal that breaks
	// at stage i has paid i+1 stage cycles, a full pass all of them.
	if !stageEvents {
		n := len(p.stages)
		prev := -1
		if prog != nil {
			limit := len(prog.Funcs)
			if n < limit {
				limit = n
			}
			for i := 0; i < limit; i++ {
				fn := prog.Funcs[i]
				if fn == nil {
					continue
				}
				ctx.Cycles += i - prev // skipped stages plus this one
				prev = i
				st := &p.stages[i]
				st.rmwDone = false
				if err := fn(st, ctx); err != nil {
					// The failing stage's own cycle is already counted,
					// matching the per-stage loop (which counts it only
					// on success) is moot: errors abort the traversal
					// before counters publish.
					return fmt.Errorf("pipeline: stage %d: %w", i, err)
				}
				if ctx.Verdict == VerdictDrop || ctx.Verdict == VerdictConsume {
					break
				}
			}
		}
		if ctx.Verdict != VerdictDrop && ctx.Verdict != VerdictConsume {
			ctx.Cycles += n - 1 - prev // trailing empty stages
		}
	} else {
		for i := range p.stages {
			st := &p.stages[i]
			st.rmwDone = false
			if prog != nil && i < len(prog.Funcs) && prog.Funcs[i] != nil {
				if err := prog.Funcs[i](st, ctx); err != nil {
					return fmt.Errorf("pipeline: stage %d: %w", i, err)
				}
			}
			ctx.Cycles++
			p.observer(Event{Kind: EvStage, Stage: i, Cycles: ctx.Cycles, Verdict: ctx.Verdict})
			if ctx.Verdict == VerdictDrop || ctx.Verdict == VerdictConsume {
				break
			}
		}
	}
	p.stageCycles += uint64(ctx.Cycles)

	// Deparse.
	if ctx.Modified && ctx.Verdict != VerdictDrop && ctx.Verdict != VerdictConsume {
		np := p.sh.arena.Reencode(&ctx.Decoded)
		np.IngressPort = ctx.Pkt.IngressPort
		np.EgressPort = ctx.Pkt.EgressPort
		np.Recirculations = ctx.Pkt.Recirculations
		ctx.Pkt = np
		ctx.Modified = false
		ctx.Cycles++
		if stageEvents {
			p.observer(Event{Kind: EvDeparsed, Stage: -1, Cycles: ctx.Cycles, Verdict: ctx.Verdict})
		}
	}
	if p.observer != nil {
		p.observer(Event{Kind: EvDone, Stage: -1, Cycles: ctx.Cycles, Verdict: ctx.Verdict})
	}

	p.packets++
	switch ctx.Verdict {
	case VerdictDrop:
		p.drops++
	case VerdictRecirculate:
		p.recircs++
	}
	return nil
}

// Release returns the context (and its PHV) to the pipeline's pools.
// The context must not be read afterwards: Process recycles it. Double
// release is a safe no-op.
func (p *Pipeline) Release(ctx *Context) {
	if ctx == nil || ctx.released {
		return
	}
	if ctx.vec != nil {
		p.pool.Put(ctx.vec)
		ctx.vec = nil
	}
	ctx.parsed = nil
	ctx.released = true
	ctx.Pkt = nil
	ctx.Multicast = nil
	ctx.ClearEmissions()
	p.ctxFree = append(p.ctxFree, ctx)
}

// Counters is the pipeline's checkpointable traversal accounting.
type Counters struct {
	Packets, Drops, Recircs, ParseErrors, StageCycles uint64
}

// Counters exports the pipeline's traversal accounting.
func (p *Pipeline) Counters() Counters {
	return Counters{
		Packets:     p.packets,
		Drops:       p.drops,
		Recircs:     p.recircs,
		ParseErrors: p.parseErrors,
		StageCycles: p.stageCycles,
	}
}

// RestoreCounters overwrites the pipeline's traversal accounting from a
// checkpoint.
func (p *Pipeline) RestoreCounters(c Counters) {
	p.packets = c.Packets
	p.drops = c.Drops
	p.recircs = c.Recircs
	p.parseErrors = c.ParseErrors
	p.stageCycles = c.StageCycles
}

// Packets returns total traversals processed.
func (p *Pipeline) Packets() uint64 { return p.packets }

// Drops returns traversals that ended in a drop verdict.
func (p *Pipeline) Drops() uint64 { return p.drops }

// Recirculations returns traversals that requested another pass.
func (p *Pipeline) Recirculations() uint64 { return p.recircs }

// ParseErrors returns packets rejected by the parser.
func (p *Pipeline) ParseErrors() uint64 { return p.parseErrors }

// StageCycles returns the cumulative modeled cycles across traversals.
func (p *Pipeline) StageCycles() uint64 { return p.stageCycles }

// ModeledSeconds converts a traversal count into modeled device time: at
// line rate the pipeline retires one packet per cycle.
func (p *Pipeline) ModeledSeconds(traversals uint64) float64 {
	return float64(traversals) / p.cfg.ClockHz
}

// PacketRateCeiling returns the pipeline's line-rate packet ceiling in
// packets per second (= clock, one packet retired per cycle).
func (p *Pipeline) PacketRateCeiling() float64 { return p.cfg.ClockHz }
