// Package apps implements the in-network applications of the paper's
// Table 1 on both architectures: parameter aggregation (ML), a multi-key
// key/value cache, database filter-aggregate-reshuffle, graph pattern
// mining, and switch-initiated group communication. Each application
// provides an ADCP build (using the global partitioned area and array
// matching) and an RMT build (using the restructurings real deployments
// need: cross-pipeline recirculation, scalar/narrow processing, table
// replication), so the experiments can compare identical workloads.
package apps

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/packet"
	"repro/internal/pipeline"
	"repro/internal/rmt"
)

// PSConfig sizes a parameter-server deployment.
type PSConfig struct {
	// Workers are attached to ports [0, Workers).
	Workers int
	// ModelSize is the number of weights aggregated per round.
	ModelSize int
	// Width is the number of weights per packet. On ADCP any width up to
	// the array width works in one traversal; on RMT each value needs its
	// own stage RMW, so widths beyond the stage budget recirculate.
	Width int
}

// Validate checks the configuration against a switch geometry.
func (c PSConfig) Validate(ports int) error {
	switch {
	case c.Workers <= 0 || c.Workers > ports:
		return fmt.Errorf("apps: %d workers on %d ports", c.Workers, ports)
	case c.ModelSize <= 0 || c.Width <= 0:
		return fmt.Errorf("apps: model %d width %d", c.ModelSize, c.Width)
	case c.ModelSize%c.Width != 0:
		return fmt.Errorf("apps: model %d not chunk-aligned to width %d", c.ModelSize, c.Width)
	}
	return nil
}

// workerPorts lists the result fan-out. A program computes it once when
// it is built: the list is read per completed chunk and never written.
func (c PSConfig) workerPorts() []int {
	ports := make([]int, c.Workers)
	for i := range ports {
		ports[i] = i
	}
	return ports
}

// NewParamServerADCP builds an ADCP switch running the parameter server:
// TM1 partitions weight chunks across central pipelines by chunk index;
// the central program aggregates a whole array per traversal and emits the
// aggregated chunk to every worker port once all contributions arrived.
func NewParamServerADCP(cfg core.Config, ps PSConfig) (*core.Switch, error) {
	if err := ps.Validate(cfg.Ports); err != nil {
		return nil, err
	}
	if ps.Width > cfg.Pipe.PHVBudget.ArrayWidth && cfg.Pipe.PHVBudget.ArrayWidth > 0 {
		return nil, fmt.Errorf("apps: width %d exceeds ADCP array width %d", ps.Width, cfg.Pipe.PHVBudget.ArrayWidth)
	}
	P := cfg.CentralPipelines
	chunks := ps.ModelSize / ps.Width
	chunkRowsPerPipe := (chunks + P - 1) / P
	needCells := chunkRowsPerPipe * ps.Width
	if needCells > cfg.Pipe.RegisterCellsPerStage {
		return nil, fmt.Errorf("apps: need %d register cells per central stage, have %d",
			needCells, cfg.Pipe.RegisterCellsPerStage)
	}

	fanout, res := ps.workerPorts(), new(packet.MLHeader)
	central := &pipeline.Program{
		Name: "paramserver-central",
		Funcs: []pipeline.StageFunc{
			// Stage 0: contribution counter per chunk.
			func(st *pipeline.Stage, ctx *pipeline.Context) error {
				if ctx.Decoded.Base.Proto != packet.ProtoML {
					return nil // plain traffic flows through
				}
				chunk := int(ctx.Decoded.ML.Base) / ps.Width
				row := chunk / P
				cnt, err := st.RegisterRMW(mat.RegAdd, row, 1)
				if err != nil {
					return err
				}
				ctx.Scratch[0] = cnt // arrivals for this chunk so far
				return nil
			},
			// Stage 1: array-wide aggregation — all weights of the packet
			// update their sum cells in one traversal (§3.2 array
			// support applied to stateful memory).
			func(st *pipeline.Stage, ctx *pipeline.Context) error {
				if ctx.Decoded.Base.Proto != packet.ProtoML {
					return nil
				}
				ml := &ctx.Decoded.ML
				chunk := int(ml.Base) / ps.Width
				row := chunk / P
				for i, v := range ml.Values {
					sum := st.Regs.Execute(mat.RegAdd, row*ps.Width+i, uint64(v))
					ml.Values[i] = uint32(sum)
				}
				if int(ctx.Scratch[0]) == ps.Workers {
					// Last contribution: ml.Values now holds the final
					// sums. Fan the result out to every worker — any
					// port, thanks to TM2 (Figure 5).
					emitSums(ctx, res, ml, fanout...)
				}
				ctx.Verdict = pipeline.VerdictConsume
				return nil
			},
		},
	}

	sw, err := core.New(cfg, core.Programs{Central: central})
	if err != nil {
		return nil, err
	}
	for p := 0; p < P; p++ {
		pl := sw.Central(p)
		pl.Stage(0).Regs.Reserve(chunkRowsPerPipe)
		if pl.NumStages() > 1 {
			pl.Stage(1).Regs.Reserve(needCells)
		}
	}
	sw.SetPartition(func(ctx *pipeline.Context) int {
		if ctx.Decoded.Base.Proto != packet.ProtoML {
			return int(ctx.Decoded.Base.CoflowID) % P
		}
		return (int(ctx.Decoded.ML.Base) / ps.Width) % P
	})
	return sw, nil
}

// NewParamServerRMT builds an RMT switch running the restructured
// parameter server the way real deployments must (cf. SwitchML):
//
//   - All aggregation state lives in ONE ingress pipeline (the pipeline of
//     port 0). Worker packets arriving on other pipelines are sent to that
//     pipeline's loopback port and burn a second ingress traversal — the
//     §2 recirculation cost of colocating a coflow.
//   - Aggregation is scalar: each pipeline stage performs one register RMW
//     per traversal, so a packet can aggregate at most Stages-1 weights per
//     pass; wider packets recirculate for further passes.
//
// The returned switch has the loopback port marked; the caller must not
// attach a host to it.
func NewParamServerRMT(cfg rmt.Config, ps PSConfig) (*rmt.Switch, error) {
	if err := ps.Validate(cfg.Ports); err != nil {
		return nil, err
	}
	stages := cfg.Pipe.Stages
	usable := stages - 1 // stage 0 routes and counts
	if usable < 1 {
		return nil, fmt.Errorf("apps: %d stages leaves no aggregation stages", stages)
	}
	chunks := ps.ModelSize / ps.Width
	// Each packet covers its width in windows of `usable` values per pass;
	// stage s of pass p aggregates value p·usable+s-1 into cell
	// chunk·passes+p, so cells are unique per (chunk, value index).
	passes := (ps.Width + usable - 1) / usable
	if chunks*passes > cfg.Pipe.RegisterCellsPerStage {
		return nil, fmt.Errorf("apps: %d chunks × %d passes exceed %d register cells",
			chunks, passes, cfg.Pipe.RegisterCellsPerStage)
	}

	ppp := cfg.Ports / cfg.Pipelines
	pipelineOfPort := func(port int) int { return port / ppp }
	// The aggregation pipeline is the last one and its last port is the
	// loopback, keeping ports [0, Ports-1) free for workers.
	loopback := cfg.Ports - 1
	aggPipe := pipelineOfPort(loopback)
	if ps.Workers > loopback {
		return nil, fmt.Errorf("apps: %d workers leave no loopback port (need ≤ %d)", ps.Workers, loopback)
	}

	fanout, res := ps.workerPorts(), new(packet.MLHeader)
	funcs := make([]pipeline.StageFunc, stages)
	// Stage 0: steer to the aggregation pipeline, count contributions.
	funcs[0] = func(st *pipeline.Stage, ctx *pipeline.Context) error {
		if ctx.Decoded.Base.Proto != packet.ProtoML {
			return nil
		}
		if pipelineOfPort(ctx.Pkt.IngressPort) != aggPipe {
			// Wrong pipeline: loop into the aggregation pipeline. This
			// consumes an egress slot plus a fresh ingress slot.
			ctx.Egress = loopback
			ctx.Scratch[1] = 1 // steering pass marker
			return nil
		}
		ctx.Scratch[1] = 0
		if ctx.ElementOffset == 0 {
			chunk := int(ctx.Decoded.ML.Base) / ps.Width
			cnt, err := st.RegisterRMW(mat.RegAdd, chunk, 1)
			if err != nil {
				return err
			}
			ctx.Scratch[0] = cnt
		}
		return nil
	}
	// Stages 1..: one scalar RMW each — value ElementOffset+s-1.
	for s := 1; s < stages; s++ {
		funcs[s] = func(st *pipeline.Stage, ctx *pipeline.Context) error {
			if ctx.Decoded.Base.Proto != packet.ProtoML || ctx.Scratch[1] == 1 {
				return nil
			}
			ml := &ctx.Decoded.ML
			i := ctx.ElementOffset + s - 1
			if i < len(ml.Values) {
				chunk := int(ml.Base) / ps.Width
				pass := ctx.ElementOffset / usable
				cell := chunk*passes + pass
				sum, err := st.RegisterRMW(mat.RegAdd, cell, uint64(ml.Values[i]))
				if err != nil {
					return err
				}
				ml.Values[i] = uint32(sum)
				// The deparser must write the running sums back into the
				// packet: a recirculated pass re-parses the wire bytes,
				// and each value index is aggregated exactly once across
				// passes, so earlier windows must carry their sums.
				ctx.Modified = true
			}
			if s == stages-1 {
				// Last stage: advance the window or finish.
				if ctx.ElementOffset+usable < len(ml.Values) {
					ctx.ElementOffset += usable
					ctx.Verdict = pipeline.VerdictRecirculate
					return nil
				}
				if int(ctx.Scratch[0]) == ps.Workers {
					emitSums(ctx, res, ml, fanout...)
				}
				ctx.Verdict = pipeline.VerdictConsume
			}
			return nil
		}
	}

	sw, err := rmt.New(cfg, &pipeline.Program{Name: "paramserver-rmt", Funcs: funcs}, nil)
	if err != nil {
		return nil, err
	}
	if err := sw.MarkRecirculationPort(loopback); err != nil {
		return nil, err
	}
	agg := sw.Ingress(aggPipe)
	agg.Stage(0).Regs.Reserve(chunks)
	for s := 1; s < stages; s++ {
		agg.Stage(s).Regs.Reserve(chunks * passes)
	}
	return sw, nil
}

// emitSums sends a chunk's final sums from the switch to ports, encoded
// through res: a header the program makes once when it is built (a switch
// processes one packet at a time, but switches run on several goroutines).
func emitSums(ctx *pipeline.Context, res, ml *packet.MLHeader, ports ...int) {
	res.Base, res.Values = ml.Base, ml.Values
	ctx.Emit(ctx.Build(packet.Header{Proto: packet.ProtoML, CoflowID: ctx.Decoded.Base.CoflowID, Flags: packet.FlagFromSwch}, res), ports...)
}

// ResetParamServerADCP clears the aggregation state between training
// rounds (a control-plane register wipe, as real deployments do between
// all-reduce windows).
func ResetParamServerADCP(sw *core.Switch) { resetRegisters(sw.Config().CentralPipelines, sw.Central) }

// ResetParamServerRMT clears the RMT aggregation pipeline's registers
// between rounds.
func ResetParamServerRMT(sw *rmt.Switch) { resetRegisters(sw.Config().Pipelines, sw.Ingress) }

// resetRegisters wipes every register of pipelines [0, n).
func resetRegisters(n int, pipe func(int) *pipeline.Pipeline) {
	for p := 0; p < n; p++ {
		pl := pipe(p)
		for s := 0; s < pl.NumStages(); s++ {
			pl.Stage(s).Regs.Reset()
		}
	}
}
