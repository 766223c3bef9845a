package apps

import (
	"fmt"

	"repro/internal/mat"
	"repro/internal/packet"
	"repro/internal/pipeline"
	"repro/internal/rmt"
)

// NewParamServerRMTEgress builds the OTHER RMT restructuring of Figure 2:
// instead of steering flows into one ingress pipeline via loopback, all
// worker packets are TM-forwarded to one EGRESS pipeline and aggregated
// there. This avoids recirculation entirely — but:
//
//   - only the egress stages run the computation ("delaying computations
//     until the egress pipeline would forego using the ingress pipeline
//     stages, reducing the total stages involved ... by half"), so fewer
//     weights fit per pass... and egress pipelines cannot recirculate, so
//     packets wider than the egress stage budget are REJECTED outright;
//   - the aggregated result can only exit on the aggregation pipeline's
//     own ports ("the resulting flow can only be output to ports connected
//     to that specific pipeline"). Workers attached elsewhere never
//     receive it from the switch — the caller must bounce it off a host.
//
// The result is emitted to the anchor port only; ReachableWorkers reports
// which workers the switch can serve directly.
func NewParamServerRMTEgress(cfg rmt.Config, ps PSConfig) (*rmt.Switch, error) {
	if err := ps.Validate(cfg.Ports); err != nil {
		return nil, err
	}
	stages := cfg.Pipe.Stages
	usable := stages - 1
	if ps.Width > usable {
		return nil, fmt.Errorf("apps: width %d exceeds %d egress stages and egress cannot recirculate (Figure 2)", ps.Width, usable)
	}
	chunks := ps.ModelSize / ps.Width
	if chunks > cfg.Pipe.RegisterCellsPerStage {
		return nil, fmt.Errorf("apps: %d chunks exceed %d register cells", chunks, cfg.Pipe.RegisterCellsPerStage)
	}
	// Anchor: the last port; its egress pipeline hosts the aggregation.
	anchor, res := cfg.Ports-1, new(packet.MLHeader)

	// Ingress: steer every ML packet toward the anchor port (any ingress
	// pipeline can do this — the TM reaches every egress pipeline).
	ingress := &pipeline.Program{
		Name: "ps-egress-ingress",
		Funcs: []pipeline.StageFunc{
			func(st *pipeline.Stage, ctx *pipeline.Context) error {
				if ctx.Decoded.Base.Proto == packet.ProtoML {
					ctx.Egress = anchor
				}
				return nil
			},
		},
	}

	funcs := make([]pipeline.StageFunc, stages)
	funcs[0] = func(st *pipeline.Stage, ctx *pipeline.Context) error {
		if ctx.Decoded.Base.Proto != packet.ProtoML {
			return nil
		}
		chunk := int(ctx.Decoded.ML.Base) / ps.Width
		cnt, err := st.RegisterRMW(mat.RegAdd, chunk, 1)
		if err != nil {
			return err
		}
		ctx.Scratch[0] = cnt
		return nil
	}
	for s := 1; s < stages; s++ {
		funcs[s] = func(st *pipeline.Stage, ctx *pipeline.Context) error {
			if ctx.Decoded.Base.Proto != packet.ProtoML {
				return nil
			}
			ml := &ctx.Decoded.ML
			i := s - 1
			if i < len(ml.Values) {
				chunk := int(ml.Base) / ps.Width
				sum, err := st.RegisterRMW(mat.RegAdd, chunk, uint64(ml.Values[i]))
				if err != nil {
					return err
				}
				ml.Values[i] = uint32(sum)
			}
			if s == stages-1 {
				if int(ctx.Scratch[0]) == ps.Workers {
					// Figure 2: only THIS pipeline's ports are reachable
					// from egress. Emit to the anchor; the switch's
					// misroute guard would drop anything else anyway.
					emitSums(ctx, res, ml, anchor)
				}
				ctx.Verdict = pipeline.VerdictConsume
			}
			return nil
		}
	}
	egress := &pipeline.Program{Name: "ps-egress-agg", Funcs: funcs}
	return rmt.New(cfg, ingress, egress)
}

// ReachableWorkersEgress returns which of the workers can receive the
// egress-aggregated result directly from the switch: those on the anchor
// port's pipeline.
func ReachableWorkersEgress(cfg rmt.Config, ps PSConfig) []int {
	ppp := cfg.Ports / cfg.Pipelines
	aggPipe := (cfg.Ports - 1) / ppp
	var out []int
	for w := 0; w < ps.Workers; w++ {
		if w/ppp == aggPipe {
			out = append(out, w)
		}
	}
	return out
}
