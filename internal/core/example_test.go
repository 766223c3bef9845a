package core_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/packet"
	"repro/internal/pipeline"
)

// An ADCP switch runs one coflow of three flows through the global
// partitioned area: the state of the coflow lives on one central pipeline,
// and the result it emits leaves on a port of a different egress pipeline.
func ExampleSwitch() {
	// 8 ports, each demultiplexed 1:2 into ingress pipelines, 4 central
	// pipelines (the global partitioned area) and 2 egress pipelines.
	cfg := core.DefaultConfig()
	cfg.Ports = 8
	cfg.DemuxFactor = 2
	cfg.CentralPipelines = 4
	cfg.EgressPipelines = 2

	// Count every packet of a coflow, and when the third arrives, emit a
	// summary to port 6 — a port on a different egress pipeline than the
	// state's central pipeline, which a classic RMT switch could not do
	// from egress-side state (Figure 2 vs 5).
	central := &pipeline.Program{
		Name: "quickstart",
		Funcs: []pipeline.StageFunc{
			func(st *pipeline.Stage, ctx *pipeline.Context) error {
				n, err := st.RegisterRMW(mat.RegAdd, 0, 1)
				if err != nil {
					return err
				}
				fmt.Printf("central pipeline saw packet %d of coflow %d\n", n, ctx.Decoded.Base.CoflowID)
				if n == 3 {
					summary := packet.BuildRaw(packet.Header{
						Proto: packet.ProtoRaw, CoflowID: ctx.Decoded.Base.CoflowID,
					}, 16)
					ctx.Emit(summary, 6)
				}
				ctx.Verdict = pipeline.VerdictConsume
				return nil
			},
		},
	}

	sw, err := core.New(cfg, core.Programs{Central: central})
	if err != nil {
		log.Fatal(err)
	}
	// Application-defined placement: everything of coflow 42 lands on
	// central pipeline 42 mod 4 = 2.
	sw.SetPartition(func(ctx *pipeline.Context) int {
		return int(ctx.Decoded.Base.CoflowID) % cfg.CentralPipelines
	})

	// Three flows of the coflow arrive on ports served by different
	// ingress pipelines.
	resultPort := -1
	for _, src := range []int{0, 3, 7} {
		pkt := packet.BuildRaw(packet.Header{DstPort: 1, SrcPort: uint16(src), CoflowID: 42, FlowID: uint32(src)}, 64)
		pkt.IngressPort = src
		out, err := sw.Process(pkt)
		if err != nil {
			log.Fatal(err)
		}
		for _, p := range out {
			resultPort = p.EgressPort
			fmt.Printf("delivered %d bytes on port %d (switch-generated=%v)\n",
				p.Len(), p.EgressPort, p.Data[5]&packet.FlagFromSwch != 0)
		}
	}

	fmt.Printf("ingress traversals: %d (across %d demuxed pipelines)\n",
		sw.IngressTraversals(), sw.NumIngressPipelines())
	fmt.Printf("central traversals: %d, consumed: %d, delivered: %d\n",
		sw.CentralTraversals(), sw.Consumed(), sw.Delivered())
	for i := range cfg.CentralPipelines {
		if n := sw.Central(i).Stage(0).Regs.Peek(0); n > 0 {
			fmt.Printf("state (count %d) lives on central pipeline %d; result exited port %d on egress pipeline %d\n",
				n, i, resultPort, sw.EgressPipelineOfPort(resultPort))
		}
	}
	// Output:
	// central pipeline saw packet 1 of coflow 42
	// central pipeline saw packet 2 of coflow 42
	// central pipeline saw packet 3 of coflow 42
	// delivered 36 bytes on port 6 (switch-generated=true)
	// ingress traversals: 3 (across 16 demuxed pipelines)
	// central traversals: 3, consumed: 3, delivered: 1
	// state (count 3) lives on central pipeline 2; result exited port 6 on egress pipeline 1
}
