// Package rmt models a classic RMT switch (paper §2, Figure 1): n ports
// multiplexed onto a small number of ingress pipelines, a single
// shared-memory traffic manager, egress pipelines demultiplexed back onto
// the ports, and a recirculation path.
//
// The model deliberately preserves the three limitations the paper builds
// on:
//
//	① Shared-nothing pipelines: each pipeline instance owns its stage
//	  memory, so coflow state can only be colocated when the member flows
//	  arrive on ports of the same pipeline; egress pipelines can only emit
//	  on their own ports (Figure 2). Reshuffling requires recirculation,
//	  which consumes ingress slots and is accounted.
//	② Scalar processing: stage memories are in mat.ModeScalar — matching k
//	  keys from one packet requires k replicated table copies, and register
//	  files allow one RMW per stage per traversal.
//	③ Multiplexed ports: the required pipeline clock follows
//	  analytic.RequiredPipelineFreqHz for the configured ports-per-pipeline
//	  and minimum packet size (Table 2).
package rmt

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/pipeline"
	"repro/internal/tm"
)

// Config describes an RMT switch.
type Config struct {
	// Ports is the number of front-panel ports.
	Ports int
	// Pipelines is the number of ingress (and egress) pipelines; Ports
	// must divide evenly across them.
	Pipelines int
	// PortSpeedGbps is the per-port line rate.
	PortSpeedGbps float64
	// TMBufferBytes is the shared packet buffer of the traffic manager.
	TMBufferBytes int
	// Pipe configures every pipeline instance.
	Pipe pipeline.Config
}

// DefaultConfig mirrors Table 2's 6.4 Tbps row: 64×100 Gbps ports over 4
// pipelines at 1.25 GHz.
func DefaultConfig() Config {
	return Config{
		Ports:         64,
		Pipelines:     4,
		PortSpeedGbps: 100,
		TMBufferBytes: 64 << 20,
		Pipe:          pipeline.DefaultRMTConfig(),
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Ports <= 0:
		return fmt.Errorf("rmt: %d ports", c.Ports)
	case c.Pipelines <= 0:
		return fmt.Errorf("rmt: %d pipelines", c.Pipelines)
	case c.Ports%c.Pipelines != 0:
		return fmt.Errorf("rmt: %d ports do not divide across %d pipelines", c.Ports, c.Pipelines)
	case c.TMBufferBytes <= 0:
		return fmt.Errorf("rmt: TM buffer %d", c.TMBufferBytes)
	}
	return c.Pipe.Validate()
}

// Switch is an RMT switch instance.
type Switch struct {
	cfg     Config
	ingress []*pipeline.Pipeline
	egress  []*pipeline.Pipeline
	tmgr    *tm.SharedMemoryTM // one queue per egress pipeline

	ingressProg *pipeline.Program
	egressProg  *pipeline.Program

	// MaxRecirculations bounds passes per packet (guard against programs
	// that never converge); default 64.
	MaxRecirculations int

	// recircPorts marks loopback ports: a packet "delivered" to one
	// re-enters the ingress pipeline that port belongs to. This is how
	// real RMT deployments reshuffle flows across pipelines — at the cost
	// of consuming both an egress slot and a fresh ingress slot per pass
	// (the §2 "great bandwidth and application complexity cost").
	recircPorts map[int]bool

	recircTraversals uint64
	misrouted        uint64
	delivered        uint64
	deliveredBytes   uint64
	txPerPort        []uint64

	// replicas backs multicast's replicas, recirculation's byte copies and
	// the slices Process returns.
	replicas packet.Arena
}

// New builds an RMT switch with the given programs. Programs may be nil
// (pure forwarding by base-header DstPort). Both programs must use layouts
// allocated from cfg.Pipe.PHVBudget.
func New(cfg Config, ingressProg, egressProg *pipeline.Program) (*Switch, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Switch{
		cfg:               cfg,
		ingressProg:       ingressProg,
		egressProg:        egressProg,
		tmgr:              tm.NewSharedMemoryTM(cfg.Pipelines, cfg.TMBufferBytes),
		MaxRecirculations: 64,
		recircPorts:       make(map[int]bool),
		txPerPort:         make([]uint64, cfg.Ports),
	}
	parser := packet.StandardGraph()
	layout := pipeline.LayoutOf(ingressProg, egressProg, cfg.Pipe.PHVBudget)
	ps, err := pipeline.NewN(2*cfg.Pipelines, cfg.Pipe, parser, layout)
	if err != nil {
		return nil, err
	}
	s.ingress, s.egress = ps[:cfg.Pipelines], ps[cfg.Pipelines:]
	return s, nil
}

// PipelineOfPort returns the pipeline index serving a port: ports are
// striped contiguously (ports [k·ppp, (k+1)·ppp) on pipeline k).
func (s *Switch) PipelineOfPort(port int) int {
	return port / (s.cfg.Ports / s.cfg.Pipelines)
}

// PortsOfPipeline returns the ports attached to egress pipeline pl.
func (s *Switch) PortsOfPipeline(pl int) []int {
	ppp := s.cfg.Ports / s.cfg.Pipelines
	ports := make([]int, ppp)
	for i := range ports {
		ports[i] = pl*ppp + i
	}
	return ports
}

// Ingress returns ingress pipeline i (for installing table state).
func (s *Switch) Ingress(i int) *pipeline.Pipeline { return s.ingress[i] }

// Egress returns egress pipeline i.
func (s *Switch) Egress(i int) *pipeline.Pipeline { return s.egress[i] }

// Config returns the switch configuration.
func (s *Switch) Config() Config { return s.cfg }

// Process runs one packet through the full switch path — ingress pipeline
// (with recirculation), traffic manager, egress pipeline — and returns the
// packets delivered on output ports (EgressPort set on each). Processing is
// synchronous: the TM is drained before returning.
func (s *Switch) Process(pkt *packet.Packet) ([]*packet.Packet, error) {
	if pkt.IngressPort < 0 || pkt.IngressPort >= s.cfg.Ports {
		return nil, fmt.Errorf("rmt: ingress port %d out of range", pkt.IngressPort)
	}
	ipl := s.PipelineOfPort(pkt.IngressPort)
	in := s.ingress[ipl]
	ctx, err := in.Process(pkt, s.ingressProg)
	if err != nil {
		return nil, err
	}
	defer in.Release(ctx)

	for ctx.Verdict == pipeline.VerdictRecirculate {
		if ctx.Pkt.Recirculations >= s.MaxRecirculations {
			return nil, fmt.Errorf("rmt: packet exceeded %d recirculations", s.MaxRecirculations)
		}
		ctx.Pkt.Recirculations++
		s.markRecirc(ctx.Pkt)
		s.recircTraversals++
		if err := in.Resume(ctx, s.ingressProg); err != nil {
			return nil, err
		}
	}

	if err := s.routeContext(ctx); err != nil {
		return nil, err
	}
	return s.drainTM()
}

// markRecirc sets FlagRecirc in p's bytes, which other holders share (see
// packet.Arena): the first recirculation copies them, so only the first.
func (s *Switch) markRecirc(p *packet.Packet) {
	if p.Data[5]&packet.FlagRecirc == 0 {
		s.replicas.Own(p)
		p.Data[5] |= packet.FlagRecirc
	}
}

// routeContext moves a finished ingress context (and its emissions) into
// the TM.
func (s *Switch) routeContext(ctx *pipeline.Context) error {
	switch ctx.Verdict {
	case pipeline.VerdictForward:
		if len(ctx.Multicast) > 0 {
			for _, port := range ctx.Multicast {
				if err := s.enqueue(port, s.replicas.Share(ctx.Pkt)); err != nil {
					return err
				}
			}
		} else {
			port := ctx.Egress
			if port < 0 {
				// Default forwarding: base-header DstPort.
				port = int(ctx.Decoded.Base.DstPort)
			}
			if err := s.enqueue(port, ctx.Pkt); err != nil {
				return err
			}
		}
	case pipeline.VerdictDrop, pipeline.VerdictConsume:
		// Nothing to route.
	}
	for _, em := range ctx.Emissions {
		for i, port := range em.Ports {
			p := em.Pkt
			if i > 0 {
				p = s.replicas.Share(em.Pkt)
			}
			if err := s.enqueue(port, p); err != nil {
				return err
			}
		}
	}
	ctx.ClearEmissions()
	return nil
}

// enqueue places a packet bound for an output port onto the TM queue of
// that port's egress pipeline.
func (s *Switch) enqueue(port int, p *packet.Packet) error {
	if port < 0 || port >= s.cfg.Ports {
		return fmt.Errorf("rmt: egress port %d out of range", port)
	}
	p.EgressPort = port
	s.tmgr.Enqueue(s.PipelineOfPort(port), p) // drop accounted by TM
	return nil
}

// MarkRecirculationPort dedicates a port as a loopback: packets sent to it
// re-enter the ingress pipeline it belongs to instead of leaving the
// switch. Applications use this to move a flow into another pipeline —
// burning one egress slot and one ingress slot per pass.
func (s *Switch) MarkRecirculationPort(port int) error {
	if port < 0 || port >= s.cfg.Ports {
		return fmt.Errorf("rmt: recirculation port %d out of range", port)
	}
	s.recircPorts[port] = true
	return nil
}

// RecirculationPortOf returns a convention port for looping into a
// pipeline: its first port (which the caller must have marked).
func (s *Switch) RecirculationPortOf(pl int) int {
	return s.PortsOfPipeline(pl)[0]
}

// deliverOrRecirc finalizes a packet on port: loop it back through the
// port's ingress pipeline if the port is a marked loopback, deliver it
// otherwise.
func (s *Switch) deliverOrRecirc(port int, p *packet.Packet, out *[]*packet.Packet) error {
	if s.recircPorts[port] {
		if p.Recirculations >= s.MaxRecirculations {
			return fmt.Errorf("rmt: packet exceeded %d recirculations", s.MaxRecirculations)
		}
		p.Recirculations++
		s.markRecirc(p)
		s.recircTraversals++
		ipl := s.PipelineOfPort(port)
		p.IngressPort = port
		in := s.ingress[ipl]
		ctx, err := in.Process(p, s.ingressProg)
		if err != nil {
			return err
		}
		defer in.Release(ctx)
		for ctx.Verdict == pipeline.VerdictRecirculate {
			if ctx.Pkt.Recirculations >= s.MaxRecirculations {
				return fmt.Errorf("rmt: packet exceeded %d recirculations", s.MaxRecirculations)
			}
			ctx.Pkt.Recirculations++
			s.recircTraversals++
			if err := in.Resume(ctx, s.ingressProg); err != nil {
				return err
			}
		}
		return s.routeContext(ctx)
	}
	p.EgressPort = port
	if *out == nil {
		// One slice per Process call, cut at the first delivery and
		// sized for it plus everything still in the TM; the caller keeps
		// it.
		*out = s.replicas.Outs(1 + s.tmgr.Pending())
	}
	*out = append(*out, p)
	s.delivered++
	s.deliveredBytes += uint64(p.WireLen())
	s.txPerPort[port]++
	return nil
}

// drainTM runs every TM-queued packet through its egress pipeline and
// collects deliveries. Recirculated packets may re-enqueue to any
// pipeline, so draining repeats until the TM is empty.
func (s *Switch) drainTM() ([]*packet.Packet, error) {
	var out []*packet.Packet
	for s.tmgr.Pending() > 0 {
		for pl := 0; pl < s.cfg.Pipelines; pl++ {
			for {
				p := s.tmgr.Dequeue(pl)
				if p == nil {
					break
				}
				eg := s.egress[pl]
				ctx, err := eg.Process(p, s.egressProg)
				if err != nil {
					return nil, err
				}
				// Egress programs may retarget the port, but ONLY within
				// this pipeline (Figure 2): egress pipelines connect to
				// their own TX ports. A port outside the pipeline is
				// misrouted and dropped.
				if ctx.Verdict == pipeline.VerdictForward {
					port := ctx.Pkt.EgressPort
					if ctx.Egress >= 0 {
						port = ctx.Egress
					}
					if s.PipelineOfPort(port) != pl {
						s.misrouted++
					} else if err := s.deliverOrRecirc(port, ctx.Pkt, &out); err != nil {
						eg.Release(ctx)
						return nil, err
					}
				}
				// Egress-side emissions (e.g. egress aggregation results)
				// are also pinned to this pipeline's ports.
				for _, em := range ctx.Emissions {
					for _, port := range em.Ports {
						if port < 0 || port >= s.cfg.Ports || s.PipelineOfPort(port) != pl {
							s.misrouted++
							continue
						}
						if err := s.deliverOrRecirc(port, s.replicas.Share(em.Pkt), &out); err != nil {
							eg.Release(ctx)
							return nil, err
						}
					}
				}
				ctx.ClearEmissions()
				eg.Release(ctx)
			}
		}
	}
	return out, nil
}

// RecirculationTraversals returns how many extra ingress passes the switch
// performed; each consumed a pipeline slot that could have served a fresh
// packet (the §2 bandwidth cost of reshuffling by recirculation).
func (s *Switch) RecirculationTraversals() uint64 { return s.recircTraversals }

// Misrouted counts packets an egress program pointed at a port outside its
// pipeline (impossible on RMT hardware; dropped here).
func (s *Switch) Misrouted() uint64 { return s.misrouted }

// Delivered returns packets handed to output ports.
func (s *Switch) Delivered() uint64 { return s.delivered }

// DeliveredBytes returns wire bytes handed to output ports.
func (s *Switch) DeliveredBytes() uint64 { return s.deliveredBytes }

// TxOnPort returns packets delivered on a specific port.
func (s *Switch) TxOnPort(port int) uint64 { return s.txPerPort[port] }

// TM exposes the traffic manager for drop/occupancy accounting.
func (s *Switch) TM() *tm.SharedMemoryTM { return s.tmgr }

// IngressTraversals sums traversals across ingress pipelines (fresh +
// recirculated).
func (s *Switch) IngressTraversals() uint64 {
	var n uint64
	for _, p := range s.ingress {
		n += p.Packets()
	}
	return n
}

// IngressOverheadFraction returns the share of ingress capacity burned by
// recirculation: recirculated traversals / all traversals.
func (s *Switch) IngressOverheadFraction() float64 {
	total := s.IngressTraversals()
	if total == 0 {
		return 0
	}
	return float64(s.recircTraversals) / float64(total)
}
