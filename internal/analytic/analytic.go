// Package analytic provides the closed-form models behind the paper's
// Tables 2 and 3 and its quantified claims: line-rate clock arithmetic,
// key-rate scaling, table replication cost, recirculation overhead,
// goodput, and dRMT's packet rate under its instruction schedule. The
// simulator cross-validates against these formulas in tests;
// `adcpsim -exp table2,table3` prints the tables from them.
package analytic

import (
	"fmt"
	"math"
)

// EthernetOverheadBytes is preamble (8 B) + inter-packet gap (12 B): the
// per-frame wire overhead that makes the paper's minimum packet 84 B for a
// 64 B minimum Ethernet frame.
const EthernetOverheadBytes = 20

// MinEthernetFrame is the smallest legal Ethernet frame.
const MinEthernetFrame = 64

// MinWirePacket is the paper's smallest accounted packet: 64 + 20 = 84 B.
const MinWirePacket = MinEthernetFrame + EthernetOverheadBytes

// PortPPS returns the maximum packet rate of one port: portGbps gigabits
// per second of line rate divided over packets of minPacketBytes.
func PortPPS(portGbps float64, minPacketBytes int) float64 {
	return portGbps * 1e9 / (8 * float64(minPacketBytes))
}

// RequiredPipelineFreqHz returns the clock a pipeline needs to retire one
// packet per cycle when fed portsPerPipeline ports of portGbps each, with
// packets no smaller than minPacketBytes. portsPerPipeline may be
// fractional: the paper's §3.3 port demultiplexing splits one port across m
// pipelines, i.e. 1/m "ports per pipeline".
func RequiredPipelineFreqHz(portGbps, portsPerPipeline float64, minPacketBytes int) float64 {
	return portsPerPipeline * PortPPS(portGbps, minPacketBytes)
}

// SwitchPPS returns the aggregate packet rate of a switch at line rate.
func SwitchPPS(throughputTbps float64, minPacketBytes int) float64 {
	return throughputTbps * 1e12 / (8 * float64(minPacketBytes))
}

// Table2Row is one row of the paper's Table 2 (port multiplexing poor
// scalability).
type Table2Row struct {
	ThroughputGbps   float64
	PortSpeedGbps    float64
	Pipelines        int
	PortsPerPipeline float64
	MinPacketBytes   int
	// FreqGHz is computed from the other columns.
	FreqGHz float64
}

// Table2 returns the paper's Table 2 with the frequency column computed
// from the line-rate arithmetic. The paper's printed frequencies (0.95,
// 1.25, 1.62, 1.62, 1.62 GHz) are these values rounded to two decimals.
func Table2() []Table2Row {
	rows := []Table2Row{
		{ThroughputGbps: 640, PortSpeedGbps: 10, Pipelines: 1, PortsPerPipeline: 64, MinPacketBytes: 84},
		{ThroughputGbps: 6400, PortSpeedGbps: 100, Pipelines: 4, PortsPerPipeline: 16, MinPacketBytes: 160},
		{ThroughputGbps: 12800, PortSpeedGbps: 400, Pipelines: 4, PortsPerPipeline: 8, MinPacketBytes: 247},
		{ThroughputGbps: 25600, PortSpeedGbps: 800, Pipelines: 8, PortsPerPipeline: 8, MinPacketBytes: 495},
		{ThroughputGbps: 51200, PortSpeedGbps: 1600, Pipelines: 8, PortsPerPipeline: 4, MinPacketBytes: 495},
	}
	for i := range rows {
		r := &rows[i]
		r.FreqGHz = RequiredPipelineFreqHz(r.PortSpeedGbps, r.PortsPerPipeline, r.MinPacketBytes) / 1e9
	}
	return rows
}

// Table3Row is one row of the paper's Table 3 (port demultiplexing).
type Table3Row struct {
	PortSpeedGbps    float64
	PortsPerPipeline float64 // 0.5 = one port demultiplexed 1:2
	MinPacketBytes   int
	FreqGHz          float64
}

// Table3 returns the paper's Table 3: for 800 Gbps and 1.6 Tbps ports, the
// multiplexed RMT configuration (large minimum packet, 1.62 GHz) against
// the ADCP 1:2 demultiplexed configuration (84 B minimum packet, much lower
// clock).
func Table3() []Table3Row {
	rows := []Table3Row{
		{PortSpeedGbps: 800, PortsPerPipeline: 8, MinPacketBytes: 495},
		{PortSpeedGbps: 800, PortsPerPipeline: 0.5, MinPacketBytes: 84},
		{PortSpeedGbps: 1600, PortsPerPipeline: 4, MinPacketBytes: 495},
		{PortSpeedGbps: 1600, PortsPerPipeline: 0.5, MinPacketBytes: 84},
	}
	for i := range rows {
		r := &rows[i]
		r.FreqGHz = RequiredPipelineFreqHz(r.PortSpeedGbps, r.PortsPerPipeline, r.MinPacketBytes) / 1e9
	}
	return rows
}

// DemuxFreqHz returns the pipeline clock needed when one port of portGbps
// is demultiplexed across m pipelines at minimum packet minPacketBytes
// (§3.3: traffic runs at 1/m of the port speed).
func DemuxFreqHz(portGbps float64, m int, minPacketBytes int) (float64, error) {
	if m < 1 {
		return 0, fmt.Errorf("analytic: demux factor %d", m)
	}
	return PortPPS(portGbps, minPacketBytes) / float64(m), nil
}

// PipelinesForSwitch returns how many pipelines a demultiplexed switch
// needs: ports × m. The paper anticipates 64 pipelines at 51.2 Tbps
// (32×1.6T ports × 1:2) doubling for 102.4 Tbps.
func PipelinesForSwitch(ports, m int) int { return ports * m }

// KeyRate returns the application operation rate (keys/s) of a switch
// processing pps packets each carrying keysPerPacket elements, when a
// traversal can match matchWidth elements. RMT has matchWidth 1 — its key
// rate is capped at its packet rate (§3.2: "any application logic we
// perform on that switch will be capped at 6 Bops/s"). ADCP matches
// min(keysPerPacket, matchWidth) per traversal.
func KeyRate(pps float64, keysPerPacket, matchWidth int) float64 {
	if keysPerPacket < 1 {
		keysPerPacket = 1
	}
	if matchWidth < 1 {
		matchWidth = 1
	}
	perPacket := keysPerPacket
	if perPacket > matchWidth {
		// Extra elements need extra traversals (recirculation), which eat
		// pipeline slots: effective packet rate divides by the pass count.
		passes := Passes(keysPerPacket, matchWidth)
		return pps / float64(passes) * float64(keysPerPacket)
	}
	return pps * float64(perPacket)
}

// Passes returns the pipeline traversals needed to process elements data
// items at parallelism items per traversal (ceiling division).
func Passes(elements, parallelism int) int {
	if parallelism < 1 {
		parallelism = 1
	}
	if elements < 1 {
		elements = 1
	}
	return (elements + parallelism - 1) / parallelism
}

// EffectiveTableCapacity returns the distinct entries a logical table can
// hold when scalar processing forces keysPerPacket replicated copies
// (Figure 3): capacity ÷ k. With array matching the full capacity remains.
func EffectiveTableCapacity(capacity, keysPerPacket int, arrayMatch bool) int {
	if arrayMatch || keysPerPacket <= 1 {
		return capacity
	}
	return capacity / keysPerPacket
}

// RecirculationOverhead returns the fraction of pipeline bandwidth consumed
// by recirculated passes when each packet needs the given number of passes:
// (passes-1)/passes. One pass = zero overhead.
func RecirculationOverhead(passes int) float64 {
	if passes <= 1 {
		return 0
	}
	return float64(passes-1) / float64(passes)
}

// Goodput returns the fraction of wire bytes that are application data for
// a packet carrying elements items of elemBytes each over overheadBytes of
// headers, respecting the minimum wire size.
func Goodput(elements, elemBytes, overheadBytes int) float64 {
	useful := elements * elemBytes
	wire := useful + overheadBytes
	if wire < MinWirePacket {
		wire = MinWirePacket
	}
	return float64(useful) / float64(wire)
}

// EgressOnlyStages returns the compute stages available when a coflow
// computation must be deferred to the egress pipeline (§2 limitation ①:
// "delaying computations until the egress pipeline ... reduc[es] the total
// stages involved in the flow's computation by half").
func EgressOnlyStages(ingressStages, egressStages int) (usable int, fraction float64) {
	total := ingressStages + egressStages
	if total == 0 {
		return 0, 0
	}
	return egressStages, float64(egressStages) / float64(total)
}

// dRMT (Chole et al., SIGCOMM '17) is the paper's §1 "hardware-based
// variation" on RMT: a pool of run-to-completion match processors over a
// disaggregated table memory, at the scale its paper proposes. Program
// length is bounded by the instruction schedule, not by a stage count.
const (
	drmtProcessors = 32
	drmtClockHz    = 1e9
	drmtIPC        = 1 // match/action ops retired per processor cycle

	// DRMTMaxOps is the longest program dRMT's schedule runs, in ops per
	// packet.
	DRMTMaxOps = 96
)

// DRMTPPS returns dRMT's deterministic packet rate for a program of ops
// match/action operations per packet: processors × clock × IPC / ops, or 0
// when the program exceeds the schedule and does not run at all.
func DRMTPPS(ops int) float64 {
	if ops < 1 {
		ops = 1
	}
	if ops > DRMTMaxOps {
		return 0
	}
	return float64(drmtProcessors) * drmtClockHz * float64(drmtIPC) / float64(ops)
}

// A software (BMv2-class) switch is the paper's §1 run-to-completion
// baseline: a pool of server cores, each holding a packet until its
// computation finishes. Any program runs, but the packet rate falls with
// per-packet work instead of holding at line rate.
const (
	softwareCores       = 16
	softwareClockHz     = 3e9
	softwareBaseCycles  = 300 // parse, classify and deliver on the fast path
	softwareCyclesPerOp = 10
)

// SoftwarePPS returns the software switch's packet rate for a program of
// ops operations per packet: cores × clock / (base + ops × cycles/op).
func SoftwarePPS(ops int) float64 {
	return softwareClockHz * float64(softwareCores) / float64(softwareBaseCycles+ops*softwareCyclesPerOp)
}

// RoundGHz rounds a frequency in Hz to two decimals of GHz, as the paper's
// tables print them.
func RoundGHz(hz float64) float64 {
	return math.Round(hz/1e9*100) / 100
}
