package packet

import "fmt"

// Packet is a wire packet moving through the simulated network and switch.
// Data holds the full encoded bytes (base header first). The struct also
// carries simulation-side metadata that a real NIC would know out of band.
type Packet struct {
	Data []byte

	// IngressPort is stamped by the switch port that received the packet.
	IngressPort int
	// EgressPort is the resolved output port (-1 until forwarding decides).
	EgressPort int
	// Recirculations counts trips through the recirculation path (RMT only).
	Recirculations int
}

// WireLen returns the length the port model charges for this packet: the
// encoded bytes, but never less than MinWireLen (minimum frame plus
// preamble and inter-packet gap, as in the paper's Table 2).
func (p *Packet) WireLen() int {
	if len(p.Data) < MinWireLen {
		return MinWireLen
	}
	return len(p.Data)
}

// Len returns the encoded byte length.
func (p *Packet) Len() int { return len(p.Data) }

// Clone returns a deep copy with its own allocation. Code that copies a
// packet per packet clones from an Arena instead.
func (p *Packet) Clone() *Packet { return (*Arena)(nil).Clone(p) }

// Build assembles a packet from a base header and an optional application
// header. The base header's Proto and Length fields are overwritten to match
// the body. Pass a nil body for ProtoRaw packets with an empty payload. The
// body is encoded straight into the packet's one buffer, sized up front
// from its EncodedLen.
func Build(h Header, body Encoder) *Packet { return (*Arena)(nil).Build(h, body) }

// BuildRaw assembles a ProtoRaw packet with an opaque payload of the given
// length (zero bytes).
func BuildRaw(h Header, payloadLen int) *Packet {
	h.Proto = ProtoRaw
	return (*Arena)(nil).raw(h, payloadLen)
}

// Decoded is the result of fully decoding a packet: the base header plus
// exactly one application header, selected by Base.Proto. Reusing one
// Decoded across packets avoids per-packet allocation (gopacket's
// DecodingLayerParser pattern).
type Decoded struct {
	Base  Header
	ML    MLHeader
	KV    KVHeader
	DB    DBHeader
	Graph GraphHeader
	Group GroupHeader
	// Payload is the undecoded remainder for ProtoRaw.
	Payload []byte
}

// Decode parses data into d. On error d is left partially filled and must
// not be used.
func (d *Decoded) Decode(data []byte) error {
	rest, err := d.Base.Decode(data)
	if err != nil {
		return err
	}
	body := rest[:d.Base.Length]
	switch d.Base.Proto {
	case ProtoRaw:
		d.Payload = body
		return nil
	case ProtoML:
		return d.ML.Decode(body)
	case ProtoKV:
		return d.KV.Decode(body)
	case ProtoDB:
		return d.DB.Decode(body)
	case ProtoGraph:
		return d.Graph.Decode(body)
	case ProtoGroup:
		return d.Group.Decode(body)
	default:
		return fmt.Errorf("packet: unknown proto %d", d.Base.Proto)
	}
}

// DecodePacket parses p into d.
func (d *Decoded) DecodePacket(p *Packet) error { return d.Decode(p.Data) }

// Elements returns how many application data elements the packet carries
// (weights, pairs, tuples, or edges); Raw and Group count as one. This is
// the "keys per packet" quantity of §3.2.
func (d *Decoded) Elements() int {
	switch d.Base.Proto {
	case ProtoML:
		return len(d.ML.Values)
	case ProtoKV:
		return len(d.KV.Pairs)
	case ProtoDB:
		return len(d.DB.Tuples)
	case ProtoGraph:
		return len(d.Graph.Edges)
	default:
		return 1
	}
}

// Reencode rebuilds the packet bytes from the decoded headers, reflecting
// any modifications (the deparser step).
func (d *Decoded) Reencode() *Packet { return (*Arena)(nil).Reencode(d) }

// GoodputBytes returns the application-useful bytes in the packet: the data
// elements themselves, excluding base and fixed app-header overhead. Used by
// the §3.2 goodput comparison (scalar packets have subpar goodput).
func (d *Decoded) GoodputBytes() int {
	switch d.Base.Proto {
	case ProtoML:
		return 4 * len(d.ML.Values)
	case ProtoKV:
		return 8 * len(d.KV.Pairs)
	case ProtoDB:
		return 8 * len(d.DB.Tuples)
	case ProtoGraph:
		return 8 * len(d.Graph.Edges)
	case ProtoGroup:
		return len(d.Group.Payload)
	default:
		return len(d.Payload)
	}
}
