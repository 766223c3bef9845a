// Package packet defines the byte-level packet formats used by every
// workload in this repository, along with encoders and allocation-free
// decoders in the style of gopacket's DecodingLayerParser.
//
// All packets share a fixed 20-byte base header (a stand-in for the
// Ethernet/IP/UDP stack of a real deployment, carrying only the fields the
// switch programs actually consume), followed by a protocol-specific
// application header. Applications in the paper — parameter aggregation,
// key/value caching, database shuffling, graph mining, group communication —
// each get a concrete header type. Crucially for the paper's §3.2 argument,
// the ML/KV/DB/Graph headers carry *arrays* of data elements, whose width is
// chosen by the sender.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Proto identifies the application header following the base header.
type Proto uint8

// Application protocols.
const (
	ProtoRaw   Proto = 0 // opaque payload, plain forwarding
	ProtoML    Proto = 1 // parameter-aggregation weight vectors
	ProtoKV    Proto = 2 // key/value cache operations
	ProtoDB    Proto = 3 // database tuples (filter-aggregate-reshuffle)
	ProtoGraph Proto = 4 // graph pattern-mining edge lists
	ProtoGroup Proto = 5 // group communication chunks
)

// String returns the protocol mnemonic.
func (p Proto) String() string {
	switch p {
	case ProtoRaw:
		return "raw"
	case ProtoML:
		return "ml"
	case ProtoKV:
		return "kv"
	case ProtoDB:
		return "db"
	case ProtoGraph:
		return "graph"
	case ProtoGroup:
		return "group"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// Flag bits in the base header.
const (
	FlagLast     = 1 << 0 // last packet of its flow
	FlagRecirc   = 1 << 1 // set by the switch when a packet recirculates
	FlagFromSwch = 1 << 2 // generated by the switch (e.g. aggregation result)
)

// BaseHeaderLen is the encoded size of Header in bytes.
const BaseHeaderLen = 20

// MinWireLen is the smallest frame the port model accounts for: the paper's
// Table 2 uses 84 B as the minimum packet (64 B minimum Ethernet frame plus
// 20 B preamble + inter-packet gap).
const MinWireLen = 84

// Header is the base header present on every packet.
type Header struct {
	DstPort  uint16 // destination host / egress port hint
	SrcPort  uint16 // source host / ingress port
	Proto    Proto
	Flags    uint8
	CoflowID uint32 // which coflow this packet belongs to
	FlowID   uint32 // which member flow within the coflow
	Seq      uint32 // per-flow sequence number
	Length   uint16 // bytes of application header + payload that follow
}

// Encode appends the wire form of h to dst and returns the extended slice.
func (h *Header) Encode(dst []byte) []byte {
	var b [BaseHeaderLen]byte
	binary.BigEndian.PutUint16(b[0:2], h.DstPort)
	binary.BigEndian.PutUint16(b[2:4], h.SrcPort)
	b[4] = uint8(h.Proto)
	b[5] = h.Flags
	binary.BigEndian.PutUint32(b[6:10], h.CoflowID)
	binary.BigEndian.PutUint32(b[10:14], h.FlowID)
	binary.BigEndian.PutUint32(b[14:18], h.Seq)
	binary.BigEndian.PutUint16(b[18:20], h.Length)
	return append(dst, b[:]...)
}

// ErrTruncated is returned by every decoder when the buffer is shorter
// than its headers claim (including lying element counts).
var ErrTruncated = errors.New("packet: truncated")

// Decode fills h from the front of data and returns the remaining bytes.
func (h *Header) Decode(data []byte) ([]byte, error) {
	if len(data) < BaseHeaderLen {
		return nil, ErrTruncated
	}
	h.DstPort = binary.BigEndian.Uint16(data[0:2])
	h.SrcPort = binary.BigEndian.Uint16(data[2:4])
	h.Proto = Proto(data[4])
	h.Flags = data[5]
	h.CoflowID = binary.BigEndian.Uint32(data[6:10])
	h.FlowID = binary.BigEndian.Uint32(data[10:14])
	h.Seq = binary.BigEndian.Uint32(data[14:18])
	h.Length = binary.BigEndian.Uint16(data[18:20])
	rest := data[BaseHeaderLen:]
	if len(rest) < int(h.Length) {
		return nil, ErrTruncated
	}
	return rest, nil
}

// MLHeader carries a contiguous slice of model weights: Count values
// starting at global weight index Base. Values aggregate by addition.
type MLHeader struct {
	Base   uint32 // index of Values[0] in the global weight vector
	Worker uint16 // sending worker id
	Count  uint16
	Values []uint32
}

// MLHeaderFixedLen is the encoded size before the value array.
const MLHeaderFixedLen = 8

// EncodedLen returns the wire size of the header.
func (m *MLHeader) EncodedLen() int { return MLHeaderFixedLen + 4*len(m.Values) }

// Encode appends the wire form to dst.
func (m *MLHeader) Encode(dst []byte) []byte {
	var b [MLHeaderFixedLen]byte
	binary.BigEndian.PutUint32(b[0:4], m.Base)
	binary.BigEndian.PutUint16(b[4:6], m.Worker)
	binary.BigEndian.PutUint16(b[6:8], uint16(len(m.Values)))
	dst = append(dst, b[:]...)
	for _, v := range m.Values {
		dst = binary.BigEndian.AppendUint32(dst, v)
	}
	return dst
}

// Decode fills m from data, reusing m.Values capacity when possible.
func (m *MLHeader) Decode(data []byte) error {
	if len(data) < MLHeaderFixedLen {
		return ErrTruncated
	}
	m.Base = binary.BigEndian.Uint32(data[0:4])
	m.Worker = binary.BigEndian.Uint16(data[4:6])
	m.Count = binary.BigEndian.Uint16(data[6:8])
	need := int(m.Count) * 4
	rest := data[MLHeaderFixedLen:]
	if len(rest) < need {
		return ErrTruncated
	}
	if cap(m.Values) < int(m.Count) {
		m.Values = make([]uint32, m.Count)
	} else {
		m.Values = m.Values[:m.Count]
	}
	for i := 0; i < int(m.Count); i++ {
		m.Values[i] = binary.BigEndian.Uint32(rest[4*i:])
	}
	return nil
}

// KVOp is a key/value cache operation code.
type KVOp uint8

// Key/value operations.
const (
	KVGet  KVOp = 0
	KVPut  KVOp = 1
	KVHit  KVOp = 2 // reply: value found on the switch
	KVMiss KVOp = 3 // reply: forwarded to the backing store
)

// KVPair is one key/value element.
type KVPair struct {
	Key   uint32
	Value uint32
}

// KVHeader carries a batch of key/value operations; one packet may carry up
// to 16 pairs, which is exactly the array-matching scenario of §3.2.
type KVHeader struct {
	Op    KVOp
	Count uint16
	Pairs []KVPair
}

// KVHeaderFixedLen is the encoded size before the pair array.
const KVHeaderFixedLen = 4

// EncodedLen returns the wire size of the header.
func (k *KVHeader) EncodedLen() int { return KVHeaderFixedLen + 8*len(k.Pairs) }

// Encode appends the wire form to dst.
func (k *KVHeader) Encode(dst []byte) []byte {
	dst = append(dst, byte(k.Op), 0)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(k.Pairs)))
	for _, p := range k.Pairs {
		dst = binary.BigEndian.AppendUint32(dst, p.Key)
		dst = binary.BigEndian.AppendUint32(dst, p.Value)
	}
	return dst
}

// Decode fills k from data, reusing k.Pairs capacity when possible.
func (k *KVHeader) Decode(data []byte) error {
	if len(data) < KVHeaderFixedLen {
		return ErrTruncated
	}
	k.Op = KVOp(data[0])
	k.Count = binary.BigEndian.Uint16(data[2:4])
	need := int(k.Count) * 8
	rest := data[KVHeaderFixedLen:]
	if len(rest) < need {
		return ErrTruncated
	}
	if cap(k.Pairs) < int(k.Count) {
		k.Pairs = make([]KVPair, k.Count)
	} else {
		k.Pairs = k.Pairs[:k.Count]
	}
	for i := 0; i < int(k.Count); i++ {
		k.Pairs[i].Key = binary.BigEndian.Uint32(rest[8*i:])
		k.Pairs[i].Value = binary.BigEndian.Uint32(rest[8*i+4:])
	}
	return nil
}

// DBTuple is one (group key, measure) pair of a database shuffle.
type DBTuple struct {
	Key     uint32 // grouping/partition key
	Measure uint32 // aggregated measure (summed)
}

// DBHeader carries a batch of tuples from a scan, already filtered at the
// source, on their way to aggregation and reshuffling.
type DBHeader struct {
	Query  uint16 // query id
	Stage  uint8  // plan stage (0 = scan output, 1 = aggregated partials)
	Count  uint16
	Tuples []DBTuple
}

// DBHeaderFixedLen is the encoded size before the tuple array.
const DBHeaderFixedLen = 6

// EncodedLen returns the wire size of the header.
func (d *DBHeader) EncodedLen() int { return DBHeaderFixedLen + 8*len(d.Tuples) }

// Encode appends the wire form to dst.
func (d *DBHeader) Encode(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, d.Query)
	dst = append(dst, d.Stage, 0)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(d.Tuples)))
	for _, tp := range d.Tuples {
		dst = binary.BigEndian.AppendUint32(dst, tp.Key)
		dst = binary.BigEndian.AppendUint32(dst, tp.Measure)
	}
	return dst
}

// Decode fills d from data, reusing d.Tuples capacity when possible.
func (d *DBHeader) Decode(data []byte) error {
	if len(data) < DBHeaderFixedLen {
		return ErrTruncated
	}
	d.Query = binary.BigEndian.Uint16(data[0:2])
	d.Stage = data[2]
	d.Count = binary.BigEndian.Uint16(data[4:6])
	need := int(d.Count) * 8
	rest := data[DBHeaderFixedLen:]
	if len(rest) < need {
		return ErrTruncated
	}
	if cap(d.Tuples) < int(d.Count) {
		d.Tuples = make([]DBTuple, d.Count)
	} else {
		d.Tuples = d.Tuples[:d.Count]
	}
	for i := 0; i < int(d.Count); i++ {
		d.Tuples[i].Key = binary.BigEndian.Uint32(rest[8*i:])
		d.Tuples[i].Measure = binary.BigEndian.Uint32(rest[8*i+4:])
	}
	return nil
}

// Edge is one directed graph edge.
type Edge struct {
	Src uint32
	Dst uint32
}

// GraphHeader carries a batch of candidate edges exchanged during one BSP
// superstep of graph pattern mining.
type GraphHeader struct {
	Round uint16 // BSP superstep
	Count uint16
	Edges []Edge
}

// GraphHeaderFixedLen is the encoded size before the edge array.
const GraphHeaderFixedLen = 4

// EncodedLen returns the wire size of the header.
func (g *GraphHeader) EncodedLen() int { return GraphHeaderFixedLen + 8*len(g.Edges) }

// Encode appends the wire form to dst.
func (g *GraphHeader) Encode(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, g.Round)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(g.Edges)))
	for _, e := range g.Edges {
		dst = binary.BigEndian.AppendUint32(dst, e.Src)
		dst = binary.BigEndian.AppendUint32(dst, e.Dst)
	}
	return dst
}

// Decode fills g from data, reusing g.Edges capacity when possible.
func (g *GraphHeader) Decode(data []byte) error {
	if len(data) < GraphHeaderFixedLen {
		return ErrTruncated
	}
	g.Round = binary.BigEndian.Uint16(data[0:2])
	g.Count = binary.BigEndian.Uint16(data[2:4])
	need := int(g.Count) * 8
	rest := data[GraphHeaderFixedLen:]
	if len(rest) < need {
		return ErrTruncated
	}
	if cap(g.Edges) < int(g.Count) {
		g.Edges = make([]Edge, g.Count)
	} else {
		g.Edges = g.Edges[:g.Count]
	}
	for i := 0; i < int(g.Count); i++ {
		g.Edges[i].Src = binary.BigEndian.Uint32(rest[8*i:])
		g.Edges[i].Dst = binary.BigEndian.Uint32(rest[8*i+4:])
	}
	return nil
}

// GroupHeader carries one chunk of a switch-initiated group transfer
// (Table 1, group communications row).
type GroupHeader struct {
	GroupID uint32
	Chunk   uint32
	Total   uint32 // chunks in the whole transfer
	PayLen  uint16
	Payload []byte
}

// GroupHeaderFixedLen is the encoded size before the payload.
const GroupHeaderFixedLen = 14

// EncodedLen returns the wire size of the header.
func (g *GroupHeader) EncodedLen() int { return GroupHeaderFixedLen + len(g.Payload) }

// Encode appends the wire form to dst.
func (g *GroupHeader) Encode(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, g.GroupID)
	dst = binary.BigEndian.AppendUint32(dst, g.Chunk)
	dst = binary.BigEndian.AppendUint32(dst, g.Total)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(g.Payload)))
	return append(dst, g.Payload...)
}

// Decode fills g from data, reusing g.Payload capacity when possible.
func (g *GroupHeader) Decode(data []byte) error {
	if len(data) < GroupHeaderFixedLen {
		return ErrTruncated
	}
	g.GroupID = binary.BigEndian.Uint32(data[0:4])
	g.Chunk = binary.BigEndian.Uint32(data[4:8])
	g.Total = binary.BigEndian.Uint32(data[8:12])
	g.PayLen = binary.BigEndian.Uint16(data[12:14])
	rest := data[GroupHeaderFixedLen:]
	if len(rest) < int(g.PayLen) {
		return ErrTruncated
	}
	if cap(g.Payload) < int(g.PayLen) {
		g.Payload = make([]byte, g.PayLen)
	} else {
		g.Payload = g.Payload[:g.PayLen]
	}
	copy(g.Payload, rest[:g.PayLen])
	return nil
}
