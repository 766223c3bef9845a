package apps

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/pipeline"
	"repro/internal/rmt"
)

// In-network ML inference (the second half of Table 1's first row, and
// §1's "Do Switches Dream of Machine Learning?" class): a decision tree
// over per-packet features compiled into match-action tables using the
// standard encoding — each feature's thresholds become TCAM range codes
// (one stage per feature), and a final exact-match table maps the code
// tuple to a class.
//
// Inference is per-packet work, so like the flowlet load balancer it runs
// natively on BOTH architectures — a second control case. Its interesting
// cost is TCAM capacity: every tree threshold becomes a range expansion
// (mat.RangeToTernary).

// TreeNode is a binary decision-tree node: leaves carry Class (≥ 0) and
// interior nodes split on Feature < Threshold (left) vs ≥ (right).
type TreeNode struct {
	Feature   int // index into the feature vector
	Threshold uint32
	Left      *TreeNode
	Right     *TreeNode
	Class     int // valid when Left == Right == nil
}

// IsLeaf reports whether the node is a leaf.
func (n *TreeNode) IsLeaf() bool { return n.Left == nil && n.Right == nil }

// Evaluate walks the tree over a feature vector.
func (n *TreeNode) Evaluate(features []uint32) int {
	cur := n
	for !cur.IsLeaf() {
		if features[cur.Feature] < cur.Threshold {
			cur = cur.Left
		} else {
			cur = cur.Right
		}
	}
	return cur.Class
}

// NumFeatures is the fixed feature vector: source port, destination port,
// wire length — the classic traffic-classification triple.
const NumFeatures = 3

// ExtractFeatures lifts the feature vector from a packet context.
func ExtractFeatures(ctx *pipeline.Context) [NumFeatures]uint32 {
	return [NumFeatures]uint32{
		uint32(ctx.Decoded.Base.SrcPort),
		uint32(ctx.Decoded.Base.DstPort),
		uint32(ctx.Pkt.WireLen()),
	}
}

// InferenceModel is a tree compiled into per-feature range codes plus a
// code-tuple → class table.
type InferenceModel struct {
	tree *TreeNode
	// thresholds[f] are the sorted distinct split points of feature f.
	thresholds [NumFeatures][]uint32
	// TCAMEntries counts the ternary rules the range codes consumed.
	TCAMEntries int
	// Classes is the number of distinct leaf classes.
	Classes int
}

// CompileTree validates the tree and derives the code books.
func CompileTree(tree *TreeNode) (*InferenceModel, error) {
	if tree == nil {
		return nil, fmt.Errorf("apps: nil tree")
	}
	m := &InferenceModel{tree: tree}
	classes := map[int]bool{}
	var walk func(n *TreeNode, depth int) error
	walk = func(n *TreeNode, depth int) error {
		if depth > 32 {
			return fmt.Errorf("apps: tree deeper than 32 (cycle?)")
		}
		if n.IsLeaf() {
			if n.Class < 0 {
				return fmt.Errorf("apps: negative class %d", n.Class)
			}
			classes[n.Class] = true
			return nil
		}
		if n.Left == nil || n.Right == nil {
			return fmt.Errorf("apps: interior node with one child")
		}
		if n.Feature < 0 || n.Feature >= NumFeatures {
			return fmt.Errorf("apps: feature %d out of range", n.Feature)
		}
		m.thresholds[n.Feature] = append(m.thresholds[n.Feature], n.Threshold)
		if err := walk(n.Left, depth+1); err != nil {
			return err
		}
		return walk(n.Right, depth+1)
	}
	if err := walk(tree, 0); err != nil {
		return nil, err
	}
	for f := range m.thresholds {
		ts := m.thresholds[f]
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		// Dedup.
		out := ts[:0]
		for i, t := range ts {
			if i == 0 || t != ts[i-1] {
				out = append(out, t)
			}
		}
		m.thresholds[f] = out
	}
	m.Classes = len(classes)
	return m, nil
}

// codeRanges returns feature f's code intervals: code i covers
// [bounds[i], bounds[i+1]-1] with bounds = [0, t1, ..., tk, 2^32].
func (m *InferenceModel) codeRanges(f int) [][2]uint64 {
	ts := m.thresholds[f]
	var out [][2]uint64
	lo := uint64(0)
	for _, t := range ts {
		if uint64(t) > lo {
			out = append(out, [2]uint64{lo, uint64(t) - 1})
		} else {
			// Threshold 0: empty low interval, keep code alignment with a
			// degenerate range that can never match.
			out = append(out, [2]uint64{1, 0})
		}
		lo = uint64(t)
	}
	out = append(out, [2]uint64{lo, 0xFFFFFFFF})
	return out
}

// install populates stages [0, NumFeatures) TCAMs with the range codes and
// stage NumFeatures' exact table with the code-tuple → class mapping.
func (m *InferenceModel) install(stage func(i int) *pipeline.Stage) error {
	m.TCAMEntries = 0
	for f := 0; f < NumFeatures; f++ {
		st := stage(f)
		if st.TCAM == nil {
			return fmt.Errorf("apps: stage %d has no TCAM", f)
		}
		for code, r := range m.codeRanges(f) {
			if r[0] > r[1] {
				continue // degenerate
			}
			n, err := mat.InstallRange(st.TCAM, r[0], r[1], 32, 0, mat.Result{ActionID: code})
			if err != nil {
				return err
			}
			m.TCAMEntries += n
		}
	}
	// Enumerate code tuples; classify a representative point of each cell.
	final := stage(NumFeatures).Mem
	r0, r1, r2 := m.codeRanges(0), m.codeRanges(1), m.codeRanges(2)
	for c0, a := range r0 {
		for c1, b := range r1 {
			for c2, c := range r2 {
				if a[0] > a[1] || b[0] > b[1] || c[0] > c[1] {
					continue
				}
				class := m.tree.Evaluate([]uint32{uint32(a[0]), uint32(b[0]), uint32(c[0])})
				key := packCodes(c0, c1, c2)
				if err := final.Install(key, mat.Result{ActionID: class}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func packCodes(c0, c1, c2 int) uint64 {
	return uint64(c0) | uint64(c1)<<8 | uint64(c2)<<16
}

// inferenceProgram classifies every packet and counts per-class packets in
// the final stage's registers (cell = class).
func inferenceProgram() *pipeline.Program {
	funcs := make([]pipeline.StageFunc, NumFeatures+1)
	for f := 0; f < NumFeatures; f++ {
		funcs[f] = func(st *pipeline.Stage, ctx *pipeline.Context) error {
			feat := ExtractFeatures(ctx)[f]
			r, ok := st.TCAM.Lookup(uint64(feat))
			if !ok {
				return fmt.Errorf("apps: feature %d value %d has no code", f, feat)
			}
			ctx.Scratch[f%4] = uint64(r.ActionID) // codes ride the PHV scratch
			return nil
		}
	}
	funcs[NumFeatures] = func(st *pipeline.Stage, ctx *pipeline.Context) error {
		key := packCodes(int(ctx.Scratch[0]), int(ctx.Scratch[1]), int(ctx.Scratch[2]))
		r, ok := st.Mem.Lookup(key)
		if !ok {
			return fmt.Errorf("apps: code tuple %#x unmapped", key)
		}
		if _, err := st.RegisterRMW(mat.RegAdd, r.ActionID, 1); err != nil {
			return err
		}
		ctx.Scratch[3] = uint64(r.ActionID) // class, for tests/routing
		return nil
	}
	return &pipeline.Program{Name: "inference", Funcs: funcs}
}

// InferenceRMT is the classifier deployed on RMT ingress (per-packet work:
// RMT's home turf). The model is installed in every ingress pipeline.
type InferenceRMT struct {
	*rmt.Switch
	Model *InferenceModel
}

// NewInferenceRMT builds the deployment.
func NewInferenceRMT(cfg rmt.Config, tree *TreeNode) (*InferenceRMT, error) {
	if cfg.Pipe.Stages < NumFeatures+1 {
		return nil, fmt.Errorf("apps: inference needs %d stages", NumFeatures+1)
	}
	m, err := CompileTree(tree)
	if err != nil {
		return nil, err
	}
	sw, err := rmt.New(cfg, inferenceProgram(), nil)
	if err != nil {
		return nil, err
	}
	for pl := 0; pl < cfg.Pipelines; pl++ {
		if err := m.install(func(i int) *pipeline.Stage { return sw.Ingress(pl).Stage(i) }); err != nil {
			return nil, err
		}
	}
	return &InferenceRMT{Switch: sw, Model: m}, nil
}

// ClassCounts returns per-class packet counts summed over pipelines.
func (s *InferenceRMT) ClassCounts(classes int) []uint64 {
	out := make([]uint64, classes)
	for pl := 0; pl < s.Config().Pipelines; pl++ {
		regs := s.Ingress(pl).Stage(NumFeatures).Regs
		for c := 0; c < classes; c++ {
			out[c] += regs.Peek(c)
		}
	}
	return out
}

// NewInferenceADCP builds the same classifier in the ADCP global area
// (partitioned by nothing in particular — inference is stateless per
// packet, so any placement works).
func NewInferenceADCP(cfg core.Config, tree *TreeNode) (*core.Switch, *InferenceModel, error) {
	if cfg.Pipe.Stages < NumFeatures+1 {
		return nil, nil, fmt.Errorf("apps: inference needs %d stages", NumFeatures+1)
	}
	m, err := CompileTree(tree)
	if err != nil {
		return nil, nil, err
	}
	sw, err := core.New(cfg, core.Programs{Central: inferenceProgram()})
	if err != nil {
		return nil, nil, err
	}
	for p := 0; p < cfg.CentralPipelines; p++ {
		if err := m.install(func(i int) *pipeline.Stage { return sw.Central(p).Stage(i) }); err != nil {
			return nil, nil, err
		}
	}
	return sw, m, nil
}
