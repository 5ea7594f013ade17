// Critical-path analysis over recorded spans: decompose each traced
// operation's end-to-end latency into disjoint segments whose sum is
// exactly the operation's measured round trip.
//
// The decomposition is a deepest-cover sweep over the root span's
// interval. At every instant the instant is attributed to exactly one
// covering span: the deepest one in the causal tree (a child explains
// time better than its parent), ties broken by segment priority (an
// election stall beats the retransmit it caused beats the wire flight
// underneath), then by later start, then by larger span id — all
// deterministic. Instants no child covers fall to the root's own
// segment (queueing at the originating tier). Because the sweep
// partitions [root.Start, root.End) exactly, per-segment sums equal the
// measured round trip by construction — the property the report's
// attribution table is trusted for.
package obs

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"

	"repro/internal/machine"
)

// OpPath is one traced operation's latency decomposition.
type OpPath struct {
	Trace  uint64
	Name   string
	Detail string
	Start  machine.Time
	End    machine.Time
	// Total is End - Start; Seg sums to Total exactly.
	Total machine.Duration
	Seg   [NumSegs]machine.Duration
	// Spans counts the spans that contributed to this operation.
	Spans int
}

// CritPath aggregates the decomposition across all traced operations.
type CritPath struct {
	Ops []OpPath
	// PerSeg holds one histogram per segment, observing that segment's
	// share of every operation (zeros included, so quantiles are over
	// the full op population).
	PerSeg [NumSegs]*Histogram
	// Slowest lists the slowest operations, worst first.
	Slowest []OpPath
}

// SlowestN is how many worst-case operations the analyzer retains for
// the report's slowest-ops listing.
const SlowestN = 5

// AnalyzeCritPath groups spans by trace, decomposes every trace that has
// a root span (Parent 0), and aggregates. Input order does not matter;
// output order is deterministic (ops sorted by start time, then trace
// id).
func AnalyzeCritPath(spans []Span) *CritPath {
	cp := &CritPath{}
	for i := range cp.PerSeg {
		cp.PerSeg[i] = &Histogram{Name: Seg(i).String()}
	}
	// Group by trace with one sort: order the span indices by (trace,
	// input index) and gather, so each trace's spans form one contiguous
	// run in input order and traces come out ascending.
	idx := make([]int, len(spans))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		if c := cmp.Compare(spans[a].Trace, spans[b].Trace); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	grouped := make([]Span, len(spans))
	for k, i := range idx {
		grouped[k] = spans[i]
	}
	for lo := 0; lo < len(grouped); {
		hi := lo + 1
		for hi < len(grouped) && grouped[hi].Trace == grouped[lo].Trace {
			hi++
		}
		if op, ok := decompose(grouped[lo:hi]); ok {
			cp.Ops = append(cp.Ops, op)
		}
		lo = hi
	}
	sort.Slice(cp.Ops, func(i, j int) bool {
		a, b := cp.Ops[i], cp.Ops[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Trace < b.Trace
	})
	for _, op := range cp.Ops {
		for s := range op.Seg {
			cp.PerSeg[s].Observe(uint64(op.Seg[s]))
		}
	}
	cp.Slowest = append([]OpPath(nil), cp.Ops...)
	sort.Slice(cp.Slowest, func(i, j int) bool {
		a, b := cp.Slowest[i], cp.Slowest[j]
		if a.Total != b.Total {
			return a.Total > b.Total
		}
		return a.Trace < b.Trace
	})
	if len(cp.Slowest) > SlowestN {
		cp.Slowest = cp.Slowest[:SlowestN]
	}
	return cp
}

// decompose runs the deepest-cover sweep over one trace's spans.
func decompose(spans []Span) (OpPath, bool) {
	// Root: the span with no parent; if a trace somehow has several
	// (it should not), the earliest-starting smallest-id one wins.
	rootIdx := -1
	for i, sp := range spans {
		if sp.Parent != 0 {
			continue
		}
		if rootIdx < 0 || sp.Start < spans[rootIdx].Start ||
			(sp.Start == spans[rootIdx].Start && sp.ID < spans[rootIdx].ID) {
			rootIdx = i
		}
	}
	if rootIdx < 0 {
		return OpPath{}, false
	}
	root := spans[rootIdx]
	op := OpPath{
		Trace:  root.Trace,
		Name:   root.Name,
		Detail: root.Detail,
		Start:  root.Start,
		End:    root.End,
		Total:  root.Duration(),
		Spans:  len(spans),
	}
	if op.Total == 0 {
		return op, true
	}

	// Depth of each span in the causal tree. Spans whose parent was not
	// recorded (sampling or a crashed recorder) hang off the root.
	byID := make(map[uint64]int, len(spans))
	for i, sp := range spans {
		if _, dup := byID[sp.ID]; !dup {
			byID[sp.ID] = i
		}
	}
	depth := make([]int, len(spans))
	var depthOf func(i int, hops int) int
	depthOf = func(i, hops int) int {
		if depth[i] != 0 || i == rootIdx {
			return depth[i]
		}
		if hops > len(spans) { // parent cycle; treat as root child
			return 1
		}
		p, ok := byID[spans[i].Parent]
		if !ok || p == i {
			depth[i] = 1
		} else {
			depth[i] = depthOf(p, hops+1) + 1
		}
		return depth[i]
	}
	for i := range spans {
		depthOf(i, 0)
	}

	// Elementary intervals: every clamped span boundary inside the root.
	bounds := make([]machine.Time, 0, 2*len(spans))
	bounds = append(bounds, root.Start, root.End)
	for _, sp := range spans {
		if sp.Start > root.Start && sp.Start < root.End {
			bounds = append(bounds, sp.Start)
		}
		if sp.End > root.Start && sp.End < root.End {
			bounds = append(bounds, sp.End)
		}
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })

	for b := 0; b+1 < len(bounds); b++ {
		lo, hi := bounds[b], bounds[b+1]
		if hi <= lo {
			continue
		}
		best := rootIdx
		for i, sp := range spans {
			if i == rootIdx || sp.Start > lo || sp.End < hi {
				continue
			}
			if better(spans, depth, i, best, rootIdx) {
				best = i
			}
		}
		op.Seg[spans[best].Seg] += machine.Duration(hi - lo)
	}
	return op, true
}

// better reports whether covering span i beats the incumbent: deeper
// wins, then higher segment priority, then later start, then larger id.
func better(spans []Span, depth []int, i, best, rootIdx int) bool {
	if best == rootIdx {
		return true
	}
	a, b := spans[i], spans[best]
	if depth[i] != depth[best] {
		return depth[i] > depth[best]
	}
	if a.Seg != b.Seg {
		return a.Seg > b.Seg
	}
	if a.Start != b.Start {
		return a.Start > b.Start
	}
	return a.ID > b.ID
}

// WriteCritPath renders the attribution table and the slowest-ops
// listing. The slowest-ops lines print exact nanosecond integers so the
// per-op "segments sum to the round trip" property is checkable from the
// text itself.
func WriteCritPath(w io.Writer, cp *CritPath) {
	if cp == nil || len(cp.Ops) == 0 {
		fmt.Fprintf(w, "critical-path attribution: no sampled operations\n")
		return
	}
	var grand machine.Duration
	var perSeg [NumSegs]machine.Duration
	for _, op := range cp.Ops {
		grand += op.Total
		for s, d := range op.Seg {
			perSeg[s] += d
		}
	}
	fmt.Fprintf(w, "critical-path attribution (%d sampled ops):\n", len(cp.Ops))
	fmt.Fprintf(w, "  %-10s %7s %12s %12s %12s\n", "segment", "share", "p50", "p99", "max")
	for s := Seg(0); s < NumSegs; s++ {
		h := cp.PerSeg[s]
		share := 0.0
		if grand > 0 {
			share = 100 * float64(perSeg[s]) / float64(grand)
		}
		fmt.Fprintf(w, "  %-10s %6.1f%% %12s %12s %12s\n", s.String(), share,
			FmtNS(h.Quantile(0.50)), FmtNS(h.Quantile(0.99)), FmtNS(h.Max))
	}
	fmt.Fprintf(w, "  slowest ops:\n")
	for _, op := range cp.Slowest {
		fmt.Fprintf(w, "    %-12s trace %016x  total %dns =", op.Name, op.Trace, op.Total)
		for s := Seg(0); s < NumSegs; s++ {
			if s > 0 {
				fmt.Fprintf(w, " +")
			}
			fmt.Fprintf(w, " %s %dns", s.String(), op.Seg[s])
		}
		fmt.Fprintf(w, "  (%d spans)\n", op.Spans)
	}
}
