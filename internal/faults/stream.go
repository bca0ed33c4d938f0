package faults

import "math"

// Fault schedules are drawn lazily: a stream holds one forked RNG per
// fault class (and per node) and draws the next event only when its
// consumer reaches it, so a run pays for the shocks and outages it
// actually meets rather than for everything up to its horizon. The
// streams draw exactly the numbers, in exactly the order, that a full
// up-front schedule would, so every replay stays bit-identical.

// ShockStream yields an injector's budget shocks in time order, one per
// Next. A nil stream is empty.
type ShockStream struct {
	rng        RNG
	mtbs, mlen float64
	frac       float64
	horizon    float64
	t          float64
	done       bool
}

// Shocks returns the lazy budget-shock stream over [0, horizon). Pass
// math.Inf(1) for a stream that never ends. Shocks never overlap.
func (in *Injector) Shocks(horizon float64) *ShockStream {
	// A shock with no length is skipped, so a spec without shock.len
	// yields nothing; its stream is forked per class, so leaving its
	// draws untaken moves no other fault.
	if in == nil || in.spec.ShockMTBS <= 0 || in.spec.ShockFrac <= 0 || in.spec.ShockLen <= 0 || horizon <= 0 {
		return nil
	}
	return &ShockStream{
		rng:  *in.root.Fork("budget.shock"),
		mtbs: in.spec.ShockMTBS, mlen: in.spec.ShockLen, frac: in.spec.ShockFrac,
		horizon: horizon,
	}
}

// Next returns the next shock; ok is false once the stream has passed
// its horizon.
func (s *ShockStream) Next() (sh Shock, ok bool) {
	if s == nil {
		return Shock{}, false
	}
	for !s.done {
		s.t += s.rng.Exp(s.mtbs)
		if s.t >= s.horizon || math.IsInf(s.t, 1) {
			s.done = true
			break
		}
		d := s.rng.Exp(s.mlen)
		if d <= 0 {
			continue
		}
		sh = Shock{At: s.t, Duration: d, Frac: s.frac}
		s.t += d
		return sh, true
	}
	return Shock{}, false
}

// ShockEdge is one edge of a budget shock: at its start the budget drops
// by Frac of its nominal value, and at its end (End set) the same amount
// comes back.
type ShockEdge struct {
	At, Frac float64
	End      bool
}

// ShockEdges walks a shock stream edge by edge: each shock's start, then
// its end at At+Duration, then the next shock's start. A nil cursor is
// empty.
type ShockEdges struct {
	stream *ShockStream
	next   ShockEdge
	ok     bool
	end    float64 // end time of the shock whose start is next
}

// ShockEdges returns the lazy shock-edge cursor over [0, horizon). Ends
// are emitted even past the horizon; only starts are bounded by it.
func (in *Injector) ShockEdges(horizon float64) *ShockEdges {
	s := in.Shocks(horizon)
	if s == nil {
		return nil
	}
	e := &ShockEdges{stream: s}
	e.startNext()
	return e
}

func (e *ShockEdges) startNext() {
	sh, ok := e.stream.Next()
	e.next, e.ok, e.end = ShockEdge{At: sh.At, Frac: sh.Frac}, ok, sh.At+sh.Duration
}

// At returns the time of the next edge, or +Inf when none remains.
func (e *ShockEdges) At() float64 {
	if e == nil || !e.ok {
		return math.Inf(1)
	}
	return e.next.At
}

// Next returns the next edge and advances; ok is false when none
// remains.
func (e *ShockEdges) Next() (ShockEdge, bool) {
	if e == nil || !e.ok {
		return ShockEdge{}, false
	}
	ev := e.next
	if ev.End {
		e.startNext()
	} else {
		e.next = ShockEdge{At: e.end, Frac: ev.Frac, End: true}
	}
	return ev, true
}

// outageGen draws one node's outages in order from its forked stream.
type outageGen struct {
	rng        RNG
	mtbf, mttr float64
	horizon    float64
	t          float64
	done       bool
}

func (in *Injector) newOutageGen(nodeID string, horizon float64) outageGen {
	return outageGen{
		rng:  *in.root.Fork("node/" + nodeID),
		mtbf: in.spec.NodeMTBF, mttr: in.spec.NodeMTTR,
		horizon: horizon,
	}
}

// next returns the node's next outage. An outage that never ends
// (node.mttr=0) is the node's last.
func (g *outageGen) next() (Outage, bool) {
	if g.done {
		return Outage{}, false
	}
	g.t += g.rng.Exp(g.mtbf)
	if g.t >= g.horizon || math.IsInf(g.t, 1) {
		g.done = true
		return Outage{}, false
	}
	// Exp of a non-positive mean is +Inf without a draw: never repaired.
	o := Outage{At: g.t, Duration: g.rng.Exp(g.mttr)}
	if math.IsInf(o.Duration, 1) {
		g.done = true
	}
	g.t += o.Duration
	return o, true
}

// OutageEvent is one node transition in a merged outage stream.
type OutageEvent struct {
	At float64
	// Node is the node's index in the IDs the stream was built from.
	Node int
	// Up marks a recovery; false is a failure.
	Up bool
}

// outageItem is one pending transition in the merge heap.
type outageItem struct {
	at   float64
	node int32
	up   bool
}

// OutageStream merges the lazy outage streams of a set of nodes into one
// time-ordered stream of failures and recoveries. Ties keep the order a
// stable sort of the full schedules would give: time first, recoveries
// before failures, then the node's position in the IDs. (Transitions
// equal in all three are the same event, so their order cannot show.)
// A nil stream is empty.
type OutageStream struct {
	gens []outageGen
	heap []outageItem
}

// Outages returns the merged lazy outage stream of the given nodes over
// [0, horizon): failures at or past the horizon never happen, while
// recoveries of earlier failures are still reported. Memory is O(nodes)
// plus the events a consumer has not yet taken.
//
// Each node keeps its current outage — failure and recovery both — in
// the heap, and draws its next one only when that recovery is taken.
// A node's next failure comes no earlier than its pending recovery, so
// everything not yet drawn sorts after the heap's minimum.
func (in *Injector) Outages(ids []string, horizon float64) *OutageStream {
	if in == nil || in.spec.NodeMTBF <= 0 || horizon <= 0 || len(ids) == 0 {
		return nil
	}
	s := &OutageStream{
		gens: make([]outageGen, len(ids)),
		heap: make([]outageItem, 0, 2*len(ids)),
	}
	for i, id := range ids {
		s.gens[i] = in.newOutageGen(id, horizon)
		s.draw(int32(i))
	}
	return s
}

// draw pushes node i's next outage: its failure and, if it is ever
// repaired, its recovery.
func (s *OutageStream) draw(i int32) {
	o, ok := s.gens[i].next()
	if !ok {
		return
	}
	s.push(outageItem{at: o.At, node: i})
	if !math.IsInf(o.Duration, 1) {
		s.push(outageItem{at: o.At + o.Duration, node: i, up: true})
	}
}

func (s *OutageStream) less(i, j int) bool {
	a, b := &s.heap[i], &s.heap[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.up != b.up {
		return a.up
	}
	return a.node < b.node
}

func (s *OutageStream) push(it outageItem) {
	s.heap = append(s.heap, it)
	for i := len(s.heap) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
		i = parent
	}
}

func (s *OutageStream) pop() outageItem {
	top := s.heap[0]
	n := len(s.heap) - 1
	s.heap[0] = s.heap[n]
	s.heap = s.heap[:n]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && s.less(l, small) {
			small = l
		}
		if r < n && s.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		s.heap[i], s.heap[small] = s.heap[small], s.heap[i]
		i = small
	}
	return top
}

// At returns the time of the next transition, or +Inf when none remains.
func (s *OutageStream) At() float64 {
	if s == nil || len(s.heap) == 0 {
		return math.Inf(1)
	}
	return s.heap[0].at
}

// Next returns the next transition and advances; ok is false when none
// remains.
func (s *OutageStream) Next() (OutageEvent, bool) {
	if s == nil || len(s.heap) == 0 {
		return OutageEvent{}, false
	}
	it := s.pop()
	if it.up {
		s.draw(it.node)
	}
	return OutageEvent{At: it.at, Node: int(it.node), Up: it.up}, true
}
