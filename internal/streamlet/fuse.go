package streamlet

// Fused execution: a maximal run of fusable streamlets (STATELESS, serial,
// single-input — see internal/stream's fuse pass for the discovery rules)
// collapses into one fused hop. A fused hop is nothing but the head's run
// loop with a longer stage list (exec.go): one batched fetch from the
// head's input queue, every member's Process back-to-back on the same
// stack — no intermediate queue post/fetch, no msgpool Forward, no
// per-stage deep copy — and one batched post at the segment exit. This is
// operator fusion in the Reo/compiled-protocol sense: the coordination glue
// between adjacent stateless transforms is compiled away while the modular
// composition (and its observability) stays intact — every stage still
// runs the members' own produce/finish pair, so per-member supervision,
// counters, fault attribution, trace hops, and spans are exact, and the
// head's inflight covers each batch from fetch through the exit flush.
//
// Interior members keep their own (idle) run loops parked on their
// now-quiet queues; dissolving a segment is therefore just swapping the
// head's stage list back after a drain, which is what makes fusion
// dynamically reversible under Insert/Remove/SetWorkers and heals.

import "fmt"

// FusedSegment is the runtime description of one fused hop. It is built by
// the stream layer's fuse pass over members it verified fusable, installed
// on the (paused, drained) head via InstallPump, and dissolved via
// RemovePump.
type FusedSegment struct {
	stages []stage // chain order; stages[0] is the head's source port
	batch  int     // fetch batch: max over member batch sizes
}

// NewFusedSegment assembles a fused segment over members (chain order),
// each fed on the corresponding input port. The caller (the stream fuse
// pass) is responsible for having verified fusability; this constructor
// only checks shape.
func NewFusedSegment(members []*Streamlet, ports []string) (*FusedSegment, error) {
	if len(members) < 2 || len(members) != len(ports) {
		return nil, fmt.Errorf("streamlet: fused segment needs >= 2 members with one input port each (got %d members, %d ports)",
			len(members), len(ports))
	}
	seg := &FusedSegment{stages: make([]stage, len(members)), batch: 1}
	for i, m := range members {
		if m.pool != members[0].pool {
			return nil, fmt.Errorf("streamlet: fused members %s and %s use different pools", members[0].id, m.id)
		}
		seg.batch = max(seg.batch, m.Batch())
		seg.stages[i] = stage{m: m, port: ports[i]}
	}
	return seg, nil
}

// Members returns the member instance ids in chain order.
func (seg *FusedSegment) Members() []string {
	out := make([]string, len(seg.stages))
	for i, st := range seg.stages {
		out[i] = st.m.id
	}
	return out
}

// Head returns the head streamlet.
func (seg *FusedSegment) Head() *Streamlet { return seg.stages[0].m }

// InstallPump swaps the head's run loop on the segment's source port for
// one running the segment's stage list. The head must be paused and the
// whole segment drained (the stream layer's Figure 7-4 fuse protocol
// guarantees both); the new loop parks on the head's pause gate until the
// head is reactivated, and the retired one — parked on the same gate —
// wakes, observes its closed stop channel, and exits without fetching.
func (s *Streamlet) InstallPump(seg *FusedSegment) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	port := seg.stages[0].port
	if s.state != StatePaused {
		return fmt.Errorf("streamlet %s: fused pump install requires the paused head (state %s)", s.id, s.state)
	}
	q, ok := s.ins[port]
	if !ok {
		return fmt.Errorf("streamlet %s: fused pump install: input port %q unbound", s.id, port)
	}
	s.startLoopLocked(port, q, seg.stages, seg.batch)
	return nil
}

// RemovePump dissolves the fused hop: the head's own one-stage loop is
// restored on the source port. The head must again be paused and quiesced
// — its inflight covers the fused batch end to end, so head quiescence
// means nothing is in flight across the whole segment.
func (s *Streamlet) RemovePump(seg *FusedSegment) {
	s.mu.Lock()
	defer s.mu.Unlock()
	port := seg.stages[0].port
	s.stopLoopLocked(port)
	if q, ok := s.ins[port]; ok && (s.state == StateActive || s.state == StatePaused) {
		s.startLoopLocked(port, q, []stage{{m: s, port: port}}, s.batch)
	}
}
