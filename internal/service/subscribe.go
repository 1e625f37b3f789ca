package service

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/datalog"
)

// Live subscriptions. Every commit's incremental maintenance already
// computes the exact per-predicate IDB delta of each registered program
// (datalog.Incremental.LastDelta); the hub publishes those deltas to
// subscribers instead of discarding them, turning maintained programs
// into live materialized views.
//
// Ordering and consistency: publish runs inside commitLocked (under the
// service's writer lock), after the commit's views were published to
// readers, and Subscribe/replay run under the hub's own lock, so a
// subscriber observes a gapless, version-ordered prefix of the commit
// sequence, and every version it is told of is already readable: a
// snapshot query at the hello (or resume) version plus the received
// deltas reproduces the view at the last delivered version, byte for
// byte. Commits whose filtered delta is
// empty for a subscriber are skipped — versions may therefore skip
// forward, but the view is unchanged across skipped versions.
//
// Backpressure: each subscriber owns a bounded buffer. A publish that
// finds the buffer full drops the subscriber immediately — blocking
// would stall commits for everyone — and the dropped subscriber's
// stream ends with a gap event (type "gap", reason "slow consumer")
// telling the client to re-snapshot at the event's version and
// resubscribe with from=<that version>. The same gap signal answers a
// resume whose from-version has aged out of the hub's history window.

// SubEvent event types.
const (
	// EventHello opens every subscription: Version is the stream's
	// anchor — the version the client's view must reflect before
	// applying delta events. It is the current version for a live
	// subscription and the resume version when resuming (replayed
	// events then follow in ascending version order).
	EventHello = "hello"
	// EventDelta carries one commit's per-predicate tuple adds/removes
	// for the subscribed program, filtered to the subscriber's
	// predicates and goal.
	EventDelta = "delta"
	// EventGap ends a stream that lost continuity: the subscriber was
	// too slow (Reason "slow consumer") or asked to resume below the
	// history window. The client's copy is stale; re-snapshot at
	// Resume and resubscribe from there.
	EventGap = "gap"
)

// PredDeltaJSON is one predicate's tuple changes within a delta event,
// both slices in the canonical sorted order.
type PredDeltaJSON struct {
	Pred    string  `json:"pred"`
	Adds    [][]int `json:"adds,omitempty"`
	Removes [][]int `json:"removes,omitempty"`
}

// SubEvent is one message on a subscription stream.
type SubEvent struct {
	Type    string          `json:"type"`
	Program string          `json:"program"`
	Version int64           `json:"version"`
	Deltas  []PredDeltaJSON `json:"deltas,omitempty"`
	// Resume (gap events) is the version whose snapshot restores
	// continuity: query it, then resubscribe with from=Resume.
	Resume int64 `json:"resume,omitempty"`
	// Reason (gap events) says what broke: "slow consumer" or
	// "history window exceeded".
	Reason string `json:"reason,omitempty"`
}

// SubscribeRequest opens one subscription.
type SubscribeRequest struct {
	// Program names the registration whose view deltas to stream.
	Program string
	// Preds restricts events to these IDB predicates (empty = all IDB
	// predicates of the program).
	Preds []string
	// Goal, when non-nil with at least one bound position, restricts the
	// goal predicate's deltas to tuples matching the binding — the same
	// slice a bound /v1/query answers. The goal's predicate is implicitly
	// added to the watched set.
	Goal *datalog.Goal
	// FromVersion < 0 subscribes live from the current version. >= 0
	// resumes: events for every commit after FromVersion are replayed
	// from the hub's history window before live delivery begins; a
	// FromVersion older than the window yields an immediate gap event.
	FromVersion int64
	// Buffer bounds the subscriber's event queue (default 64, max 4096).
	// A publish that finds the queue full drops the subscriber with a
	// gap event.
	Buffer int
}

// Subscription is one live event stream. Read Events until it closes;
// then Gap reports whether (and why) the stream ended with a gap.
type Subscription struct {
	// Events delivers hello, replayed and live delta events in version
	// order. It closes when the subscriber is dropped (see Gap), when
	// Close is called, or when the service shuts down.
	Events  <-chan SubEvent
	Program string

	hub *subHub
	sub *subscriber
}

// Gap returns the terminal gap event of a dropped subscription. It is
// valid only after Events has closed; ok is false for a clean close.
func (s *Subscription) Gap() (ev SubEvent, ok bool) {
	return s.sub.gapEvent, s.sub.gapped
}

// Close unsubscribes and closes Events. Idempotent; safe concurrently
// with publishes.
func (s *Subscription) Close() { s.hub.remove(s.sub) }

// subscriber is the hub-side state of one subscription.
type subscriber struct {
	id      int64
	program string
	preds   map[string]bool // nil = every IDB predicate
	// goalPred/match implement the bound-goal filter (match nil = none).
	goalPred string
	match    func(datalog.Tuple) bool
	ch       chan SubEvent
	// gapEvent/gapped are written under the hub lock before ch is
	// closed; the channel close orders them before any reader's access.
	gapEvent SubEvent
	gapped   bool
	closed   bool
}

// hubCommit is one commit's program deltas retained for resume replay.
// Commits with no view changes are retained too (empty byProg), so the
// history covers a contiguous version range.
type hubCommit struct {
	version int64
	byProg  map[string][]PredDeltaJSON
}

// subHub fans maintenance deltas out to subscribers and retains a
// bounded history of per-commit deltas for resume-from-version.
type subHub struct {
	mu      sync.Mutex
	nextID  int64
	subs    map[int64]*subscriber
	hist    []hubCommit // ascending contiguous versions, ≤ window entries
	window  int
	version int64 // last published version (init: store version at boot)

	// Counters surfaced by /v1/metrics and Stats().
	events    atomic.Int64 // events delivered (queued) to subscribers
	replayed  atomic.Int64 // events delivered from history on resume
	dropped   atomic.Int64 // subscribers dropped by backpressure or stale resume
	peakQueue atomic.Int64 // high-water mark of any subscriber's queue length
}

func newSubHub(window int, version int64) *subHub {
	if window < 1 {
		window = 1
	}
	return &subHub{subs: map[int64]*subscriber{}, window: window, version: version}
}

func (h *subHub) active() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

func (h *subHub) histLen() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.hist)
}

// publish records one commit's deltas in the history ring and delivers
// the filtered event to every matching subscriber. Called from
// commitLocked (live and WAL replay), so versions arrive in order.
func (h *subHub) publish(version int64, byProg map[string][]PredDeltaJSON) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.version = version
	h.hist = append(h.hist, hubCommit{version: version, byProg: byProg})
	if len(h.hist) > h.window {
		copy(h.hist, h.hist[len(h.hist)-h.window:])
		h.hist = h.hist[:h.window]
	}
	if len(h.subs) == 0 {
		return
	}
	for _, sub := range h.subs {
		ev, ok := sub.filter(version, byProg[sub.program])
		if !ok {
			continue
		}
		h.deliverLocked(sub, ev, false)
	}
}

// deliverLocked queues one event on a subscriber, dropping the
// subscriber with a gap signal when its buffer is full. Caller holds
// h.mu.
func (h *subHub) deliverLocked(sub *subscriber, ev SubEvent, replay bool) bool {
	if sub.closed {
		return false
	}
	select {
	case sub.ch <- ev:
		h.events.Add(1)
		if replay {
			h.replayed.Add(1)
		}
		if q := int64(len(sub.ch)); q > h.peakQueue.Load() {
			h.peakQueue.Store(q)
		}
		return true
	default:
		h.gapLocked(sub, SubEvent{
			Type: EventGap, Program: sub.program, Version: h.version,
			Resume: h.version, Reason: "slow consumer",
		})
		return false
	}
}

// gapLocked drops a subscriber with the given terminal gap event.
// Caller holds h.mu.
func (h *subHub) gapLocked(sub *subscriber, ev SubEvent) {
	if sub.closed {
		return
	}
	sub.gapEvent = ev
	sub.gapped = true
	sub.closed = true
	close(sub.ch)
	delete(h.subs, sub.id)
	h.dropped.Add(1)
}

// remove cleanly unsubscribes (Subscription.Close and handler exits).
func (h *subHub) remove(sub *subscriber) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if sub.closed {
		return
	}
	sub.closed = true
	close(sub.ch)
	delete(h.subs, sub.id)
}

// closeAll ends every stream cleanly (service shutdown).
func (h *subHub) closeAll() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for id, sub := range h.subs {
		sub.closed = true
		close(sub.ch)
		delete(h.subs, id)
	}
}

// filter projects one commit's program delta onto this subscriber's
// predicates and goal slice; ok is false when nothing remains.
func (sub *subscriber) filter(version int64, deltas []PredDeltaJSON) (SubEvent, bool) {
	if len(deltas) == 0 {
		return SubEvent{}, false
	}
	var kept []PredDeltaJSON
	for _, pd := range deltas {
		if sub.preds != nil && !sub.preds[pd.Pred] {
			continue
		}
		if sub.match != nil && pd.Pred == sub.goalPred {
			pd = PredDeltaJSON{
				Pred:    pd.Pred,
				Adds:    filterTuples(pd.Adds, sub.match),
				Removes: filterTuples(pd.Removes, sub.match),
			}
			if len(pd.Adds) == 0 && len(pd.Removes) == 0 {
				continue
			}
		}
		kept = append(kept, pd)
	}
	if len(kept) == 0 {
		return SubEvent{}, false
	}
	return SubEvent{Type: EventDelta, Program: sub.program, Version: version, Deltas: kept}, true
}

func filterTuples(in [][]int, keep func(datalog.Tuple) bool) [][]int {
	var out [][]int
	for _, t := range in {
		if keep(datalog.Tuple(t)) {
			out = append(out, t)
		}
	}
	return out
}

// Subscribe opens a live delta stream over a registered program's
// maintained view. The hello event anchors the stream at the current
// version; with FromVersion >= 0 the hub first replays the deltas of
// every retained commit after that version, so a client holding a
// snapshot at FromVersion catches up without re-querying — unless the
// version has aged out of the history window, in which case the stream
// ends immediately with a documented gap event.
func (s *Service) Subscribe(req SubscribeRequest) (*Subscription, error) {
	if err := s.root.Err(); err != nil {
		return nil, ErrClosed
	}
	reg := s.pub.Load().progs[req.Program]
	if reg == nil {
		return nil, fmt.Errorf("service: no program registered as %q", req.Program)
	}
	idbs := reg.prog.IDBs()
	var preds map[string]bool
	if len(req.Preds) > 0 {
		preds = map[string]bool{}
		for _, p := range req.Preds {
			if !idbs[p] {
				return nil, fmt.Errorf("service: %q is not an IDB predicate of program %q", p, req.Program)
			}
			preds[p] = true
		}
	}
	var match func(datalog.Tuple) bool
	goalPred := ""
	if req.Goal != nil && boundGoal(*req.Goal) {
		g := *req.Goal
		if !idbs[g.Pred] {
			return nil, fmt.Errorf("service: goal predicate %q is not an IDB predicate of program %q", g.Pred, req.Program)
		}
		if ar := reg.prog.Arities()[g.Pred]; len(g.Bound) != ar {
			return nil, fmt.Errorf("service: goal for %s has %d positions, predicate has arity %d", g.Pred, len(g.Bound), ar)
		}
		// The view holds the goal predicate's whole relation, and a bound
		// /v1/query answers exactly its tuples that match the binding; so the
		// subscribed slice is a tuple match on the view's deltas, no rewrite.
		match, goalPred = g.Matches, g.Pred
		if preds != nil {
			preds[g.Pred] = true
		}
	}
	buffer := req.Buffer
	if buffer <= 0 {
		buffer = s.cfg.SubscribeBuffer
	}
	if buffer > 4096 {
		buffer = 4096
	}

	h := s.subs
	h.mu.Lock()
	defer h.mu.Unlock()
	current := h.version
	if req.FromVersion > current {
		return nil, fmt.Errorf("service: cannot resume from version %d, current is %d", req.FromVersion, current)
	}
	h.nextID++
	sub := &subscriber{
		id: h.nextID, program: req.Program, preds: preds,
		goalPred: goalPred, match: match,
		ch: make(chan SubEvent, buffer),
	}
	out := &Subscription{Events: sub.ch, Program: req.Program, hub: h, sub: sub}

	// Resume continuity check: every commit in (FromVersion, current]
	// must still be in the history ring.
	if req.FromVersion >= 0 && req.FromVersion < current {
		if len(h.hist) == 0 || h.hist[0].version > req.FromVersion+1 {
			sub.gapEvent = SubEvent{
				Type: EventGap, Program: req.Program, Version: current,
				Resume: current, Reason: "history window exceeded",
			}
			sub.gapped = true
			sub.closed = true
			close(sub.ch)
			h.dropped.Add(1)
			return out, nil
		}
	}

	// The hello anchors the stream: its version is what the client's
	// snapshot must reflect before applying delta events — the current
	// version for a live subscription, the resume version when resuming
	// (the replayed events then carry the client from there to current).
	anchor := current
	if req.FromVersion >= 0 {
		anchor = req.FromVersion
	}
	h.subs[sub.id] = sub
	if !h.deliverLocked(sub, SubEvent{Type: EventHello, Program: req.Program, Version: anchor}, false) {
		return out, nil
	}
	if req.FromVersion >= 0 {
		for _, hc := range h.hist {
			if hc.version <= req.FromVersion {
				continue
			}
			ev, ok := sub.filter(hc.version, hc.byProg[req.Program])
			if !ok {
				continue
			}
			if !h.deliverLocked(sub, ev, true) {
				break // replay overflowed the buffer; the gap event says so
			}
		}
	}
	return out, nil
}

// boundGoal reports whether the goal binds at least one position.
func boundGoal(g datalog.Goal) bool {
	for _, b := range g.Bound {
		if b {
			return true
		}
	}
	return false
}

// publishCommit converts one commit's per-program maintenance deltas to
// wire shape and hands them to the hub. Called from commitLocked after
// the commit's views were published (swap, then frame), with the deltas
// of the registrations whose maintenance succeeded.
func (s *Service) publishCommit(version int64, deltas map[string]datalog.Delta) {
	byProg := map[string][]PredDeltaJSON{}
	for name, d := range deltas {
		if d.Empty() {
			continue
		}
		byProg[name] = predDeltasToWire(d)
	}
	s.subs.publish(version, byProg)
}

// predDeltasToWire flattens a maintenance delta, predicates sorted so
// events are deterministic.
func predDeltasToWire(d datalog.Delta) []PredDeltaJSON {
	names := map[string]bool{}
	for p := range d.Added {
		names[p] = true
	}
	for p := range d.Removed {
		names[p] = true
	}
	sorted := make([]string, 0, len(names))
	for p := range names {
		sorted = append(sorted, p)
	}
	sort.Strings(sorted)
	out := make([]PredDeltaJSON, 0, len(sorted))
	for _, p := range sorted {
		out = append(out, PredDeltaJSON{
			Pred:    p,
			Adds:    tuplesToWire(d.Added[p]),
			Removes: tuplesToWire(d.Removed[p]),
		})
	}
	return out
}
