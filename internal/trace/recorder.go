package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/sim"
)

// Kind identifies a structured trace event. The set covers the whole
// stack: transport (segment send/retransmit, acks, cwnd/RTO moves,
// subflow lifecycle, the MMPTCP phase switch), the emulated network
// (enqueues, ECN marks, every drop class, link state), the routing
// control plane (recomputes, per-switch FIB flips) and the fault
// injector (inject/repair). Numeric values are internal —
// serialise via String(); new kinds append at the end.
type Kind uint8

const (
	KindFlowStart      Kind = iota // a=size bytes
	KindFlowEnd                    // a=bytes acked
	KindSegmentSend                // a=seq, b=payload len
	KindSegmentRetx                // a=seq, b=payload len
	KindAck                        // a=cumulative ack, b=bytes in flight
	KindCwnd                       // a=cwnd bytes, b=ssthresh bytes
	KindRTO                        // a=rto (sim.Time), b=srtt (sim.Time)
	KindFastRetransmit             // a=recovery point seq, b=ssthresh
	KindTimeout                    // a=backed-off rto (sim.Time), b=snd_una
	KindSubflowOpen                // a=src port
	KindSubflowClose               // a=bytes acked
	KindPhaseSwitch                // a=bytes handed over, b=subflow count
	KindEnqueue                    // link node->peer; a=seq, b=queue depth after
	KindECNMark                    // link node->peer; a=seq, b=queue depth
	KindQueueDrop                  // link node->peer; a=seq, b=queue limit
	KindRandomDrop                 // link node->peer; a=seq
	KindBlackhole                  // link node->peer; a=seq
	KindHopDrop                    // switch node; a=hop count
	KindLoopDrop                   // switch node; a=hop count
	KindNoRouteDrop                // switch node; a=1 if during a transient window
	KindCrashDrop                  // switch node; a=seq
	KindLinkDown                   // link node->peer
	KindLinkUp                     // link node->peer
	KindRecomputeStart             // a=coalesced transitions in batch
	KindRecomputeEnd               // a=destinations recomputed, b=skipped
	KindFIBFlip                    // switch node; a=epoch, b=override count
	KindFaultInject                // a=fault kind code
	KindFaultRepair                // a=fault kind code
	KindSubflowDead                // a=consecutive RTOs, b=bytes acked at death
	KindSubflowRedial              // a=new src port, b=attempt number
	KindPhaseDefer                 // a=deferrals so far, b=1 if forced by MaxDefer
	KindWindowEdge                 // coordinator window; a=width (ns), b=elided shard wakeups
	numKinds
)

var kindNames = [numKinds]string{
	"flow-start", "flow-end",
	"seg-send", "seg-retx", "ack", "cwnd", "rto",
	"fast-retx", "timeout",
	"subflow-open", "subflow-close", "phase-switch",
	"enqueue", "ecn-mark",
	"queue-drop", "random-drop", "blackhole",
	"hop-drop", "loop-drop", "noroute-drop", "crash-drop",
	"link-down", "link-up",
	"recompute-start", "recompute-end", "fib-flip",
	"fault-inject", "fault-repair",
	"subflow-dead", "subflow-redial", "phase-defer",
	"window-edge",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind-%d", uint8(k))
}

// Event is one structured trace record: virtual time, kind, and a
// fixed-size identity/payload block. No pointers, no per-event heap
// allocation — ring mode writes into preallocated storage.
//
// Identity conventions: Flow is 0 for events not tied to a flow
// (routing, faults, link state) — flow IDs start at 1. Sub is the
// subflow ordinal (-1 when not subflow-scoped; MMPTCP's packet-scatter
// phase is subflow 0). Node/Peer are netem node IDs: for link-scoped
// events Node→Peer is the link direction; for switch-scoped events
// Node is the switch and Peer is -1; for transport events Node is the
// source host and Peer the destination host. A and B are per-kind
// payloads documented on the Kind constants.
type Event struct {
	At   sim.Time
	Kind Kind
	Sub  int8
	Node int32
	Peer int32
	Flow uint64
	A, B int64
}

// Mode selects the recorder's retention policy.
type Mode string

const (
	// Off disables the recorder entirely: NewRecorder returns nil. Trace
	// points stay compiled in but cost one nil check each; the hot path
	// is allocation-identical to a build without tracing.
	Off Mode = ""
	// Ring keeps the newest ringEvents events in a preallocated ring — a
	// flight recorder: O(1) memory however long the run, the tail of
	// history available when something goes wrong, always safe to leave
	// armed in sweeps.
	Ring Mode = "ring"
	// Full retains every recorded event up to fullEvents, for complete
	// timelines of small runs; it counts (but discards) the overflow.
	Full Mode = "full"
)

// Storage sizes. One event is 48 bytes, so the ring holds ~3 MB
// regardless of run length; full mode grows on demand up to its cap and
// drops what comes after it (Total - Len counts it).
const (
	ringEvents = 65536
	fullEvents = 1 << 20
)

// Recorder is a structured event-trace sink. It is deliberately inert:
// recording reads caller state and appends to the recorder's own
// storage — it never schedules engine events, draws random numbers, or
// touches packet pools, so a traced run's Results are byte-identical
// to the untraced run's.
//
// All methods are safe on a nil *Recorder and return immediately —
// components hold a plain possibly-nil pointer and hot paths guard
// with a single `if rec != nil` branch, keeping the disabled cost to a
// predictable-not-taken branch (pinned by TestTraceDisabledAllocationFree
// and the engine-throughput bench guard).
//
// A Recorder is owned by one run (one engine) at a time; it is not
// safe for concurrent use. A traced run gets a fresh recorder of its own.
type Recorder struct {
	ring  bool // ring mode; full otherwise
	size  int  // ring: capacity; full: cap on retained events
	buf   []Event
	head  int    // ring: next write index
	n     int    // ring: live events (<= len(buf))
	total uint64 // events accepted (including overwritten/discarded)
}

// NewRecorder builds a recorder for mode, or returns nil for Off (and
// for any other mode: the public Config layer rejects those first).
func NewRecorder(mode Mode) *Recorder {
	switch mode {
	case Ring:
		return newRecorder(true, ringEvents)
	case Full:
		return newRecorder(false, fullEvents)
	}
	return nil
}

// newRecorder builds a ring of size events or a full recorder capped at
// size events.
func newRecorder(ring bool, size int) *Recorder {
	r := &Recorder{ring: ring, size: size}
	if ring {
		r.buf = make([]Event, size)
	}
	return r
}

// Reset discards recorded events but keeps the storage,
// returning the recorder to its armed, empty state. MergeInto calls it
// on dst before refilling it with the merged stream.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.head, r.n, r.total = 0, 0, 0
	if !r.ring {
		r.buf = r.buf[:0]
	}
}

// Record appends one event. at is the engine's virtual time at the
// trace point; flow is 0 for fabric and control-plane events.
func (r *Recorder) Record(at sim.Time, kind Kind, flow uint64, sub int8, node, peer int32, a, b int64) {
	if r == nil {
		return
	}
	r.total++
	if r.ring {
		e := &r.buf[r.head]
		e.At, e.Kind, e.Flow, e.Sub, e.Node, e.Peer, e.A, e.B = at, kind, flow, sub, node, peer, a, b
		r.head++
		if r.head == len(r.buf) {
			r.head = 0
		}
		if r.n < len(r.buf) {
			r.n++
		}
		return
	}
	if len(r.buf) >= r.size {
		return
	}
	r.buf = append(r.buf, Event{At: at, Kind: kind, Flow: flow, Sub: sub, Node: node, Peer: peer, A: a, B: b})
}

// Len is the number of retained events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	if r.ring {
		return r.n
	}
	return len(r.buf)
}

// Total is the number of events accepted by the recorder, including
// those since overwritten (ring) or discarded at the cap (full), so
// Total - Len is how many it did not keep.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.total
}

// Events returns the retained events in record order (oldest first),
// unrolling the ring. The slice is a copy; mutating it does not affect
// the recorder.
func (r *Recorder) Events() []Event {
	if r == nil || r.Len() == 0 {
		return nil
	}
	out := make([]Event, r.Len())
	if !r.ring {
		copy(out, r.buf)
		return out
	}
	// Unroll the ring: oldest surviving event is at head once wrapped.
	start := 0
	if r.n == len(r.buf) {
		start = r.head
	}
	n := copy(out, r.buf[start:start+min(r.n, len(r.buf)-start)])
	if n < r.n {
		copy(out[n:], r.buf[:r.n-n])
	}
	return out
}

// jsonlEvent is the stable JSONL schema: one object per line. ts_us is
// virtual time in microseconds.
type jsonlEvent struct {
	TsUs float64 `json:"ts_us"`
	Kind string  `json:"kind"`
	Flow uint64  `json:"flow,omitempty"`
	Sub  int8    `json:"sub"`
	Node int32   `json:"node"`
	Peer int32   `json:"peer"`
	A    int64   `json:"a"`
	B    int64   `json:"b"`
}

func tsMicros(t sim.Time) float64 {
	return float64(t) / 1e3 // sim.Time is nanoseconds
}

// WriteJSONL writes the retained events as JSON Lines, one event per
// line, oldest first.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range r.Events() {
		je := jsonlEvent{
			TsUs: tsMicros(e.At), Kind: e.Kind.String(),
			Flow: e.Flow, Sub: e.Sub, Node: e.Node, Peer: e.Peer, A: e.A, B: e.B,
		}
		if err := enc.Encode(je); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// chromeEvent is one Chrome trace-event JSON record (the subset
// perfetto and chrome://tracing load: metadata, async begin/end,
// instants).
type chromeEvent struct {
	Name  string           `json:"name"`
	Cat   string           `json:"cat,omitempty"`
	Ph    string           `json:"ph"`
	Ts    float64          `json:"ts"`
	Pid   int              `json:"pid"`
	Tid   int64            `json:"tid"`
	ID    string           `json:"id,omitempty"`
	Scope string           `json:"s,omitempty"`
	Args  map[string]int64 `json:"args,omitempty"`
}

// Track (pid) layout in the Chrome trace: flows are async spans on the
// "flows" process, fabric events (queues, drops, FIB flips) are
// instants on per-switch/per-link tracks under "fabric", and
// control-plane events (faults, recomputes) are global instants under
// "control".
const (
	chromePidFlows   = 1
	chromePidFabric  = 2
	chromePidControl = 3
)

// WriteChromeTrace writes the retained events as Chrome trace-event
// JSON, loadable in perfetto or chrome://tracing: flows (and their
// subflows) as async spans, switch/link activity as instants on fabric
// tracks, faults and routing control-plane activity as instants.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	events := r.Events()
	rows := make([]chromeEvent, 0, len(events))
	for _, e := range events {
		rows = append(rows, chromeFromEvent(e))
	}
	// Viewers sort by ts anyway, but emit sorted so the file is
	// deterministic and diffs cleanly.
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Ts < rows[j].Ts })

	// Metadata rows carry a string arg, which the int64-typed event
	// Args can't, so the envelope is assembled by hand with both row
	// shapes sharing the traceEvents array.
	type chromeMeta struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Pid  int               `json:"pid"`
		Args map[string]string `json:"args"`
	}
	metas := []chromeMeta{
		{Name: "process_name", Ph: "M", Pid: chromePidFlows, Args: map[string]string{"name": "flows"}},
		{Name: "process_name", Ph: "M", Pid: chromePidFabric, Args: map[string]string{"name": "fabric"}},
		{Name: "process_name", Ph: "M", Pid: chromePidControl, Args: map[string]string{"name": "control"}},
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"traceEvents":[`); err != nil {
		return err
	}
	first := true
	writeRow := func(v any) error {
		if !first {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		first = false
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		_, err = bw.Write(b)
		return err
	}
	for _, m := range metas {
		if err := writeRow(m); err != nil {
			return err
		}
	}
	for _, ce := range rows {
		if err := writeRow(ce); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString(`],"displayTimeUnit":"ms"}` + "\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// chromeFromEvent maps one structured event onto the Chrome trace
// vocabulary.
func chromeFromEvent(e Event) chromeEvent {
	ce := chromeEvent{Name: e.Kind.String(), Ts: tsMicros(e.At)}
	switch e.Kind {
	case KindFlowStart:
		return chromeEvent{
			Name: fmt.Sprintf("flow %d", e.Flow), Cat: "flow", Ph: "b",
			Ts: ce.Ts, Pid: chromePidFlows, Tid: int64(e.Flow),
			ID:   fmt.Sprintf("flow-%d", e.Flow),
			Args: map[string]int64{"src": int64(e.Node), "dst": int64(e.Peer), "size": e.A},
		}
	case KindFlowEnd:
		return chromeEvent{
			Name: fmt.Sprintf("flow %d", e.Flow), Cat: "flow", Ph: "e",
			Ts: ce.Ts, Pid: chromePidFlows, Tid: int64(e.Flow),
			ID:   fmt.Sprintf("flow-%d", e.Flow),
			Args: map[string]int64{"acked": e.A},
		}
	case KindSubflowOpen:
		return chromeEvent{
			Name: fmt.Sprintf("subflow %d", e.Sub), Cat: "subflow", Ph: "b",
			Ts: ce.Ts, Pid: chromePidFlows, Tid: int64(e.Flow),
			ID: fmt.Sprintf("flow-%d/sf-%d", e.Flow, e.Sub),
		}
	case KindSubflowClose:
		return chromeEvent{
			Name: fmt.Sprintf("subflow %d", e.Sub), Cat: "subflow", Ph: "e",
			Ts: ce.Ts, Pid: chromePidFlows, Tid: int64(e.Flow),
			ID:   fmt.Sprintf("flow-%d/sf-%d", e.Flow, e.Sub),
			Args: map[string]int64{"acked": e.A},
		}
	case KindFaultInject, KindFaultRepair, KindRecomputeStart, KindRecomputeEnd,
		KindWindowEdge:
		return chromeEvent{
			Name: e.Kind.String(), Cat: "control", Ph: "i", Scope: "g",
			Ts: ce.Ts, Pid: chromePidControl, Tid: 0,
			Args: map[string]int64{"node": int64(e.Node), "peer": int64(e.Peer), "a": e.A, "b": e.B},
		}
	case KindFIBFlip, KindHopDrop, KindLoopDrop, KindNoRouteDrop, KindCrashDrop:
		return chromeEvent{
			Name: e.Kind.String(), Cat: "fabric", Ph: "i", Scope: "t",
			Ts: ce.Ts, Pid: chromePidFabric, Tid: int64(e.Node),
			Args: map[string]int64{"flow": int64(e.Flow), "a": e.A, "b": e.B},
		}
	case KindEnqueue, KindECNMark, KindQueueDrop, KindRandomDrop, KindBlackhole,
		KindLinkDown, KindLinkUp:
		return chromeEvent{
			Name: e.Kind.String(), Cat: "fabric", Ph: "i", Scope: "t",
			Ts: ce.Ts, Pid: chromePidFabric, Tid: int64(e.Node),
			Args: map[string]int64{"peer": int64(e.Peer), "flow": int64(e.Flow), "a": e.A, "b": e.B},
		}
	default:
		// Remaining transport events: instants on the flow's track.
		return chromeEvent{
			Name: e.Kind.String(), Cat: "transport", Ph: "i", Scope: "t",
			Ts: ce.Ts, Pid: chromePidFlows, Tid: int64(e.Flow),
			Args: map[string]int64{"sub": int64(e.Sub), "a": e.A, "b": e.B},
		}
	}
}
