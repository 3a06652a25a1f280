package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/sim"
)

// rec is a shorthand Record call with distinguishable payloads: event i
// carries A=i so tests can assert exactly which events survived.
func rec(r *Recorder, i int) {
	r.Record(sim.Time(i)*sim.Millisecond, KindSegmentSend, 1, 0, 10, 20, int64(i), 0)
}

// TestNilRecorderSafe: every method on a nil *Recorder is a no-op —
// this is the whole zero-overhead contract's API half.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Record(0, KindEnqueue, 1, 0, 0, 0, 0, 0)
	if r.Len() != 0 || r.Total() != 0 {
		t.Error("nil recorder reports non-zero counters")
	}
	if r.Events() != nil {
		t.Error("nil recorder returned events")
	}
}

// TestRingWrap: a full ring overwrites oldest-first and Events unrolls
// the survivors in record order.
func TestRingWrap(t *testing.T) {
	r := newRecorder(true, 4)
	for i := 1; i <= 6; i++ {
		rec(r, i)
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Total() != 6 {
		t.Fatalf("Total = %d, want 6", r.Total())
	}
	got := r.Events()
	for i, e := range got {
		if want := int64(i + 3); e.A != want {
			t.Errorf("event %d: A = %d, want %d (oldest-first unroll)", i, e.A, want)
		}
	}
	// Before wrapping, Events must not unroll from head.
	r2 := newRecorder(true, 4)
	rec(r2, 1)
	rec(r2, 2)
	evs := r2.Events()
	if len(evs) != 2 || evs[0].A != 1 || evs[1].A != 2 {
		t.Errorf("partial ring events = %+v, want A=1,2", evs)
	}
}

// TestFullOverflow: full mode retains the first events up to its cap and
// still counts the rest in Total.
func TestFullOverflow(t *testing.T) {
	r := newRecorder(false, 3)
	for i := 1; i <= 5; i++ {
		rec(r, i)
	}
	if r.Len() != 3 || r.Total() != 5 {
		t.Fatalf("Len/Total = %d/%d, want 3/5", r.Len(), r.Total())
	}
	for i, e := range r.Events() {
		if want := int64(i + 1); e.A != want {
			t.Errorf("event %d: A = %d, want %d (first events kept)", i, e.A, want)
		}
	}
}

// TestNewRecorderModes: Off (and anything but Ring or Full) builds no
// recorder; Ring preallocates its 65,536 events and Full caps at 2^20.
func TestNewRecorderModes(t *testing.T) {
	for _, mode := range []Mode{Off, "bogus"} {
		if r := NewRecorder(mode); r != nil {
			t.Errorf("NewRecorder(%q) = %+v, want nil", mode, r)
		}
	}
	if r := NewRecorder(Ring); !r.ring || len(r.buf) != 65536 {
		t.Errorf("ring recorder: ring %v with %d slots, want a ring of 65536", r.ring, len(r.buf))
	}
	if r := NewRecorder(Full); r.ring || r.size != 1<<20 || len(r.buf) != 0 {
		t.Errorf("full recorder: ring %v, cap %d, %d preallocated; want full, 1<<20, none", r.ring, r.size, len(r.buf))
	}
}

// TestRecordAllocationFree: in ring mode, recording into a warm
// recorder allocates nothing — the flight recorder can stay armed in
// sweeps without perturbing the allocation-free hot path.
func TestRecordAllocationFree(t *testing.T) {
	r := newRecorder(true, 128)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		rec(r, i)
	})
	if allocs != 0 {
		t.Errorf("ring Record allocates %.2f per event, want 0", allocs)
	}
}

// TestWriteJSONL: the JSONL export is one valid object per line with
// the documented fields, oldest first.
func TestWriteJSONL(t *testing.T) {
	r := newRecorder(false, 8)
	r.Record(2*sim.Millisecond, KindSegmentSend, 7, 1, 10, 20, 1400, 0)
	r.Record(3*sim.Millisecond, KindLinkDown, 0, -1, 5, 6, 0, 0)
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", len(lines), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	if lines[0]["kind"] != "seg-send" || lines[0]["ts_us"] != 2000.0 || lines[0]["flow"] != 7.0 {
		t.Errorf("first line = %v, want seg-send at 2000us on flow 7", lines[0])
	}
	if lines[1]["kind"] != "link-down" {
		t.Errorf("second line kind = %v, want link-down", lines[1]["kind"])
	}
	if _, present := lines[1]["flow"]; present {
		t.Error("fabric event serialised a flow field (should be omitted at 0)")
	}
}

// TestWriteChromeTrace validates the Chrome trace-event export against
// the schema perfetto loads: a traceEvents array where every row has
// name/ph/pid, flows appear as paired async b/e spans, fabric and
// control events as instants, and the three process_name metadata rows
// label the tracks.
func TestWriteChromeTrace(t *testing.T) {
	r := newRecorder(false, 64)
	r.Record(1*sim.Millisecond, KindFlowStart, 3, -1, 10, 20, 70000, 0)
	r.Record(1*sim.Millisecond, KindSubflowOpen, 3, 0, 10, 20, 10000, 0)
	r.Record(2*sim.Millisecond, KindQueueDrop, 3, 0, 30, 31, 1400, 30)
	r.Record(3*sim.Millisecond, KindFaultInject, 0, -1, 30, 31, 1, 0)
	r.Record(4*sim.Millisecond, KindFIBFlip, 0, -1, 30, -1, 2, 5)
	r.Record(5*sim.Millisecond, KindSubflowClose, 3, 0, 10, 20, 70000, 0)
	r.Record(6*sim.Millisecond, KindFlowEnd, 3, -1, 10, 20, 70000, 0)

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) != 3+r.Len() {
		t.Fatalf("traceEvents has %d rows, want %d (3 metadata + %d events)",
			len(doc.TraceEvents), 3+r.Len(), r.Len())
	}
	metas, spans := 0, map[string][]string{}
	for i, ev := range doc.TraceEvents {
		for _, field := range []string{"name", "ph", "pid"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("row %d missing required field %q: %v", i, field, ev)
			}
		}
		switch ph := ev["ph"]; ph {
		case "M":
			metas++
			if ev["name"] != "process_name" {
				t.Errorf("metadata row with name %v", ev["name"])
			}
		case "b", "e":
			id, _ := ev["id"].(string)
			if id == "" {
				t.Errorf("async row %d has no id: %v", i, ev)
			}
			spans[id] = append(spans[id], ph.(string))
			if _, ok := ev["ts"].(float64); !ok {
				t.Errorf("async row %d has no numeric ts", i)
			}
		case "i":
			if _, ok := ev["s"]; !ok {
				t.Errorf("instant row %d has no scope: %v", i, ev)
			}
		default:
			t.Errorf("row %d has unexpected phase %v", i, ph)
		}
	}
	if metas != 3 {
		t.Errorf("%d metadata rows, want 3 (flows/fabric/control)", metas)
	}
	for id, phases := range spans {
		opens, closes := 0, 0
		for _, ph := range phases {
			if ph == "b" {
				opens++
			} else {
				closes++
			}
		}
		if opens != closes {
			t.Errorf("async span %q has %d begins and %d ends", id, opens, closes)
		}
	}
	if len(spans) != 2 {
		t.Errorf("got %d async spans, want 2 (flow-3 and flow-3/sf-0)", len(spans))
	}
}
