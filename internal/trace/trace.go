// Package trace records structured simulation events.
//
// The protocol tests use it to assert the shape of the paper's figures —
// the 8 migration steps of Figure 3-1, the forwarded-message path of
// Figure 4-1, and the link update of Figure 5-1 — and the cmd/demosnet
// binary prints it for human inspection.
package trace

import (
	"fmt"
	"strings"

	"demosmp/internal/addr"
	"demosmp/internal/sim"
)

// Category groups related events.
type Category string

const (
	CatMigrate    Category = "migrate"
	CatForward    Category = "forward"
	CatLinkUpdate Category = "linkupdate"
	CatDeliver    Category = "deliver"
	CatProc       Category = "proc"
	CatData       Category = "data"
	CatConsole    Category = "console"
	CatPolicy     Category = "policy"
)

// Record is one traced event.
type Record struct {
	T       sim.Time
	Machine addr.MachineID
	Cat     Category
	Event   string // stable, test-friendly identifier, e.g. "step1-remove-from-execution"
	Detail  string
}

func (r Record) String() string {
	return fmt.Sprintf("%-12v %-4v %-10s %-32s %s", r.T, r.Machine, r.Cat, r.Event, r.Detail)
}

// Args are an event's detail arguments. The ring keeps them raw and builds
// Record.Detail only when a record is read (Records, Filter, Find, String),
// so an event the bounded ring later drops never pays for formatting.
type Args struct {
	// Fmt renders the detail from the fields below; nil means the detail
	// is S verbatim. It must be a pure function of its argument: it runs
	// at read time, possibly long after the event.
	Fmt  func(Args) string
	PID  addr.ProcessID
	A, B int64
	S    string
	Err  error
}

// Text is the Args of an already formatted detail string.
func Text(detail string) Args { return Args{S: detail} }

// Detail renders the detail string.
func (a Args) Detail() string {
	if a.Fmt == nil {
		return a.S
	}
	return a.Fmt(a)
}

// entry is one retained event, detail still unformatted.
type entry struct {
	t     sim.Time
	m     addr.MachineID
	cat   Category
	event string
	args  Args
}

func (e *entry) record() Record {
	return Record{T: e.t, Machine: e.m, Cat: e.cat, Event: e.event, Detail: e.args.Detail()}
}

// Tracer collects events in a bounded ring. The zero value is a disabled
// tracer that drops everything, so hot paths can call Emit unconditionally.
type Tracer struct {
	recs    []entry
	max     int
	dropped uint64
	clock   func() sim.Time
}

// New returns an enabled tracer keeping at most max records (0 = 64k).
func New(clock func() sim.Time, max int) *Tracer {
	if max <= 0 {
		max = 65536
	}
	return &Tracer{max: max, clock: clock}
}

// Emit records an event. Safe on a nil Tracer. It stores args as given and
// allocates nothing once the ring has reached its bound.
func (t *Tracer) Emit(m addr.MachineID, cat Category, event string, args Args) {
	if t == nil || t.clock == nil {
		return
	}
	if len(t.recs) >= t.max {
		// Drop the oldest half to amortize.
		copy(t.recs, t.recs[len(t.recs)/2:])
		t.recs = t.recs[:len(t.recs)-len(t.recs)/2]
		t.dropped++
	}
	t.recs = append(t.recs, entry{t: t.clock(), m: m, cat: cat, event: event, args: args})
}

// Emitf is Emit with a formatted detail string.
func (t *Tracer) Emitf(m addr.MachineID, cat Category, event, format string, args ...any) {
	if t == nil {
		return
	}
	t.Emit(m, cat, event, Text(fmt.Sprintf(format, args...)))
}

// Records returns the retained records in emission order.
func (t *Tracer) Records() []Record {
	if t == nil || len(t.recs) == 0 {
		return nil
	}
	out := make([]Record, len(t.recs))
	for i := range t.recs {
		out[i] = t.recs[i].record()
	}
	return out
}

// Filter returns the retained records in cat, in order.
func (t *Tracer) Filter(cat Category) []Record {
	var out []Record
	if t == nil {
		return out
	}
	for i := range t.recs {
		if t.recs[i].cat == cat {
			out = append(out, t.recs[i].record())
		}
	}
	return out
}

// Events returns just the event names of records matching cat (all
// categories if cat is empty), preserving order. Handy for asserting
// protocol step sequences.
func (t *Tracer) Events(cat Category) []string {
	var out []string
	if t == nil {
		return out
	}
	for i := range t.recs {
		if cat == "" || t.recs[i].cat == cat {
			out = append(out, t.recs[i].event)
		}
	}
	return out
}

// Find returns the first record with the given event name.
func (t *Tracer) Find(event string) (Record, bool) {
	if t != nil {
		for i := range t.recs {
			if t.recs[i].event == event {
				return t.recs[i].record(), true
			}
		}
	}
	return Record{}, false
}

// Count returns how many retained records have the given event name.
func (t *Tracer) Count(event string) int {
	n := 0
	if t != nil {
		for i := range t.recs {
			if t.recs[i].event == event {
				n++
			}
		}
	}
	return n
}

// String renders all retained records, one per line.
func (t *Tracer) String() string {
	if t == nil {
		return ""
	}
	var b strings.Builder
	for i := range t.recs {
		b.WriteString(t.recs[i].record().String())
		b.WriteByte('\n')
	}
	return b.String()
}
