package trace

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"demosmp/internal/sim"
)

func clockAt(t *sim.Time) func() sim.Time { return func() sim.Time { return *t } }

func TestEmitAndQuery(t *testing.T) {
	var now sim.Time
	tr := New(clockAt(&now), 0)
	tr.Emit(1, CatMigrate, "step1", Text("detail-a"))
	now = 50
	tr.Emit(2, CatForward, "fwd", Text("detail-b"))
	tr.Emitf(1, CatMigrate, "step2", "n=%d", 7)

	if got := len(tr.Records()); got != 3 {
		t.Fatalf("records = %d", got)
	}
	if evs := tr.Events(CatMigrate); len(evs) != 2 || evs[0] != "step1" || evs[1] != "step2" {
		t.Fatalf("migrate events: %v", evs)
	}
	if evs := tr.Events(""); len(evs) != 3 {
		t.Fatalf("all events: %v", evs)
	}
	r, ok := tr.Find("fwd")
	if !ok || r.T != 50 || r.Machine != 2 {
		t.Fatalf("Find: %+v %v", r, ok)
	}
	if _, ok := tr.Find("nope"); ok {
		t.Fatal("found nonexistent event")
	}
	if n := tr.Count("step1"); n != 1 {
		t.Fatalf("Count = %d", n)
	}
	if fr := tr.Filter(CatForward); len(fr) != 1 || fr[0].Detail != "detail-b" {
		t.Fatalf("Filter: %v", fr)
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(1, CatProc, "x", Text("y")) // must not panic
	tr.Emitf(1, CatProc, "x", "%d", 1)
	if tr.Records() != nil || tr.Events("") != nil {
		t.Fatal("nil tracer returned records")
	}
	if tr.String() != "" {
		t.Fatal("nil tracer stringified")
	}
	if _, ok := tr.Find("x"); ok {
		t.Fatal("nil tracer found something")
	}
}

func TestRingBound(t *testing.T) {
	var now sim.Time
	tr := New(clockAt(&now), 10)
	for i := 0; i < 100; i++ {
		tr.Emit(1, CatProc, "e", Text(""))
	}
	if got := len(tr.Records()); got > 10 {
		t.Fatalf("ring grew to %d", got)
	}
	// Newest records survive.
	if n := tr.Count("e"); n == 0 {
		t.Fatal("everything dropped")
	}
}

func TestStringRendering(t *testing.T) {
	var now sim.Time = 1500000
	tr := New(clockAt(&now), 0)
	tr.Emit(1, CatMigrate, "step1", Text("p1.1"))
	s := tr.String()
	if !strings.Contains(s, "1.500000s") || !strings.Contains(s, "step1") {
		t.Fatalf("render: %q", s)
	}
}

// TestArgsFormattedOnRead: Emit stores arguments, and a detail is built
// only for records a reader asks for — never for those the ring drops.
func TestArgsFormattedOnRead(t *testing.T) {
	var now sim.Time
	tr := New(clockAt(&now), 8)
	calls := 0
	f := func(a Args) string {
		calls++
		return fmt.Sprintf("n=%d s=%s err=%v", a.A, a.S, a.Err)
	}
	for i := 0; i < 100; i++ {
		tr.Emit(1, CatProc, "e", Args{Fmt: f, A: int64(i), S: "x", Err: errors.New("boom")})
	}
	if calls != 0 {
		t.Fatalf("Emit formatted %d details", calls)
	}
	recs := tr.Records()
	if calls != len(recs) {
		t.Fatalf("Records formatted %d details for %d records", calls, len(recs))
	}
	last := recs[len(recs)-1]
	if last.Detail != "n=99 s=x err=boom" {
		t.Fatalf("newest detail = %q", last.Detail)
	}
	if r, _ := tr.Find("e"); r != recs[0] {
		t.Fatalf("Find = %v, want %v", r, recs[0])
	}
	if Text("plain").Detail() != "plain" {
		t.Fatal("Text detail altered")
	}
}
