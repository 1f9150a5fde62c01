package obs

import (
	"testing"
	"time"
)

// TestHistogramPeekDoesNotCreate pins the read-side contract: Peek and
// FindHistogram never materialize series or families, and find exactly the
// series With created.
func TestHistogramPeekDoesNotCreate(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("peek_test_seconds", "t", "engine", "procs")

	if _, ok := v.Peek("fast-bcc", "1"); ok {
		t.Fatal("Peek found a series before any With")
	}
	if _, ok := r.FindHistogram("peek_test_seconds", "fast-bcc", "1"); ok {
		t.Fatal("FindHistogram found a series before any With")
	}
	// Wrong arity and unknown family return not-found, never panic.
	if _, ok := v.Peek("fast-bcc"); ok {
		t.Fatal("Peek matched with wrong label arity")
	}
	if _, ok := r.FindHistogram("no_such_family", "x"); ok {
		t.Fatal("FindHistogram invented a family")
	}

	h := v.With("fast-bcc", "1")
	h.Observe(3 * time.Millisecond)

	got, ok := v.Peek("fast-bcc", "1")
	if !ok || got != h {
		t.Fatalf("Peek: ok=%v same=%v", ok, got == h)
	}
	got, ok = r.FindHistogram("peek_test_seconds", "fast-bcc", "1")
	if !ok || got != h {
		t.Fatalf("FindHistogram: ok=%v same=%v", ok, got == h)
	}
	if s := got.Snapshot(); s.Count != 1 {
		t.Fatalf("snapshot count = %d, want 1", s.Count)
	}
	// Sibling series still invisible until created.
	if _, ok := v.Peek("fast-bcc", "2"); ok {
		t.Fatal("Peek found an uncreated sibling")
	}
	// A counter family under the same name lookup path must not satisfy
	// FindHistogram.
	r.Counter("peek_test_total", "t")
	if _, ok := r.FindHistogram("peek_test_total"); ok {
		t.Fatal("FindHistogram returned a counter family")
	}
}

// TestCounterVecValues pins the counter read-back: nil before any series
// exists, then one entry per label value carrying the live count.
func TestCounterVecValues(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("values_test_total", "t", "engine")
	if got := v.Values(); got != nil {
		t.Fatalf("Values before any With = %v, want nil", got)
	}
	v.With("fast-bcc").Add(2)
	v.With("sequential").Inc()
	v.Func(func() int64 { return 7 }, "tv-opt")
	got := v.Values()
	if len(got) != 3 || got["fast-bcc"] != 2 || got["sequential"] != 1 || got["tv-opt"] != 7 {
		t.Fatalf("Values = %v", got)
	}
}
