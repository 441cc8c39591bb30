package main

import "testing"

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Parent: 0, Name: "pass", StartS: 0, EndS: 10},
		{ID: 2, Parent: 1, Name: "stage", StartS: 1, EndS: 4},
		{ID: 3, Parent: 1, Name: "stage", StartS: 3, EndS: 6},  // overlaps span 2
		{ID: 4, Parent: 1, Name: "tail", StartS: 8, EndS: 12},  // overhangs the parent
		{ID: 5, Parent: 2, Name: "inner", StartS: 2, EndS: 3},  // grandchild: not the parent's business
		{ID: 6, Parent: 1, Name: "nested", StartS: 4, EndS: 5}, // inside span 3's interval
	}
	self := SelfTimes(spans)
	want := map[int]float64{1: 3, 2: 2, 3: 3, 4: 4, 5: 1, 6: 1}
	for id, w := range want {
		if !near(self[id], w) {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *Recorder
	id := r.Start(0, "x")
	if id != 0 || r.End(id) != 0 || len(r.Spans()) != 0 {
		t.Fatal("a nil recorder must be a no-op")
	}
	var tr *Trace
	if tr.Start("x") != 0 || tr.End(0) != 0 || tr.Obs() != nil {
		t.Fatal("a nil trace must be a no-op")
	}
}
