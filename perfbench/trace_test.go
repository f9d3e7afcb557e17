package main

import (
	"testing"
	"time"
)

func TestSelfTimesSubtractUnionOfDirectChildren(t *testing.T) {
	names := []string{"root", "a", "b", "c", "grand"}
	spans := []span{
		{start: 0, end: 100, parent: -1, name: 0},
		{start: 10, end: 40, parent: 0, name: 1},  // overlaps b
		{start: 30, end: 60, parent: 0, name: 2},  // overlaps a
		{start: 90, end: 120, parent: 0, name: 3}, // runs past the root's end
		{start: 15, end: 20, parent: 1, name: 4},  // nested in a, not a child of root
		{start: 50, end: 55, parent: 2, name: 4},  // nested in b
	}
	got := selfTimes(names, spans)
	want := map[string]layerTime{
		// 100 minus the union [10,60] ∪ [90,100] = 100 - 60.
		"root":  {Count: 1, Total: 100, Self: 40},
		"a":     {Count: 1, Total: 30, Self: 25},
		"b":     {Count: 1, Total: 30, Self: 25},
		"c":     {Count: 1, Total: 30, Self: 30},
		"grand": {Count: 2, Total: 10, Self: 10},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %+v, want %+v", name, got[name], w)
		}
	}
}

func TestSelfTimesIdenticalAndContainedChildren(t *testing.T) {
	names := []string{"p", "c"}
	spans := []span{
		{start: 0, end: 50, parent: -1, name: 0},
		{start: 10, end: 30, parent: 0, name: 1},
		{start: 10, end: 30, parent: 0, name: 1}, // concurrent twin
		{start: 12, end: 20, parent: 0, name: 1}, // inside the twins
	}
	if got := selfTimes(names, spans)["p"]; got.Self != 30 {
		t.Errorf("parent self = %v, want 30", got.Self)
	}
}

func TestTracerRecordsParentsAndNilTracerIsInert(t *testing.T) {
	var none *tracer
	if i := none.begin("x", -1, 0); i != -1 {
		t.Fatalf("nil tracer begin = %d", i)
	}
	none.finish(-1)

	tr := newTracer(4)
	root := tr.begin("root", -1, 7)
	tr.do("child", root, 7, func() { time.Sleep(time.Millisecond) })
	tr.finish(root)
	lt := tr.layers()
	if lt["root"].Count != 1 || lt["child"].Count != 1 {
		t.Fatalf("layers = %+v", lt)
	}
	if r, c := lt["root"], lt["child"]; r.Self != r.Total-c.Total || c.Total < time.Millisecond {
		t.Errorf("root %+v, child %+v: root self must exclude the child", r, c)
	}
}
