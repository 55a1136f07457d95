package main

import "testing"

// Two requests over a three-rung ladder plus a span with two children: a
// rung's self time is its span minus the spans it caused, and the self
// times sum to the top spans.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "wire", Start: 0, End: 100, Parent: -1, Request: 0},
		{Name: "wire", Start: 100, End: 260, Parent: -1, Request: 1},
		{Name: "core", Start: 300, End: 360, Parent: 0, Request: 0},
		{Name: "core", Start: 360, End: 450, Parent: 1, Request: 1},
		{Name: "access", Start: 500, End: 520, Parent: 2, Request: 0},
		{Name: "access", Start: 520, End: 550, Parent: 3, Request: 1},
		// A second child of request 1's core span.
		{Name: "access", Start: 550, End: 560, Parent: 3, Request: 1},
		// A span nothing hangs under and that hangs under nothing.
		{Name: "wire.checkin", Start: 600, End: 640, Parent: -1, Request: 2},
	}
	self := selfTimes(spans)
	want := map[string]int64{
		"wire":         (100 - 60) + (160 - 90),
		"core":         (60 - 20) + (90 - 30 - 10),
		"access":       20 + 30 + 10,
		"wire.checkin": 40,
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, self[name], w)
		}
	}
	if len(self) != len(want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	if sum := self["wire"] + self["core"] + self["access"]; sum != 100+160 {
		t.Errorf("rung self times sum to %d, want the wire spans' %d", sum, 100+160)
	}
}
