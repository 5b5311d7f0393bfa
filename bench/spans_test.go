package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{Trace: 1, ID: 1, Name: "root", Start: 0, End: 100},
		// Two children overlapping on [30,40]: their union covers [10,60].
		{Trace: 1, ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{Trace: 1, ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		// A child overhanging the parent's end counts only up to it.
		{Trace: 1, ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		// A grandchild reduces its parent's self time, not the root's.
		{Trace: 1, ID: 5, Parent: 2, Name: "a1", Start: 15, End: 25},
		// A child wholly inside an earlier sibling adds nothing.
		{Trace: 1, ID: 6, Parent: 1, Name: "d", Start: 35, End: 38},
	}
	self := selfTimes(spans)
	want := map[uint64]int64{
		1: 100 - 50 - 10, // [10,60] and [90,100]
		2: 30 - 10,
		3: 30,
		4: 30,
		5: 10,
		6: 3,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	tot := totalsByName(spans)
	if got := tot["root"]; got.Count != 1 || got.Total != 100 || got.Self != 40 {
		t.Errorf("root totals = %+v", got)
	}
}

func TestRecorderTreeAndNilRecorder(t *testing.T) {
	rec := newRecorder()
	root := rec.start(nil, "round")
	child := rec.start(root, "scan")
	time.Sleep(time.Millisecond)
	child.end()
	root.end()
	other := rec.start(nil, "round")
	other.end()

	spans := rec.snapshot()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	if spans[1].Parent != spans[0].ID || spans[1].Trace != spans[0].Trace {
		t.Errorf("child %+v not under root %+v", spans[1], spans[0])
	}
	if spans[2].Trace == spans[0].Trace || spans[2].Parent != 0 {
		t.Errorf("second root %+v shares the first root's trace", spans[2])
	}
	if d := spans[1].End - spans[1].Start; d < int64(time.Millisecond) {
		t.Errorf("child span lasted %dns, slept 1ms", d)
	}
	if spans[0].Start > spans[1].Start || spans[0].End < spans[1].End {
		t.Errorf("root %+v does not enclose child %+v", spans[0], spans[1])
	}

	// The untraced pass runs the same calls on a nil recorder.
	var none *recorder
	sp := none.start(nil, "x")
	none.start(sp, "y").end()
	sp.end()
	if none.snapshot() != nil {
		t.Error("nil recorder recorded spans")
	}
}

func TestSpansJSONLRoundTrip(t *testing.T) {
	spans := []span{
		{Trace: 1, ID: 1, Name: "replay.round", Start: 5, End: 900},
		{Trace: 1, ID: 2, Parent: 1, Name: "scanner.scan", Start: 10, End: 400},
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeSpansJSONL(path, spans); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		got = append(got, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, spans) {
		t.Errorf("read back %+v, wrote %+v", got, spans)
	}
}
