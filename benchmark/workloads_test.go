package main

import (
	"bytes"
	"slices"
	"testing"
	"time"
)

// tiny is a workload size small enough for the smoke test.
var tiny = sizes{blocks: 1, prefillLines: 1, prefillTrees: 1, window: 200 * time.Millisecond, mixRate: 20, busGroups: 1, busReplays: 2}

// fingerprint is every byte a workload would send, in order.
func fingerprint(t *testing.T, w *workload) []byte {
	t.Helper()
	var b bytes.Buffer
	add := func(items []*item) {
		for _, it := range items {
			b.Write(it.body)
			b.WriteByte('\n')
		}
	}
	add(w.warm)
	add(w.batch)
	add(w.seq)
	for _, d := range w.due {
		b.WriteString(d.String())
	}
	return b.Bytes()
}

func TestWorkloadsDeterministic(t *testing.T) {
	sz := tiny
	sz.blocks, sz.window, sz.busGroups = 3, 2*time.Second, 2
	for _, name := range workloadNames {
		a, err := buildWorkload(name, 7, sz)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildWorkload(name, 7, sz)
		if err != nil {
			t.Fatal(err)
		}
		c, err := buildWorkload(name, 8, sz)
		if err != nil {
			t.Fatal(err)
		}
		fa, fb, fc := fingerprint(t, a), fingerprint(t, b), fingerprint(t, c)
		if !bytes.Equal(fa, fb) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if bytes.Equal(fa, fc) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", name)
		}
	}
}

func TestMixSchedule(t *testing.T) {
	sz := tiny
	sz.window, sz.mixRate = 5*time.Second, 100
	a, err := buildWorkload(interactiveMix, 3, sz)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildWorkload(interactiveMix, 3, sz)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.due, b.due) {
		t.Fatal("the same seed gave different arrival schedules")
	}
	if len(a.due) != 500 || !slices.IsSorted(a.due) {
		t.Fatalf("schedule of %d arrivals, sorted %v", len(a.due), slices.IsSorted(a.due))
	}
	cold := make(map[int]int)
	for i, it := range a.seq {
		if !slices.Contains(a.warm, it) {
			cold[int(a.due[i]/time.Second)]++
		}
	}
	for sec := 0; sec < 5; sec++ {
		if cold[sec] != mixCold {
			t.Errorf("second %d has %d never-seen lines, want %d", sec, cold[sec], mixCold)
		}
	}
}

// TestChipRuns checks chip_batch's arrayed structure: every shape is one
// contiguous run of 1..chipMaxCopies copies, named apart.
func TestChipRuns(t *testing.T) {
	sz := tiny
	sz.blocks = 4
	w, err := buildWorkload(chipBatch, 11, sz)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	names := make(map[string]bool)
	for i := 0; i < len(w.batch); {
		j := i
		for j < len(w.batch) && w.batch[j].sig == w.batch[i].sig {
			if names[w.batch[j].name] {
				t.Errorf("copy name %s repeats", w.batch[j].name)
			}
			names[w.batch[j].name] = true
			j++
		}
		if n := j - i; n < 1 || n > chipMaxCopies {
			t.Errorf("run of %d copies", n)
		}
		if seen[w.batch[i].sig] {
			t.Errorf("shape %s appears in two runs", w.batch[i].name)
		}
		seen[w.batch[i].sig] = true
		i = j
	}
	if want := sz.blocks * len(nodes) * (chipBlockLines + chipBlockTrees); len(seen) != want {
		t.Errorf("batch has %d shapes, want %d", len(seen), want)
	}
}
