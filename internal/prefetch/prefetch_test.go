package prefetch

import (
	"testing"
	"testing/quick"
)

func TestNoneNeverPrefetches(t *testing.T) {
	var p None
	f := func(addr uint64, miss bool) bool {
		return p.Observe(addr, miss) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if p.Name() != "none" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestNextLine(t *testing.T) {
	p := NewNextLine()
	got := p.Observe(100, true)
	if len(got) != 1 || got[0] != 101 {
		t.Fatalf("Observe(100, miss) = %v, want [101]", got)
	}
	if got := p.Observe(100, false); got != nil {
		t.Errorf("hit should not prefetch, got %v", got)
	}
	if p.Name() != "nextline" {
		t.Errorf("Name = %q", p.Name())
	}
}

func collect(p Prefetcher, lines []uint64, missAll bool) []uint64 {
	var out []uint64
	for _, l := range lines {
		out = append(out, p.Observe(l, missAll)...)
	}
	return out
}

func TestStreamConfirmsAscending(t *testing.T) {
	p := NewStream(StreamConfig{Degree: 4, Confirm: 2})
	// First miss allocates, second confirms and prefetches ahead.
	if got := p.Observe(1000, true); got != nil {
		t.Fatalf("first access prefetched %v", got)
	}
	got := p.Observe(1001, true)
	if len(got) == 0 {
		t.Fatal("confirmed stream did not prefetch")
	}
	for i, l := range got {
		if want := uint64(1002 + i); l != want {
			t.Errorf("prefetch[%d] = %d, want %d", i, l, want)
		}
	}
}

func TestStreamDescending(t *testing.T) {
	p := NewStream(StreamConfig{Degree: 2, Confirm: 2})
	p.Observe(1000, true)
	got := p.Observe(999, true)
	if len(got) != 2 || got[0] != 998 || got[1] != 997 {
		t.Fatalf("descending prefetch = %v, want [998 997]", got)
	}
}

func TestStreamKeepsFrontierAhead(t *testing.T) {
	p := NewStream(StreamConfig{Degree: 4, Confirm: 2})
	p.Observe(0, true)
	p.Observe(1, true) // prefetches 2,3,4,5
	// Continue the stream: each step should top up exactly one line.
	for i := uint64(2); i < 10; i++ {
		got := p.Observe(i, false)
		if len(got) != 1 || got[0] != i+4 {
			t.Fatalf("at line %d got %v, want [%d]", i, got, i+4)
		}
	}
}

func TestStreamRandomDoesNotConfirm(t *testing.T) {
	p := NewStream(StreamConfig{})
	// Far-apart addresses never confirm a stream.
	lines := []uint64{10, 5000, 92, 881, 12345, 7, 40000, 3}
	if got := collect(p, lines, true); len(got) != 0 {
		t.Errorf("random accesses prefetched %v", got)
	}
}

func TestStreamTracksMultipleStreams(t *testing.T) {
	p := NewStream(StreamConfig{Streams: 4, Degree: 2, Confirm: 2})
	// Interleave two ascending streams; both should confirm.
	p.Observe(1000, true)
	p.Observe(5000, true)
	g1 := p.Observe(1001, true)
	g2 := p.Observe(5001, true)
	if len(g1) == 0 || len(g2) == 0 {
		t.Errorf("interleaved streams not both confirmed: %v %v", g1, g2)
	}
}

func TestStreamLRUReplacement(t *testing.T) {
	p := NewStream(StreamConfig{Streams: 2, Confirm: 2, Degree: 1})
	p.Observe(100, true) // stream A
	p.Observe(200, true) // stream B
	p.Observe(300, true) // evicts A (oldest)
	// Continuing A must not confirm (its entry is gone).
	if got := p.Observe(101, true); len(got) != 0 {
		t.Errorf("evicted stream still confirmed: %v", got)
	}
}

func TestStreamReset(t *testing.T) {
	p := NewStream(StreamConfig{Confirm: 2})
	p.Observe(100, true)
	p.Reset()
	if got := p.Observe(101, true); len(got) != 0 {
		t.Errorf("reset did not clear training: %v", got)
	}
}

func TestStreamRetouchSameLine(t *testing.T) {
	p := NewStream(StreamConfig{Confirm: 2, Degree: 2})
	p.Observe(100, true)
	if got := p.Observe(100, false); got != nil {
		t.Errorf("re-touch prefetched %v", got)
	}
	// Stream still continues afterwards.
	if got := p.Observe(101, true); len(got) == 0 {
		t.Error("stream lost after re-touch")
	}
}

func TestNamesAreStable(t *testing.T) {
	if NewStream(StreamConfig{}).Name() != "stream" {
		t.Error("stream name changed")
	}
}
