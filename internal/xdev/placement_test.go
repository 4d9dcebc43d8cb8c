package xdev

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestParseNodeMap(t *testing.T) {
	cases := []struct {
		name string
		in   string
		size int
		want []int
	}{
		{"per-rank list", "0,0,1,1", 4, []int{0, 0, 1, 1}},
		{"uneven ranks per node", "0,0,0,1,1,2", 6, []int{0, 0, 0, 1, 1, 2}},
		{"single node", "0,0,0,0", 4, []int{0, 0, 0, 0}},
		{"one rank per node", "0,1,2,3", 4, []int{0, 1, 2, 3}},
		{"interleaved round-robin", "0,1,0,1", 4, []int{0, 1, 0, 1}},
		{"block form", "n0:2,n1:2", 4, []int{0, 0, 1, 1}},
		{"block form uneven", "a:3,b:1", 4, []int{0, 0, 0, 1}},
		{"block form single node", "only:4", 4, []int{0, 0, 0, 0}},
		{"block form one rank per node", "a:1,b:1,c:1", 3, []int{0, 1, 2}},
		{"sparse ids renumber densely", "7,7,9,9", 4, []int{0, 0, 1, 1}},
		{"repeated block names merge", "a:1,b:1,a:1", 3, []int{0, 1, 0}},
		{"whitespace tolerated", " 0 , 0 , 1 , 1 ", 4, []int{0, 0, 1, 1}},
		{"no length check when size unknown", "0,1", 0, []int{0, 1}},
		{"empty means unknown", "", 4, nil},
		{"blank means unknown", "   ", 4, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParseNodeMap(tc.in, tc.size)
			if err != nil {
				t.Fatalf("ParseNodeMap(%q, %d): %v", tc.in, tc.size, err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("ParseNodeMap(%q, %d) = %v, want %v", tc.in, tc.size, got, tc.want)
			}
		})
	}
}

func TestParseNodeMapMalformed(t *testing.T) {
	cases := []struct {
		name string
		in   string
		size int
	}{
		{"wrong length", "0,0,1", 4},
		{"too many entries", "0,0,1,1,2", 4},
		{"empty entry", "0,,1,1", 4},
		{"trailing comma", "0,0,1,1,", 4},
		{"non-numeric id without count", "zero,one", 2},
		{"block missing count", "n0:,n1:2", 4},
		{"block zero count", "n0:0,n1:4", 4},
		{"block negative count", "n0:-2,n1:6", 4},
		{"block garbage count", "n0:two,n1:2", 4},
		{"block empty name", ":2,n1:2", 4},
		{"block wrong total", "n0:2,n1:3", 4},
		{"block form without a job size", "n0:2,n1:2", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseNodeMap(tc.in, tc.size)
			if err == nil {
				t.Fatalf("ParseNodeMap(%q, %d) accepted malformed input", tc.in, tc.size)
			}
			if !errors.Is(err, ErrBadNodeMap) {
				t.Errorf("ParseNodeMap(%q, %d) error %v does not wrap ErrBadNodeMap", tc.in, tc.size, err)
			}
		})
	}
}

// TestParseNodeMapHugeCountAllocatesNothingProportional: MPJ_NODE_MAP
// is outside input, so a block count far past the job size must be
// rejected before any rank is placed. Expanding the count first costs
// about 90 bytes per rank: 4.7 GB for the 50M entry, and 2G would
// exhaust memory.
func TestParseNodeMapHugeCountAllocatesNothingProportional(t *testing.T) {
	for _, in := range []string{"a:1000000", "a:50000000", "a:2,b:2000000000"} {
		t.Run(in, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := ParseNodeMap(in, 4)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrBadNodeMap) {
				t.Fatalf("ParseNodeMap(%q, 4) = %v, want ErrBadNodeMap", in, err)
			}
			if b := after.TotalAlloc - before.TotalAlloc; b > 64<<10 {
				t.Fatalf("ParseNodeMap(%q, 4) allocated %d bytes before failing", in, b)
			}
		})
	}
}

// FuzzParseNodeMap: any input either fails with ErrBadNodeMap or yields
// exactly size dense node ids (size unknown: the per-rank list form
// only), numbered in order of first appearance, which FormatNodeMap
// renders back to the same placement.
func FuzzParseNodeMap(f *testing.F) {
	for _, seed := range []struct {
		s    string
		size int
	}{
		{"0,0,1,1", 4}, {"nodeA:2,nodeB:2", 4}, {"a:1,b:1,a:1", 3}, {"7,7,9,9", 0},
		{" 0 , 0 ", 2}, {"n0:-2,n1:6", 4}, {"a:50000000", 4}, {"", 4}, {"x,,y", 3},
	} {
		f.Add(seed.s, seed.size)
	}
	f.Fuzz(func(t *testing.T, s string, size int) {
		size %= 1 << 12 // the job size is trusted; only the map is fuzzed
		got, err := ParseNodeMap(s, size)
		if err != nil {
			if !errors.Is(err, ErrBadNodeMap) {
				t.Fatalf("ParseNodeMap(%q, %d) error %v does not wrap ErrBadNodeMap", s, size, err)
			}
			return
		}
		if strings.TrimSpace(s) == "" {
			if got != nil {
				t.Fatalf("ParseNodeMap(%q, %d) = %v for a blank map", s, size, got)
			}
			return
		}
		if size > 0 && len(got) != size {
			t.Fatalf("ParseNodeMap(%q, %d) placed %d ranks", s, size, len(got))
		}
		if len(got) == 0 {
			t.Fatalf("ParseNodeMap(%q, %d) accepted a map placing no ranks", s, size)
		}
		next := 0
		for i, id := range got {
			if id < 0 || id > next {
				t.Fatalf("ParseNodeMap(%q, %d)[%d] = %d, want dense ids in order of first appearance", s, size, i, id)
			}
			if id == next {
				next++
			}
		}
		back, err := ParseNodeMap(FormatNodeMap(got), len(got))
		if err != nil || !reflect.DeepEqual(back, got) {
			t.Fatalf("round trip of %v = %v, %v", got, back, err)
		}
	})
}

func TestFormatNodeMapRoundTrip(t *testing.T) {
	nodeOf := []int{0, 0, 1, 1, 2}
	got, err := ParseNodeMap(FormatNodeMap(nodeOf), len(nodeOf))
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if !reflect.DeepEqual(got, nodeOf) {
		t.Errorf("round trip = %v, want %v", got, nodeOf)
	}
	if FormatNodeMap(nil) != "" {
		t.Errorf("FormatNodeMap(nil) = %q, want empty", FormatNodeMap(nil))
	}
}

func TestNodeCount(t *testing.T) {
	if n := NodeCount([]int{0, 0, 1, 1}); n != 2 {
		t.Errorf("NodeCount = %d, want 2", n)
	}
	if n := NodeCount(nil); n != 0 {
		t.Errorf("NodeCount(nil) = %d, want 0", n)
	}
}
