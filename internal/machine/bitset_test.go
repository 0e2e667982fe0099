package machine

import (
	"math/rand"
	"slices"
	"testing"
)

// has reports membership of i.
func (b *bitset) has(i int) bool {
	return b.words[i>>6]&(uint64(1)<<(i&63)) != 0
}

// len returns the cached member count.
func (b *bitset) len() int { return b.count }

// collect iterates b the canonical way and returns the members.
func collect(b *bitset) []int {
	var out []int
	for i := b.next(0); i >= 0; i = b.next(i + 1) {
		out = append(out, i)
	}
	return out
}

func TestBitsetBasics(t *testing.T) {
	var b bitset
	b.sizeTo(200)
	if b.len() != 0 || b.next(0) != -1 {
		t.Fatalf("fresh set not empty: len=%d next=%d", b.len(), b.next(0))
	}
	for _, i := range []int{0, 63, 64, 65, 127, 128, 199} {
		b.add(i)
	}
	b.add(64) // duplicate must not inflate the count
	if b.len() != 7 {
		t.Fatalf("len = %d, want 7", b.len())
	}
	want := []int{0, 63, 64, 65, 127, 128, 199}
	if got := collect(&b); !slices.Equal(got, want) {
		t.Fatalf("collect = %v, want %v", got, want)
	}
	if !b.has(127) || b.has(126) {
		t.Fatalf("has(127)=%v has(126)=%v", b.has(127), b.has(126))
	}
	b.drop(64)
	b.drop(64) // absent drop is a no-op
	if b.len() != 6 || b.has(64) {
		t.Fatalf("after drop: len=%d has(64)=%v", b.len(), b.has(64))
	}
	b.clearAll()
	if b.len() != 0 || b.next(0) != -1 {
		t.Fatalf("clearAll left members: len=%d", b.len())
	}
}

func TestBitsetNextFrom(t *testing.T) {
	var b bitset
	b.sizeTo(300)
	b.add(5)
	b.add(170)
	cases := []struct{ from, want int }{
		{-3, 5}, {0, 5}, {5, 5}, {6, 170}, {170, 170}, {171, -1}, {299, -1}, {1000, -1},
	}
	for _, c := range cases {
		if got := b.next(c.from); got != c.want {
			t.Errorf("next(%d) = %d, want %d", c.from, got, c.want)
		}
	}
}

func TestBitsetFill(t *testing.T) {
	var b bitset
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		b.sizeTo(n)
		b.fill(n)
		if b.len() != n {
			t.Fatalf("fill(%d): len = %d", n, b.len())
		}
		got := collect(&b)
		if len(got) != n {
			t.Fatalf("fill(%d): %d members", n, len(got))
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("fill(%d): member %d = %d", n, i, v)
			}
		}
	}
}

func TestBitsetCopyFrom(t *testing.T) {
	var a, b bitset
	a.sizeTo(128)
	a.add(3)
	a.add(90)
	b.sizeTo(128)
	b.add(7)
	b.copyFrom(&a)
	if !slices.Equal(collect(&b), []int{3, 90}) || b.len() != 2 {
		t.Fatalf("copyFrom mismatch: %v len=%d", collect(&b), b.len())
	}
	// The copy must be independent.
	b.drop(3)
	if !a.has(3) {
		t.Fatal("drop on copy mutated source")
	}
}

// TestBitsetVsMap drives a bitset and a map with the same random
// operation stream and checks membership, count, and ascending
// iteration agree throughout.
func TestBitsetVsMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 500
	var b bitset
	b.sizeTo(n)
	ref := map[int]bool{}
	for step := 0; step < 20000; step++ {
		i := rng.Intn(n)
		switch rng.Intn(3) {
		case 0:
			b.add(i)
			ref[i] = true
		case 1:
			b.drop(i)
			delete(ref, i)
		default:
			if b.has(i) != ref[i] {
				t.Fatalf("step %d: has(%d) = %v, want %v", step, i, b.has(i), ref[i])
			}
		}
		if b.len() != len(ref) {
			t.Fatalf("step %d: len = %d, want %d", step, b.len(), len(ref))
		}
	}
	want := make([]int, 0, len(ref))
	for i := range ref {
		want = append(want, i)
	}
	slices.Sort(want)
	if got := collect(&b); !slices.Equal(got, want) {
		t.Fatalf("final members diverge: got %d members, want %d", len(got), len(want))
	}
}
