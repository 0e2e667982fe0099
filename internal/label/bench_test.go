package label

import (
	"fmt"
	"math/rand"
	"testing"

	"systolic/internal/model"
	"systolic/internal/workload"
)

// sortnet returns the pipelined odd-even sorting network, the shape
// whose labeling cost the request-path benchmark measures.
func sortnet(tb testing.TB, width, rounds int) *model.Program {
	tb.Helper()
	w, err := workload.PipelinedSort(workload.PipelinedSortOptions{Width: width, Rounds: rounds})
	if err != nil {
		tb.Fatal(err)
	}
	return w.Program
}

func BenchmarkAssignGreedy(b *testing.B) {
	for _, size := range []struct{ cells, msgs int }{{4, 8}, {6, 16}, {8, 32}} {
		rng := rand.New(rand.NewSource(11))
		p := randomDF(b, rng, size.cells, size.msgs, 4)
		b.Run(fmt.Sprintf("cells=%d,msgs=%d", size.cells, size.msgs), func(b *testing.B) {
			for b.Loop() {
				if _, err := Assign(p, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// A wide and a deep sorting network, the two sortnet shapes of the
	// request-path benchmark's cold workload.
	for _, size := range []struct{ width, rounds int }{{2048, 3}, {256, 16}} {
		p := sortnet(b, size.width, size.rounds)
		b.Run(fmt.Sprintf("sortnet=%dx%d", size.width, size.rounds), func(b *testing.B) {
			for b.Loop() {
				if _, err := Assign(p, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAssignByOrder(b *testing.B) {
	for _, size := range []struct{ cells, msgs int }{{4, 8}, {6, 16}, {8, 32}} {
		rng := rand.New(rand.NewSource(11))
		p := randomDF(b, rng, size.cells, size.msgs, 4)
		b.Run(fmt.Sprintf("cells=%d,msgs=%d", size.cells, size.msgs), func(b *testing.B) {
			for b.Loop() {
				if _, err := AssignByOrder(p, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRelated(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	p := randomDF(b, rng, 8, 32, 4)
	for b.Loop() {
		Related(p)
	}
}

func BenchmarkCheck(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	p := randomDF(b, rng, 8, 32, 4)
	lab, err := Assign(p, Options{})
	if err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		if err := Check(p, lab.ByMessage); err != nil {
			b.Fatal(err)
		}
	}
}
