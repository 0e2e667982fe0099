package dsl

import (
	"fmt"
	"testing"

	"systolic/internal/workload"
)

// BenchmarkParse parses the formatted wide sorting network, the
// largest program of the request-path benchmark's cold workload, at
// several widths, so parse cost per cell can be compared across them.
func BenchmarkParse(b *testing.B) {
	for _, width := range []int{512, 1024, 2048, 4096} {
		w, err := workload.PipelinedSort(workload.PipelinedSortOptions{Width: width, Rounds: 3})
		if err != nil {
			b.Fatal(err)
		}
		src := Format(w.Program, w.Topology)
		b.Run(fmt.Sprintf("sortnet=%dx3", width), func(b *testing.B) {
			for b.Loop() {
				if _, err := Parse(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
