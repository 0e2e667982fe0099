package linkmodel

import "testing"

// FuzzParseSpec: ParseSpec never panics, and every spec it accepts
// renders through String to a spec that parses back to the same
// String — the canonical form is a fixpoint. Seeds are the grammar
// examples of docs/API.md and docs/DSL.md.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"",
		"unit",
		"fixed,delay=3",
		"fixed,delay=2,credit=2,link:0:delay=5,link:1:credit=3",
		"congestion,delay=2,threshold=2,max=4",
		"congestion,delay=1,threshold=2,max=4,credit=2",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseSpec(spec)
		if err != nil {
			return
		}
		canon := p.String()
		q, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("ParseSpec(%q) accepted, but its String %q does not parse: %v", spec, canon, err)
		}
		if got := q.String(); got != canon {
			t.Fatalf("ParseSpec(%q): String %q re-parses to %q", spec, canon, got)
		}
	})
}
