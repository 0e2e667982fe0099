package fault

import "testing"

// FuzzParseSpec: ParseSpec never panics, and every spec it accepts
// renders through String to a spec that parses back to the same
// String — the canonical form is a fixpoint. Seeds are the grammar
// examples of docs/API.md.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"",
		"cell:1:slow=2",
		"cell:1:slow=2,link:0:sever@9",
		"cell:0:dead",
		"cell:2:dead@5",
		"link:3:slow=4@0",
		"link:1:sever",
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
