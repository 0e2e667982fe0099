// Command sysdl analyzes, runs, and serves systolic programs written
// in the DSL (see docs/DSL.md for the grammar reference):
//
//	sysdl check  prog.sys            # deadlock-free? (strict and lookahead)
//	sysdl label  prog.sys            # §6 consistent labeling
//	sysdl plan   prog.sys            # queue requirements (Theorem 1)
//	sysdl run    prog.sys [flags]    # simulate
//	sysdl render prog.sys            # program table + routes
//	sysdl sweep  prog.sys [flags]    # run a grid of configurations
//	sysdl fuzz   [flags]             # differential oracle over generated programs
//	sysdl serve  [flags]             # HTTP simulation service with machine cache
//
// FILE may be '-' for stdin. Flags for run: -queues N -capacity N
// -policy compatible|static|fcfs|lifo|random|adversarial -seed N
// -lookahead -timeline -force. Flags for sweep: -sweep-policies, -sweep-queues, -sweep-capacities,
// -sweep-lookaheads (comma-separated axis values) and -workers N; the
// report marks which configurations deadlock and which Theorem 1
// budgets avoid it.
//
// fuzz takes no FILE: it generates -n seeded random scenarios
// (seeds -seed … -seed+n-1) and cross-checks the analyzer's Theorem 1
// verdict against the simulator, reporting invariant violations and
// minimized counterexamples. Pass -queues Q to force a budget below
// the Theorem 1 bound and watch the predicted deadlocks appear; any
// reported seed replays with -n 1 -seed S.
//
// serve also takes no FILE: it starts the HTTP/JSON daemon
// (-addr HOST:PORT -cache-size N -max-concurrency N -queue-wait N
// -tenants FILE) documented in docs/API.md and shuts down gracefully
// on SIGINT/SIGTERM. -queue-wait bounds how many requests may wait
// for a run slot before the daemon sheds with 429 + Retry-After;
// -tenants names a JSON file of per-tenant API keys and quotas
// (omitted = anonymous mode).
//
// Every verb accepts -cpuprofile FILE and -memprofile FILE, which
// write pprof profiles covering the whole command for `go tool
// pprof`.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"systolic/internal/cli"
)

// verbs enumerates every subcommand with its one-line summary, in
// display order. needsFile marks verbs that read a DSL FILE argument.
var verbs = []struct {
	name      string
	summary   string
	needsFile bool
}{
	{"check", "classify a program: deadlock-free or not (strict and §8 lookahead)", true},
	{"label", "print the §6 consistent message labeling", true},
	{"plan", "print Theorem 1's queues-per-link requirements", true},
	{"run", "simulate under a policy/queues/capacity configuration", true},
	{"render", "print the program table and message routes", true},
	{"sweep", "run a grid of configurations across a worker pool", true},
	{"fuzz", "differential oracle over generated random programs", false},
	{"serve", "HTTP simulation service with a compiled-machine cache", false},
}

func findVerb(name string) (int, bool) {
	for i, v := range verbs {
		if v.name == name {
			return i, true
		}
	}
	return 0, false
}

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	cmd := os.Args[1]
	switch cmd {
	case "-h", "-help", "--help", "help":
		usage(os.Stdout)
		return
	}
	vi, known := findVerb(cmd)
	if !known {
		fmt.Fprintf(os.Stderr, "sysdl: unknown verb %q\n", cmd)
		if near := closestVerb(cmd); near != "" {
			fmt.Fprintf(os.Stderr, "did you mean 'sysdl %s'?\n", near)
		}
		fmt.Fprintln(os.Stderr)
		usage(os.Stderr)
		os.Exit(2)
	}

	var path string
	args := os.Args[2:]
	if verbs[vi].needsFile {
		if len(os.Args) < 3 {
			fmt.Fprintf(os.Stderr, "sysdl: %s needs a FILE argument ('-' = stdin)\n\n", cmd)
			usage(os.Stderr)
			os.Exit(2)
		}
		path = os.Args[2]
		args = os.Args[3:]
	}

	opts := cli.DefaultSysdlOptions()
	fs := flag.NewFlagSet("sysdl "+cmd, flag.ExitOnError)
	opts.BindFlags(fs)
	_ = fs.Parse(args)
	if !verbs[vi].needsFile {
		// Flag parsing stops at the first non-flag argument, so a
		// stray FILE (or any trailing word) would silently swallow
		// every flag after it — refuse instead of running defaults.
		if fs.NArg() > 0 {
			fmt.Fprintf(os.Stderr, "sysdl: %s takes no FILE argument (got %q); flags after it were not parsed\n", cmd, fs.Arg(0))
			os.Exit(2)
		}
	}
	if cmd == "fuzz" {
		// Refuse flags fuzz accepts syntactically but does not use, so
		// e.g. -lookahead is not mistaken for -fuzz-lookahead.
		ignored := map[string]string{
			"capacity":  "the oracle sweeps its own capacity grid",
			"policy":    "the oracle cross-checks the compatible and static policies",
			"lookahead": "use -fuzz-lookahead N for the §8 analysis budget",
			"timeline":  "not applicable to fuzz", "stats": "not applicable to fuzz",
			"force":          "not applicable to fuzz",
			"sweep-policies": "sweep-only flag", "sweep-queues": "sweep-only flag",
			"sweep-capacities": "sweep-only flag", "sweep-lookaheads": "sweep-only flag",
		}
		bad := false
		fs.Visit(func(f *flag.Flag) {
			if why, ok := ignored[f.Name]; ok {
				fmt.Fprintf(os.Stderr, "sysdl: fuzz does not use -%s (%s)\n", f.Name, why)
				bad = true
			}
		})
		if bad {
			os.Exit(2)
		}
	}

	var src string
	if verbs[vi].needsFile {
		var err error
		src, err = readSource(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sysdl:", err)
			os.Exit(1)
		}
	}
	stopProfiles, err := cli.StartProfiles(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sysdl:", err)
		os.Exit(1)
	}
	var code int
	if cmd == "serve" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		code, err = cli.Serve(ctx, os.Stdout, opts)
		stop()
	} else {
		code, err = cli.Sysdl(os.Stdout, cmd, src, opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sysdl:", err)
	}
	if perr := stopProfiles(); perr != nil {
		fmt.Fprintln(os.Stderr, "sysdl:", perr)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func readSource(path string) (string, error) {
	if path == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: sysdl VERB [FILE] [flags]   (FILE '-' = stdin; fuzz and serve take no FILE)")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "verbs:")
	for _, v := range verbs {
		arg := "FILE"
		if !v.needsFile {
			arg = "    "
		}
		fmt.Fprintf(w, "  %-7s %s  %s\n", v.name, arg, v.summary)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "run 'sysdl VERB -h' for the verb's flags")
}

// closestVerb suggests the nearest verb by edit distance, when it is
// near enough to plausibly be a typo.
func closestVerb(input string) string {
	best, bestDist := "", 3 // suggest only within distance 2
	for _, v := range verbs {
		if d := editDistance(input, v.name); d < bestDist {
			best, bestDist = v.name, d
		}
	}
	return best
}

// editDistance is the Levenshtein distance between two short strings.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
