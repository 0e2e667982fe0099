package machine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"systolic/internal/assign"
	"systolic/internal/model"
	"systolic/internal/topology"
)

// pipeline builds a cells-long wavefront: every interior cell
// word-interleaves R(M[i-1]) with W(M[i]), so after warm-up nearly
// every message is in flight at once.
func pipeline(t testing.TB, cells, words int) *model.Program {
	t.Helper()
	b := model.NewBuilder()
	ids := make([]model.CellID, cells)
	for i := range ids {
		ids[i] = b.AddCell(fmt.Sprintf("C%d", i))
	}
	msgs := make([]model.MessageID, cells-1)
	for i := range msgs {
		msgs[i] = b.DeclareMessage(fmt.Sprintf("M%d", i), ids[i], ids[i+1], words)
	}
	b.WriteN(ids[0], msgs[0], words)
	for i := 1; i < cells-1; i++ {
		for w := 0; w < words; w++ {
			b.Read(ids[i], msgs[i-1])
			b.Write(ids[i], msgs[i])
		}
	}
	b.ReadN(ids[cells-1], msgs[cells-2], words)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// goroutinesSettle polls until the goroutine count returns to at most
// base, tolerating the runtime's own background goroutines.
func goroutinesSettle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d > %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunCancel covers the mid-run context path: a cancelled context
// stops the run between cycles with a wrapped context error, and no
// goroutine outlives the run (deadline-bound count, the goroutine-leak
// check the race job runs too).
func TestRunCancel(t *testing.T) {
	m := mustCompile(t, pipeline(t, 64, 64), topology.Linear(64))
	base := runtime.NumGoroutine()

	// Already-cancelled context: deterministic immediate stop.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := fcfs(1, 2)
	opts.Context = ctx
	if _, err := m.Run(opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run: err = %v, want context.Canceled", err)
	}
	goroutinesSettle(t, base)

	// Cancel racing a live run: whichever wins, the error (if any) is
	// the context's and no goroutine survives.
	ctx, cancel = context.WithCancel(context.Background())
	opts.Context = ctx
	done := make(chan error, 1)
	go func() {
		_, err := m.Run(opts)
		done <- err
	}()
	time.Sleep(200 * time.Microsecond)
	cancel()
	if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v", err)
	}
	goroutinesSettle(t, base)
}

// TestConcurrentRuns drives one machine from many goroutines, which
// share its pooled execution scratch — the serving layer's worst
// case, and the -race job's main target for the runner. Every run
// must produce the same bytes.
func TestConcurrentRuns(t *testing.T) {
	cells, runs := 48, 8
	if raceEnabled {
		cells, runs = 32, 4
	}
	m := mustCompile(t, pipeline(t, cells, 3), topology.Linear(cells))
	want, err := m.Run(fcfs(1, 2))
	if err != nil || !want.Completed {
		t.Fatalf("baseline: %v %v", want, err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				got, err := m.Run(fcfs(1, 2))
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(want, got) {
					errs <- fmt.Errorf("goroutine %d run %d: diverged", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// panicLogic blows up on one specific read, emulating a buggy
// user-supplied CellLogic.
type panicLogic struct{ SyntheticLogic }

func (panicLogic) OnRead(_ model.CellID, msg model.MessageID, _ int, _ Word) {
	if msg == 40 {
		panic("boom: logic failure on message 40")
	}
}

// TestLogicPanicPropagates: a panic inside a phase — here a user
// Logic — must surface to the Run caller as a recoverable panic, and
// the machine must stay usable afterwards.
func TestLogicPanicPropagates(t *testing.T) {
	m := mustCompile(t, pipeline(t, 96, 4), topology.Linear(96))
	base := runtime.NumGoroutine()
	run := func() (rec any) {
		defer func() { rec = recover() }()
		opts := fcfs(1, 2)
		opts.Logic = panicLogic{}
		_, _ = m.Run(opts)
		return nil
	}
	rec := run()
	if rec == nil {
		t.Fatal("logic panic did not propagate to the Run caller")
	}
	if s, ok := rec.(string); !ok || !strings.Contains(s, "boom") {
		t.Fatalf("recovered %v, want the logic's panic value", rec)
	}
	goroutinesSettle(t, base)

	res, err := m.Run(fcfs(1, 2))
	if err != nil || !res.Completed {
		t.Fatalf("machine unusable after recovered panic: %v %v", res, err)
	}
}

// TestSetupErrorStopsGang: a run that dies in Policy.Setup returns the
// error every time, leaves no goroutine behind, and hands its pooled
// exec back clean for the next run.
func TestSetupErrorStopsGang(t *testing.T) {
	// Two messages compete on the one link, so Static().Setup refuses
	// with QueuesPerLink=1.
	b := model.NewBuilder()
	c1, c2 := b.AddCell("C1"), b.AddCell("C2")
	m1 := b.DeclareMessage("M1", c1, c2, 1)
	m2 := b.DeclareMessage("M2", c1, c2, 1)
	b.Write(c1, m1)
	b.Write(c1, m2)
	b.Read(c2, m1)
	b.Read(c2, m2)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := mustCompile(t, p, topology.Linear(2))
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		opts := ExecOptions{Policy: assign.Static(), QueuesPerLink: 1, Capacity: 1}
		if _, err := m.Run(opts); err == nil {
			t.Fatal("under-budget static setup unexpectedly succeeded")
		}
	}
	goroutinesSettle(t, base)
	res, err := m.Run(ExecOptions{Policy: assign.Static(), QueuesPerLink: 2, Capacity: 1})
	if err != nil || !res.Completed {
		t.Fatalf("run after setup failures: %v %v", res, err)
	}
}

// TestCancelErrorNamesCycles: the cancellation error is actionable —
// it says how far the run got and unwraps to the context error.
func TestCancelErrorNamesCycles(t *testing.T) {
	m := mustCompile(t, chain(t, 4), topology.Linear(2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := fcfs(1, 1)
	opts.Context = ctx
	_, err := m.Run(opts)
	if err == nil || !strings.Contains(err.Error(), "cancelled after") {
		t.Fatalf("err = %v, want cycle-stamped cancellation", err)
	}
}
