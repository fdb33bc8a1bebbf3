package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"libshalom/internal/guard"
)

// The watchdog converts a task exceeding its budget into a typed
// *guard.StuckWorkerError and releases the join early — well before the
// stuck task drains.
func TestWatchdogConvertsStuckTask(t *testing.T) {
	p := NewPool(2)
	defer p.CloseWhenIdle() // the straggler is still running
	const budget = 20 * time.Millisecond
	var fastRan atomic.Int32
	tasks := []func(int){
		func(int) { time.Sleep(200 * time.Millisecond) }, // stuck
		func(int) { fastRan.Add(1) },
	}
	start := time.Now()
	err := p.RunWorkerCfg(RunConfig{TaskBudget: budget}, tasks)
	elapsed := time.Since(start)
	var swe *guard.StuckWorkerError
	if !errors.As(err, &swe) {
		t.Fatalf("err = %v (%T), want *guard.StuckWorkerError", err, err)
	}
	if swe.Task != 0 {
		t.Fatalf("stuck task = %d, want 0", swe.Task)
	}
	if swe.Elapsed < budget {
		t.Fatalf("reported elapsed %v below the %v budget", swe.Elapsed, budget)
	}
	if !swe.Timeout() {
		t.Fatal("Timeout() = false")
	}
	if elapsed >= 150*time.Millisecond {
		t.Fatalf("join waited %v — the watchdog did not return early", elapsed)
	}
}

// Without a budget, RunWorkerCfg behaves exactly like RunWorker: slow tasks
// are not failures.
func TestNoBudgetMeansNoWatchdog(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var ran atomic.Int32
	tasks := []func(int){
		func(int) { time.Sleep(20 * time.Millisecond); ran.Add(1) },
		func(int) { ran.Add(1) },
	}
	if err := p.RunWorkerCfg(RunConfig{}, tasks); err != nil {
		t.Fatalf("unbudgeted run failed: %v", err)
	}
	if ran.Load() != 2 {
		t.Fatalf("ran %d tasks, want 2", ran.Load())
	}
}

// Tasks comfortably inside their budget never trip the watchdog.
func TestWatchdogQuietUnderBudget(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var ran atomic.Int32
	tasks := make([]func(int), 32)
	for i := range tasks {
		tasks[i] = func(int) {
			time.Sleep(time.Millisecond)
			ran.Add(1)
		}
	}
	if err := p.RunWorkerCfg(RunConfig{TaskBudget: 2 * time.Second}, tasks); err != nil {
		t.Fatalf("budgeted run failed: %v", err)
	}
	if ran.Load() != 32 {
		t.Fatalf("ran %d tasks, want 32", ran.Load())
	}
}

// A cancelled context stops dispatching, fails the run with the context's
// error, and still performs the full join: every started task finishes
// before RunWorkerCfg returns, so the caller may safely read task outputs.
func TestContextCancelStopsDispatchAfterFullJoin(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var started, finished atomic.Int32
	tasks := make([]func(int), 64)
	for i := range tasks {
		tasks[i] = func(int) {
			started.Add(1)
			time.Sleep(2 * time.Millisecond)
			finished.Add(1)
		}
	}
	time.AfterFunc(5*time.Millisecond, cancel)
	err := p.RunWorkerCfg(RunConfig{Ctx: ctx}, tasks)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if started.Load() == int32(len(tasks)) {
		t.Fatal("cancellation did not stop dispatch")
	}
	if started.Load() != finished.Load() {
		t.Fatalf("join returned with %d started but %d finished", started.Load(), finished.Load())
	}
}

// An already-expired context fails fast without dispatching anything.
func TestExpiredContextFailsFast(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	err := p.RunWorkerCfg(RunConfig{Ctx: ctx}, []func(int){func(int) { ran.Add(1) }})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatal("task dispatched on an expired context")
	}
}

// Regression: a call-owned pool released right after a watchdog early
// return used to be closed while its feeder was still blocked sending the
// next task — a send/close race the race detector reports, recovered as
// ErrClosed. CloseWhenIdle defers the close until the feeder and the stuck
// task have stopped. Run under -race.
func TestCloseWhenIdleAfterWatchdogReturn(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		p := NewPool(1)
		release := make(chan struct{})
		var ran atomic.Int32
		tasks := make([]func(int), 8)
		tasks[0] = func(int) { <-release } // stuck until released
		for i := 1; i < len(tasks); i++ {
			tasks[i] = func(int) { ran.Add(1) }
		}
		// One worker holds the stuck task, so the feeder blocks sending
		// task 1 when the watchdog returns.
		err := p.RunWorkerCfg(RunConfig{TaskBudget: time.Millisecond}, tasks)
		var swe *guard.StuckWorkerError
		if !errors.As(err, &swe) {
			t.Fatalf("err = %v (%T), want *guard.StuckWorkerError", err, err)
		}
		p.CloseWhenIdle()
		if p.Closed() {
			t.Fatal("pool closed while its stuck task and feeder were still running")
		}
		close(release)
		deadline := time.Now().Add(10 * time.Second)
		for !p.Closed() {
			if time.Now().After(deadline) {
				t.Fatal("pool never closed after its last task returned")
			}
			runtime.Gosched()
		}
		if n := ran.Load(); n != 0 {
			t.Fatalf("%d tasks ran after the watchdog failed the run", n)
		}
	}
}

// CloseWhenIdle on an idle pool closes it at once.
func TestCloseWhenIdleOnIdlePool(t *testing.T) {
	p := NewPool(2)
	if err := p.RunWorker([]func(int){func(int) {}}); err != nil {
		t.Fatal(err)
	}
	p.CloseWhenIdle()
	if !p.Closed() {
		t.Fatal("idle pool not closed")
	}
	if err := p.RunWorker([]func(int){func(int) {}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Run after CloseWhenIdle: err = %v, want ErrClosed", err)
	}
}
