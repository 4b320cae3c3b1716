package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// tornDownRun runs 9 procs that advance, block on each other and step
// Exec'd frames until proc 4 panics at t=12 (panic) or every proc but 0
// blocks forever (deadlock), and requires Run to raise it.
func tornDownRun(t *testing.T, deadlock bool) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("torn-down run did not panic")
		}
	}()
	e := NewEngine(9)
	frames := make([]countFrame, 9)
	count := 0
	e.Run(func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Advance(Duration(1 + p.ID()%3))
			if p.ID()%2 == 1 {
				frames[p.ID()] = countFrame{n: 3, d: 2, count: &count}
				p.Exec(&frames[p.ID()])
			}
			if !deadlock && p.ID() == 4 && p.Now() >= 12 {
				panic("boom")
			}
		}
		if deadlock && p.ID() != 0 {
			p.Block(WatchKey{Space: 0, Line: 1}, func() bool { return false })
		}
	})
}

// TestTornDownRunsLeaveIdleListClean: a panicked and a deadlocked run
// each end the coroutines they took instead of returning them, every
// coroutine left on the idle list is unassigned, and fresh engines
// reproduce the committed stress digests — a clean process's schedule —
// in both the blocking and the Exec'd form.
func TestTornDownRunsLeaveIdleListClean(t *testing.T) {
	runStress(1, 9, 20, false) // the idle list now holds at least 9
	for _, deadlock := range []bool{false, true} {
		before := idleCount()
		tornDownRun(t, deadlock)
		if got, want := idleCount(), before-min(before, 9); got != want {
			t.Errorf("deadlock=%v: idle list went %d -> %d, want %d: a torn-down run puts none of its coroutines back", deadlock, before, got, want)
		}
	}
	idleCoros.mu.Lock()
	for i, c := range idleCoros.cs {
		if c.p != nil {
			t.Errorf("idle coroutine %d is still assigned to proc %d", i, c.p.id)
		}
	}
	idleCoros.mu.Unlock()
	for _, want := range loadStressDigests(t) {
		for _, frame := range []bool{false, true} {
			trace, sw := runStress(want.Seed, 9, 120, frame)
			if d := digestStress(want.Seed, trace, sw); d != want {
				t.Errorf("seed %d frame=%v after torn-down runs: got %+v, committed %+v", want.Seed, frame, d, want)
			}
		}
	}
}

// TestCleanRunPinsNoEngine: an engine dropped after a clean Run is
// collected although its procs' coroutines live on in the idle list.
// The engine is a reference cycle (every Proc points back at it), which
// the runtime never finalizes, so the finalizer goes on the watcher
// table: only the engine references it, and after a clean run it
// references nothing that leads back.
func TestCleanRunPinsNoEngine(t *testing.T) {
	var freed atomic.Bool
	func() {
		e := NewEngine(8)
		e.Run(func(p *Proc) {
			for i := 0; i < 5; i++ {
				p.Advance(Duration(1 + p.ID()))
			}
		})
		runtime.SetFinalizer(&e.watchers[0], func(*[]watcherEntry) { freed.Store(true) })
	}()
	for i := 0; i < 20 && !freed.Load(); i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	if !freed.Load() {
		t.Error("an engine dropped after a clean Run was not collected")
	}
}

func idleCount() int {
	idleCoros.mu.Lock()
	defer idleCoros.mu.Unlock()
	return len(idleCoros.cs)
}

// TestEnginesShareIdleListConcurrently: engines on several goroutines
// take coroutines from and return them to the one idle list at once, and
// each still reproduces the committed stress digest.
func TestEnginesShareIdleListConcurrently(t *testing.T) {
	want := loadStressDigests(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				w := want[(g+rep)%len(want)]
				trace, sw := runStress(w.Seed, 9, 120, rep%2 == 1)
				if d := digestStress(w.Seed, trace, sw); d != w {
					t.Errorf("goroutine %d rep %d: got %+v, committed %+v", g, rep, d, w)
				}
			}
		}(g)
	}
	wg.Wait()
}
