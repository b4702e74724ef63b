package core

import (
	"sync"
	"sync/atomic"
)

// forEachShot runs body(i) for every shot index in [0, shots) on a bounded
// worker pool and delivers each result to merge in strictly increasing
// index order, on the caller's goroutine. It is the engine's determinism
// primitive: because shot indices are claimed from a shared counter but
// results are merged by index, neither the merge order nor the merge
// arithmetic depends on how the scheduler interleaves workers.
//
// Memory is bounded by a ticket window of 2×workers shots: a worker must
// hold a ticket to claim a shot, and the merger returns a ticket only
// after consuming a result, so shot i is claimed only after shot i−window
// has been merged. The reorder buffer therefore holds window slots, shot i
// in slot i%window, each with a one-token ready channel, whatever the shot
// count. The scheme is deadlock-free — the merger never waits on tickets,
// and the lowest unmerged index is always claimable (merging i shots has
// returned i tickets, so at least one of the window+i tickets supplied so
// far reaches index i).
//
// canceled is polled with the merged-shot count before each merge; when it
// reports true the merger stops consuming, drains the workers and returns
// early (a nil-safe always-false func disables cancellation). In-flight
// shots past the cancellation point are computed but never merged, so the
// merged prefix is identical to an uncanceled run's prefix.
//
// workers <= 1 degenerates to a plain serial loop with no goroutines.
func forEachShot[T any](shots, workers int, canceled func(int) bool, body func(int) T, merge func(int, T)) {
	if shots <= 0 {
		return
	}
	if workers > shots {
		workers = shots
	}
	if workers <= 1 {
		for i := 0; i < shots; i++ {
			if canceled(i) {
				return
			}
			merge(i, body(i))
		}
		return
	}

	window := 2 * workers
	if window > shots {
		window = shots
	}
	results := make([]T, window)
	ready := make([]chan struct{}, window)
	for i := range ready {
		ready[i] = make(chan struct{}, 1)
	}
	tickets := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		tickets <- struct{}{}
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range tickets {
				i := int(next.Add(1)) - 1
				if i >= shots {
					return
				}
				results[i%window] = body(i)
				ready[i%window] <- struct{}{}
			}
		}()
	}

	var zero T
	for i := 0; i < shots; i++ {
		if canceled(i) {
			break
		}
		<-ready[i%window]
		merge(i, results[i%window])
		results[i%window] = zero // release the result's memory promptly
		tickets <- struct{}{}
	}
	// The merger is the only ticket sender, so closing here lets workers
	// drain any buffered tickets and exit; on cancellation their remaining
	// in-flight shots are computed but discarded.
	close(tickets)
	wg.Wait()
}
