package artery

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sync"
	"testing"
)

// cachedRun is everything a system emits for one fixed script: a traced
// run's report and JSONL stream, then a PredictShot, which draws from the
// system RNG after calibration and so exposes a hit that takes more or
// fewer draws than calibrating would.
func cachedRun(t *testing.T, build func(...Option) (*System, error), opts ...Option) (report, traceJSONL, shot string) {
	t.Helper()
	var buf bytes.Buffer
	sys, err := build(append(opts, WithTracing(&buf))...)
	if err != nil {
		t.Fatal(err)
	}
	rep := sys.RunWith("ARTERY", QRW(3), 40)
	return fmt.Sprintf("%#v", rep), buf.String(), fmt.Sprintf("%#v", sys.PredictShot(1, 0.5))
}

// TestCalibrationCacheSameBytes is the memo's contract: a system built on
// a cache miss, one built on a hit and one built by New emit identical
// reports, traces and PredictShot traces, over seeds that include one
// above 2^63 and window/depth pairs at both ends of the valid range.
func TestCalibrationCacheSameBytes(t *testing.T) {
	var c CalibrationCache
	cases := int64(0)
	for _, seed := range []uint64{1, 7, 1<<63 + 5} {
		for _, wk := range []struct {
			window float64
			k      int
		}{{10, 1}, {30, 6}, {100, 10}} {
			opts := []Option{WithSeed(seed), WithWindowNs(wk.window), WithHistoryDepth(wk.k)}
			name := fmt.Sprintf("seed %d window %v k %d", seed, wk.window, wk.k)
			repMiss, trMiss, shotMiss := cachedRun(t, c.New, opts...)
			repHit, trHit, shotHit := cachedRun(t, c.New, opts...)
			repNew, trNew, shotNew := cachedRun(t, New, opts...)
			cases++
			if hits, misses, _ := c.Stats(); hits != cases || misses != cases {
				t.Fatalf("%s: %d hits and %d misses after %d cases, want one each per case", name, hits, misses, cases)
			}
			if repMiss != repNew || repHit != repNew {
				t.Errorf("%s: reports differ\nmiss %s\nhit  %s\nnew  %s", name, repMiss, repHit, repNew)
			}
			if trMiss != trNew || trHit != trNew {
				t.Errorf("%s: trace JSONL differs (miss %d B, hit %d B, new %d B)", name, len(trMiss), len(trHit), len(trNew))
			}
			if shotMiss != shotNew || shotHit != shotNew {
				t.Errorf("%s: PredictShot differs\nmiss %s\nhit  %s\nnew  %s", name, shotMiss, shotHit, shotNew)
			}
		}
	}
}

// TestCalibrationCacheSingleFlight asks for one key from 8 goroutines at
// once: exactly one calibrates, the rest wait and share its channel.
func TestCalibrationCacheSingleFlight(t *testing.T) {
	var c CalibrationCache
	systems := make([]*System, 8)
	var wg sync.WaitGroup
	for i := range systems {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sys, err := c.New(WithSeed(11), WithoutStateSim())
			if err != nil {
				t.Error(err)
				return
			}
			systems[i] = sys
		}()
	}
	wg.Wait()
	hits, misses, bytes := c.Stats()
	if misses != 1 || hits != 7 {
		t.Fatalf("8 concurrent lookups: %d misses, %d hits, want 1 and 7", misses, hits)
	}
	if bytes != entryBytes(6) {
		t.Fatalf("retained %d B, want one k=6 entry (%d B)", bytes, entryBytes(6))
	}
	for i, s := range systems {
		if s.channel != systems[0].channel {
			t.Fatalf("system %d holds its own channel", i)
		}
	}
}

// heapChildEnv marks the fresh process in which TestCalibrationCacheBounds
// measures heap.
const heapChildEnv = "ARTERY_CALIBCACHE_HEAP_CHILD"

// TestCalibrationCacheBounds checks the byte cap. A channel charges at
// least the heap it keeps alive, at the smallest and the default depth;
// an entry larger than the cap is never kept; and filling past the cap
// evicts the least recently used channel first.
//
// The heap rows read process heap, so they run in a child process that
// runs only this test: heap left behind by earlier tests in the same
// process cannot count against an entry. Package init has already
// calibrated sys there, so shared carrier state is warm before the first
// reading.
func TestCalibrationCacheBounds(t *testing.T) {
	if entryBytes(6) != 36352 || entryBytes(15) <= calibCacheBytes || entryBytes(14)+2*entryBytes(13) <= calibCacheBytes {
		t.Fatalf("entry sizes moved: k=6 %d B, k=13 %d B, k=14 %d B, k=15 %d B",
			entryBytes(6), entryBytes(13), entryBytes(14), entryBytes(15))
	}
	if os.Getenv(heapChildEnv) == "1" {
		cacheHeapRows(t)
		return
	}
	child := exec.Command(os.Args[0], "-test.run=^TestCalibrationCacheBounds$")
	child.Env = append(os.Environ(), heapChildEnv+"=1")
	if out, err := child.CombinedOutput(); err != nil {
		t.Fatalf("heap rows in a fresh process: %v\n%s", err, out)
	}

	var c CalibrationCache
	get := func(seed uint64, k int) *System {
		t.Helper()
		sys, err := c.New(WithSeed(seed), WithHistoryDepth(k), WithoutStateSim())
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	retained := func() int64 {
		_, _, b := c.Stats()
		return b
	}

	a := get(3, 14)
	b := get(4, 13)
	if got := retained(); got != entryBytes(14)+entryBytes(13) {
		t.Fatalf("retained %d B after a k=14 and a k=13 system, want %d", got, entryBytes(14)+entryBytes(13))
	}
	get(3, 14) // a is now the most recently used, b the least
	get(5, 13) // past the cap: evicts b
	if got := retained(); got != entryBytes(14)+entryBytes(13) {
		t.Fatalf("retained %d B after the eviction, want %d", got, entryBytes(14)+entryBytes(13))
	}
	if get(3, 14).channel != a.channel {
		t.Fatal("the most recently used channel was evicted")
	}
	if get(4, 13).channel == b.channel {
		t.Fatal("the least recently used channel survived a fill past the cap")
	}
	if hits, misses, _ := c.Stats(); hits != 2 || misses != 4 {
		t.Fatalf("%d hits and %d misses, want 2 and 4", hits, misses)
	}

	before := retained()
	get(6, 16)
	get(6, 16)
	if hits, misses, bytes := c.Stats(); hits != 2 || misses != 6 || bytes != before {
		t.Fatalf("two k=16 systems: %d hits, %d misses, %d B retained; want 2, 6, %d", hits, misses, bytes, before)
	}
}

// cacheHeapRows checks that k = 1 and k = 6 entries keep no more heap
// alive than they are charged.
//
// A row during which the runtime started an OS thread is measured again
// with a fresh cache. The thread's runtime structures stay on the Go heap
// for the life of the process, about 5 KiB whatever the row holds, so
// they are a one-time cost of the process rather than of the entries. On
// a loaded machine the runtime starts such a thread at an unpredictable
// moment, and at k = 6 one of them alone is more than the 8 entries'
// margin.
func cacheHeapRows(t *testing.T) {
	threads := pprof.Lookup("threadcreate")
	for _, row := range []struct{ k, n int }{{1, 16}, {6, 8}} {
		for attempt := 1; ; attempt++ {
			started := threads.Count()
			perEntry, bytes := cacheHeapRow(t, row.k, row.n)
			if threads.Count() != started && attempt < 3 {
				continue
			}
			if perEntry > entryBytes(row.k) || bytes != int64(row.n)*entryBytes(row.k) {
				t.Errorf("k=%d: %d entries keep %d B of heap each and are charged %d B in all, want at most %d B each",
					row.k, row.n, perEntry, bytes, entryBytes(row.k))
			}
			break
		}
	}
}

// cacheHeapRow fills a fresh cache with n depth-k entries and returns
// the heap each keeps alive and the bytes the cache charges in all.
func cacheHeapRow(t *testing.T, k, n int) (perEntry, charged int64) {
	var c CalibrationCache
	var before, after runtime.MemStats
	runtime.GC() // twice: the first only moves sync.Pool items to the victim cache
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if _, err := c.New(WithSeed(uint64(100+i)), WithHistoryDepth(k), WithoutStateSim()); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	_, _, charged = c.Stats()
	runtime.KeepAlive(&c)
	return (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(n), charged
}
